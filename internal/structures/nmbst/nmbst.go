// Package nmbst implements the lock-free external binary search tree of
// Natarajan & Mittal (PPoPP 2014), NBTC-transformed for Medley transactions.
// This is the structure the Medley paper uses to illustrate publication
// points that precede linearization (Section 2.2): a delete first "injects"
// its intent by flagging the edge above the victim leaf; helpers that
// encounter the flag complete the splice.
//
// Shape: an external BST — internal nodes route, leaves carry key/value
// bindings, every internal node has exactly two children. Mutation state
// lives in edges: an edge value is {child, flagged, tagged}. Flagging the
// edge above a leaf announces (and here linearizes) the leaf's deletion;
// tagging the sibling edge freezes it so the parent can be spliced out.
//
// NBTC mapping:
//   - Insert / value-replacing Put linearize at the single CAS replacing the
//     parent→leaf edge (linPt = pubPt = true).
//   - Delete linearizes at the flagging CAS (linPt = pubPt = true, the
//     "injection point" of the original algorithm); tagging the sibling and
//     splicing are post-critical cleanup, also performed by helpers that
//     trip over the flag.
//   - Read outcomes record the parent→leaf edge load; commit-time
//     validation of that cell covers both presence (the leaf, unflagged)
//     and absence (a different leaf where k would live). While a pending
//     delete has frozen that edge, they record the ancestor edge instead
//     (see addRead).
//
// Keys are uint64 with the two largest values reserved as sentinels (as in
// the original paper); values are arbitrary and immutable per leaf.
package nmbst

import (
	"math"

	"medley/internal/core"
)

const (
	inf1 = math.MaxUint64 - 1 // sentinel key ∞₁
	inf2 = math.MaxUint64     // sentinel key ∞₂
	// MaxKey is the largest user key storable in the tree.
	MaxKey = inf1 - 1
)

type node[V any] struct {
	key  uint64
	val  V
	leaf bool
	// left, right are edges; unused (zero) in leaves.
	left, right core.CASObj[edge[V]]
}

// edge is a child reference plus the flag/tag control bits of Natarajan &
// Mittal.
type edge[V any] struct {
	n    *node[V]
	flag bool // set on the edge above a leaf being deleted
	tag  bool // set on the sibling edge while the parent is spliced out
}

// Tree is a lock-free external BST supporting transactional composition.
// Construct with New.
type Tree[V any] struct {
	root *node[V] // internal, key ∞₂
}

// New returns an empty tree (sentinel scaffolding only).
func New[V any]() *Tree[V] {
	s := &node[V]{key: inf1}
	s.left.Store(edge[V]{n: &node[V]{key: inf1, leaf: true}})
	s.right.Store(edge[V]{n: &node[V]{key: inf2, leaf: true}})
	r := &node[V]{key: inf2}
	r.left.Store(edge[V]{n: s})
	r.right.Store(edge[V]{n: &node[V]{key: inf2, leaf: true}})
	return &Tree[V]{root: r}
}

// seekRec is the seek record of the original algorithm, augmented with the
// CASObj handles and ReadTags NBTC needs.
type seekRec[V any] struct {
	ancObj *core.CASObj[edge[V]] // edge from which successor hangs
	ancVal edge[V]               // its value when traversed (untagged, unflagged)
	ancTag core.ReadTag          // tag of that load
	succ   *node[V]              // successor: ancVal.n
	parent *node[V]              // parent of leaf
	parObj *core.CASObj[edge[V]] // edge parent→leaf
	parVal edge[V]               // its observed value
	parTag core.ReadTag          // tag of that load (linearizing read)
	leaf   *node[V]
	sibObj *core.CASObj[edge[V]] // edge parent→sibling
}

// childObj returns the edge object of parent on the side where k routes.
func childObj[V any](n *node[V], k uint64) (*core.CASObj[edge[V]], *core.CASObj[edge[V]]) {
	if k < n.key {
		return &n.left, &n.right
	}
	return &n.right, &n.left
}

// seek descends to the leaf where k lives or would live, maintaining the
// ancestor/successor pair exactly as in Natarajan & Mittal: the ancestor
// edge is the deepest clean (unflagged, untagged) edge on the path.
func (t *Tree[V]) seek(s *core.Session, k uint64) seekRec[V] {
	var r seekRec[V]
	r.parent = t.root
	parObj := &t.root.left
	curVal, curTag := parObj.NbtcLoad(s)
	cur := curVal.n
	r.ancObj, r.ancVal, r.ancTag, r.succ = parObj, curVal, curTag, cur
	for !cur.leaf {
		if !curVal.tag && !curVal.flag {
			r.ancObj = parObj
			r.ancVal = curVal
			r.ancTag = curTag
			r.succ = cur
		}
		r.parent = cur
		parObj, _ = childObj(cur, k)
		v, tg := parObj.NbtcLoad(s)
		curVal, curTag = v, tg
		cur = v.n
	}
	r.parObj = parObj
	r.parVal = curVal
	r.parTag = curTag
	r.leaf = cur
	_, r.sibObj = childObj(r.parent, k)
	return r
}

// addRead records the outcome of a read of k on the parent→leaf edge — or,
// when that edge is flagged or tagged, on the ancestor edge. A flagged or
// tagged edge never changes again, and once the pending delete splices its
// parent out it no longer leads to k at all; the splice must change the
// ancestor edge first.
func (r *seekRec[V]) addRead(s *core.Session) {
	if r.parVal.flag || r.parVal.tag {
		s.AddToReadSet(r.ancObj, r.ancTag)
		return
	}
	s.AddToReadSet(r.parObj, r.parTag)
}

// Get returns the value bound to k, if any.
func (t *Tree[V]) Get(s *core.Session, k uint64) (V, bool) {
	s.OpStart()
	r := t.seek(s, k)
	r.addRead(s)
	if r.leaf.key == k && !r.parVal.flag {
		return r.leaf.val, true
	}
	var zero V
	return zero, false
}

// Contains reports whether k is present.
func (t *Tree[V]) Contains(s *core.Session, k uint64) bool {
	_, ok := t.Get(s, k)
	return ok
}

// Insert adds k→v only if absent, reporting whether insertion happened.
func (t *Tree[V]) Insert(s *core.Session, k uint64, v V) bool {
	s.OpStart()
	for {
		r := t.seek(s, k)
		if r.leaf.key == k && !r.parVal.flag {
			r.addRead(s)
			return false
		}
		if t.tryInsert(s, &r, k, v) {
			return true
		}
		t.help(s, &r)
	}
}

// Put binds k to v, returning the previous value if k was present. A
// replacing Put swaps the leaf for a fresh one in a single edge CAS.
func (t *Tree[V]) Put(s *core.Session, k uint64, v V) (old V, replaced bool) {
	s.OpStart()
	for {
		r := t.seek(s, k)
		if r.leaf.key == k && !r.parVal.flag {
			nl := &node[V]{key: k, val: v, leaf: true}
			if r.parObj.NbtcCAS(s, edge[V]{r.leaf, false, false}, edge[V]{nl, false, false}, true, true) {
				return r.leaf.val, true
			}
			t.help(s, &r)
			continue
		}
		if t.tryInsert(s, &r, k, v) {
			var zero V
			return zero, false
		}
		t.help(s, &r)
	}
}

// tryInsert attempts to replace the reached leaf edge with a new internal
// node holding the old leaf and the new one. The internal node is private
// until the CAS publishes it, so its edge to the old leaf starts on the
// committed cell that CAS displaces, which holds exactly that edge (InitFrom
// with the parent edge's tag; a flagged or tagged edge was refused above);
// its edge to the new leaf takes a fresh cell.
func (t *Tree[V]) tryInsert(s *core.Session, r *seekRec[V], k uint64, v V) bool {
	if r.parVal.flag || r.parVal.tag {
		return false
	}
	nl := &node[V]{key: k, val: v, leaf: true}
	var in *node[V]
	if k < r.leaf.key {
		in = &node[V]{key: r.leaf.key}
		in.left.Store(edge[V]{n: nl})
		in.right.InitFrom(r.parTag, edge[V]{n: r.leaf})
	} else {
		in = &node[V]{key: k}
		in.left.InitFrom(r.parTag, edge[V]{n: r.leaf})
		in.right.Store(edge[V]{n: nl})
	}
	return r.parObj.NbtcCAS(s, edge[V]{r.leaf, false, false}, edge[V]{in, false, false}, true, true)
}

// Remove deletes k, returning its value if present. Linearization (and
// publication) point is the flagging CAS on the parent→leaf edge; the
// splice is post-critical cleanup, also executed by helpers.
func (t *Tree[V]) Remove(s *core.Session, k uint64) (V, bool) {
	s.OpStart()
	for {
		r := t.seek(s, k)
		if r.leaf.key != k || r.parVal.flag {
			r.addRead(s)
			var zero V
			return zero, false
		}
		if r.parVal.tag {
			t.help(s, &r)
			continue
		}
		if r.parObj.NbtcCAS(s, edge[V]{r.leaf, false, false}, edge[V]{r.leaf, true, false}, true, true) {
			s.AddToCleanups(t, r.leaf, nil)
			return r.leaf.val, true
		}
		t.help(s, &r)
	}
}

// Cleanup completes the delete of leaf, the core.Cleaner Remove registers
// with operands (leaf, nil); it runs after commit, or at once outside a
// transaction.
func (t *Tree[V]) Cleanup(s *core.Session, leaf, _ any) {
	l := leaf.(*node[V])
	t.completeDelete(s, l.key, l)
}

// completeDelete finishes a linearized delete: tag the sibling edge, splice
// the parent out from under the ancestor, propagating any pending flag on
// the sibling edge (concurrent delete of the sibling) to its new location.
func (t *Tree[V]) completeDelete(s *core.Session, k uint64, leaf *node[V]) {
	for {
		r := t.seek(s, k)
		if r.leaf != leaf {
			return // already spliced out
		}
		pv, _ := r.parObj.NbtcLoad(s)
		if pv.n != leaf || !pv.flag {
			return
		}
		sv, _ := r.sibObj.NbtcLoad(s)
		if !sv.tag {
			r.sibObj.NbtcCAS(s, sv, edge[V]{sv.n, sv.flag, true}, false, false)
			continue
		}
		// Splice: ancestor edge succ → sibling subtree (flag travels).
		if r.ancObj.NbtcCAS(s, edge[V]{r.succ, false, false}, edge[V]{sv.n, sv.flag, false}, false, false) {
			return
		}
		// Ancestor changed; re-seek and retry (or discover completion).
	}
}

// help inspects the edges around a seek record after a failed update; if a
// linearized delete's flag or tag blocks progress, complete that delete so
// that a solo thread always advances (obstruction freedom relies on this).
// If our edge is tagged, the delete in progress flagged the sibling edge of
// the same parent.
func (t *Tree[V]) help(s *core.Session, r *seekRec[V]) {
	pv, _ := r.parObj.NbtcLoad(s)
	if pv.flag && pv.n != nil && pv.n.leaf {
		t.completeDelete(s, pv.n.key, pv.n)
		return
	}
	sv, _ := r.sibObj.NbtcLoad(s)
	if sv.flag && sv.n != nil && sv.n.leaf {
		t.completeDelete(s, sv.n.key, sv.n)
	}
}

// Len counts present keys; diagnostic, non-linearizable.
func (t *Tree[V]) Len() int {
	n := 0
	t.Range(func(uint64, V) bool { n++; return true })
	return n
}

// Keys returns present keys in order; diagnostic, non-linearizable.
func (t *Tree[V]) Keys() []uint64 {
	var ks []uint64
	t.Range(func(k uint64, _ V) bool { ks = append(ks, k); return true })
	return ks
}

// Range walks the tree in key order calling f on every present binding
// until f returns false. Diagnostic, non-linearizable.
func (t *Tree[V]) Range(f func(uint64, V) bool) {
	t.walk(t.root, f)
}

func (t *Tree[V]) walk(n *node[V], f func(uint64, V) bool) bool {
	if n.leaf {
		if n.key <= MaxKey {
			return f(n.key, n.val)
		}
		return true
	}
	le := n.left.Load()
	if le.n != nil && !(le.flag && le.n.leaf) { // flagged leaf = deleted
		if !t.walk(le.n, f) {
			return false
		}
	}
	re := n.right.Load()
	if re.n != nil && !(re.flag && re.n.leaf) {
		return t.walk(re.n, f)
	}
	return true
}
