// Package mlist implements Michael's lock-free ordered linked list (Michael,
// SPAA 2002), NBTC-transformed per Section 3.1 of the Medley paper so that
// its operations can take part in Medley transactions. It is the substrate
// for the chained hash table of package mhash and follows the transformed
// code of the paper's Fig. 2:
//
//   - Critical loads and CASes go through CASObj.NbtcLoad / NbtcCAS.
//   - The linearizing load of a read operation is registered with
//     Session.AddToReadSet.
//   - Post-critical cleanup (physical unlinking of replaced or removed
//     nodes) is registered with Session.AddToCleanups so that it executes
//     after commit (or immediately, when called outside a transaction).
//
// Keys are ordered; values are immutable per node (updates replace the node,
// exactly as in the paper: the new node is inserted as the marked victim's
// successor in one CAS, which is both linearization and publication point).
//
// A node carries the cell of the link that stays pointing at it (in): an
// insert publishes it in the predecessor, a replace in the post-commit unlink
// that swings the predecessor past the victim. A walk from a slot then reads
// the cell and the node in one object, where a cell of its own would be a
// second dependent load; the paper's 128-bit CASObj gets the same from
// holding the link inline.
package mlist

import (
	"cmp"
	"unsafe"

	"medley/internal/core"
)

// node is a list node. key and val never change after insertion; all
// mutation happens through next. in is the cell that publishes the node in
// the link that finally points at it, at most once (core.Cell).
type node[K cmp.Ordered, V any] struct {
	in   core.Cell[Ref[K, V]]
	key  K
	val  V
	next core.CASObj[Ref[K, V]]
}

// Ref is a marked reference in one word: the successor's address, plus one
// when the containing node is logically deleted (Harris's low-bit mark; a
// node is word-aligned, so the bit is free). A marked nil is markedEnd's
// address plus one, which no node has. It is the CASObj value type of every
// next pointer.
type Ref[K cmp.Ordered, V any] struct {
	p unsafe.Pointer
}

// markedEnd stands in for the node a marked nil points past.
var markedEnd uint64

func to[K cmp.Ordered, V any](n *node[K, V]) Ref[K, V] { return Ref[K, V]{unsafe.Pointer(n)} }

// mark returns r with the deletion mark set.
func (r Ref[K, V]) mark() Ref[K, V] {
	p := r.p
	if p == nil {
		p = unsafe.Pointer(&markedEnd)
	}
	return Ref[K, V]{unsafe.Add(p, 1)}
}

func (r Ref[K, V]) marked() bool { return uintptr(r.p)&1 != 0 }

// node returns the successor r points at, marked or not.
func (r Ref[K, V]) node() *node[K, V] {
	p := r.p
	if uintptr(p)&1 != 0 {
		if p = unsafe.Add(p, -1); p == unsafe.Pointer(&markedEnd) {
			return nil
		}
	}
	return (*node[K, V])(p)
}

// List is a lock-free ordered map from K to V supporting transactional
// composition. The zero value is an empty list.
type List[K cmp.Ordered, V any] struct {
	head core.CASObj[Ref[K, V]]
}

// New returns an empty list.
func New[K cmp.Ordered, V any]() *List[K, V] { return &List[K, V]{} }

// find locates the first node with key >= k. It returns the predecessor
// CASObj (through which curr was reached), the ReadTag of the load that
// observed curr, curr itself (nil if the list tail was reached), the ReadTag
// of the load that observed curr's successor, curr's successor reference at
// observation time, and whether curr.key == k. Marked nodes encountered
// along the way are physically unlinked (helping already-linearized
// removals; these CASes execute plainly unless they touch this
// transaction's own speculative state, per Def. 3 of the paper).
//
// Read outcomes concerning a present key must validate BOTH returned tags:
// the predecessor link (prev -> curr) establishes reachability, and the
// successor load (curr.next unmarked) establishes that curr is not
// logically deleted. A replacement (Put) marks curr.next at its
// linearization point and fixes prev only in post-commit cleanup, so
// validating prev alone would let a concurrent read-modify-write commit
// against a stale value.
func (l *List[K, V]) find(s *core.Session, k K) (prev *core.CASObj[Ref[K, V]], ptag core.ReadTag, curr *node[K, V], ctag core.ReadTag, nxt Ref[K, V], found bool) {
retry:
	prev = &l.head
	pref, ptag0 := prev.NbtcLoad(s)
	ptag = ptag0
	curr = pref.node()
	for curr != nil {
		cref, ctag0 := curr.next.NbtcLoad(s)
		if cref.marked() {
			// curr is logically deleted; snip it out. The replacement
			// successor is cref's node (for value updates this is the new
			// node carrying the same key).
			succ := to(cref.node())
			if !prev.NbtcCAS(s, to(curr), succ, false, false) {
				goto retry
			}
			pref2, ptag2 := prev.NbtcLoad(s)
			if pref2 != succ {
				goto retry
			}
			ptag = ptag2
			curr = succ.node()
			continue
		}
		if curr.key >= k {
			return prev, ptag, curr, ctag0, cref, curr.key == k
		}
		prev, ptag = &curr.next, ctag0
		curr = cref.node()
	}
	return prev, ptag, nil, nil, Ref[K, V]{}, false
}

// Get returns the value bound to k, if any. Inside a transaction the
// linearizing load is added to the read set for commit-time validation
// (invisible readers; no shared-memory writes on the read path).
func (l *List[K, V]) Get(s *core.Session, k K) (V, bool) {
	s.OpStart()
	prev, ptag, curr, ctag, _, found := l.find(s, k)
	s.AddToReadSet(prev, ptag)
	if found {
		// Presence additionally depends on curr remaining unmarked.
		s.AddToReadSet(&curr.next, ctag)
		return curr.val, true
	}
	var zero V
	return zero, false
}

// Contains reports whether k is present.
func (l *List[K, V]) Contains(s *core.Session, k K) bool {
	_, ok := l.Get(s, k)
	return ok
}

// Put binds k to v, returning the previous value if k was present. The
// update path follows the paper's Fig. 2: the new node is published as the
// marked successor of the node it replaces in a single CAS (linearization
// and publication point); unlinking the victim is post-critical cleanup.
// That marked link goes with the victim, so it takes a cell of its own, and
// the node's own cell goes to the unlink, whose link stays.
func (l *List[K, V]) Put(s *core.Session, k K, v V) (old V, replaced bool) {
	s.OpStart()
	// nn is private until one of the CASes below publishes it, so its
	// successor is set with Init: one cell for the node, however many retries.
	nn := &node[K, V]{key: k, val: v}
	for {
		prev, _, curr, _, nxt, found := l.find(s, k)
		if found { // replace
			nn.next.Init(nxt)
			if curr.next.NbtcCAS(s, nxt, to(nn).mark(), true, true) {
				old = curr.val
				l.deferUnlink(s, prev, curr, nn, &nn.in)
				return old, true
			}
			continue
		}
		// insert before curr
		nn.next.Init(to(curr))
		if prev.NbtcCASIn(s, to(curr), &nn.in, to(nn), true, true) {
			var zero V
			return zero, false
		}
	}
}

// Insert adds k→v only if k is absent; it reports whether insertion
// happened. A failed insert is a read-only outcome and linearizes at the
// load that observed the existing node.
func (l *List[K, V]) Insert(s *core.Session, k K, v V) bool {
	s.OpStart()
	var nn *node[K, V] // built once the key is known to be absent
	for {
		prev, ptag, curr, ctag, _, found := l.find(s, k)
		if found {
			s.AddToReadSet(prev, ptag)
			s.AddToReadSet(&curr.next, ctag)
			return false
		}
		if nn == nil {
			nn = &node[K, V]{key: k, val: v}
		}
		nn.next.Init(to(curr))
		if prev.NbtcCASIn(s, to(curr), &nn.in, to(nn), true, true) {
			return true
		}
	}
}

// Remove deletes k, returning its value if it was present. The linearization
// point is the marking CAS on the victim's next pointer; physical unlinking
// is post-critical cleanup. A failed remove linearizes at the load that
// observed k's absence.
func (l *List[K, V]) Remove(s *core.Session, k K) (V, bool) {
	s.OpStart()
	for {
		prev, ptag, curr, _, nxt, found := l.find(s, k)
		if !found {
			s.AddToReadSet(prev, ptag)
			var zero V
			return zero, false
		}
		if curr.next.NbtcCAS(s, nxt, nxt.mark(), true, true) {
			l.deferUnlink(s, prev, curr, nxt.node(), nil)
			return curr.val, true
		}
	}
}

// deferUnlink registers the post-critical physical unlink of victim,
// replacing it with succ in prev, published in cell in (nil: a new one); if
// the direct CAS fails, a plain find sweeps the victim out. Runs after commit
// (or immediately outside a transaction), matching the cleanup lambda of the
// paper's Fig. 2. The closure reads victim.key instead of capturing a copy:
// with in, and the dictionary a closure in a generic method captures, one
// more word would take it past 64 bytes.
func (l *List[K, V]) deferUnlink(s *core.Session, prev *core.CASObj[Ref[K, V]], victim, succ *node[K, V], in *core.Cell[Ref[K, V]]) {
	s.AddToCleanups(func() {
		if prev.CASIn(to(victim), in, to(succ)) {
			s.TRetire(victim)
		} else {
			l.find(nil, victim.key) // generic helping path snips it
		}
	})
}

// Len counts the unmarked nodes. It is a non-linearizable diagnostic
// traversal intended for tests and examples.
func (l *List[K, V]) Len() int {
	n := 0
	ref := l.head.Load()
	for nd := ref.node(); nd != nil; {
		nref := nd.next.Load()
		if !nref.marked() {
			n++
		}
		nd = nref.node()
	}
	return n
}

// Keys returns the keys of all unmarked nodes in order. Diagnostic only.
func (l *List[K, V]) Keys() []K {
	var ks []K
	ref := l.head.Load()
	for nd := ref.node(); nd != nil; {
		nref := nd.next.Load()
		if !nref.marked() {
			ks = append(ks, nd.key)
		}
		nd = nref.node()
	}
	return ks
}

// Range calls f on each present key/value pair in key order until f returns
// false. Non-linearizable diagnostic traversal.
func (l *List[K, V]) Range(f func(K, V) bool) {
	ref := l.head.Load()
	for nd := ref.node(); nd != nil; {
		nref := nd.next.Load()
		if !nref.marked() {
			if !f(nd.key, nd.val) {
				return
			}
		}
		nd = nref.node()
	}
}
