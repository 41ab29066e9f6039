// Package fskiplist implements a Fraser-style lock-free skiplist (Fraser,
// "Practical Lock-Freedom", 2003; presentation follows Herlihy & Shavit),
// NBTC-transformed for Medley transactions. It is the skiplist used in the
// paper's Figures 8–10.
//
// Design notes:
//
//   - Deletion marks live in the per-level successor references
//     (Harris-style {node, marked} pairs); a node is logically deleted when
//     its bottom-level next is marked — that marking CAS is the
//     linearization (and publication) point of Remove.
//   - Insert linearizes at the CAS that links the new node into the bottom
//     level; linking the upper levels of the tower is post-critical cleanup
//     and is deferred to commit inside a transaction (so a speculative node
//     is reachable only through the installed descriptor).
//   - Values are immutable per node. An updating Put follows the paper's
//     Fig. 2 pattern: the replacement node is published as the marked
//     bottom-level successor of the victim in a single CAS (linearization
//     and publication point); unlinking the victim and building the new
//     tower are post-critical cleanup.
//   - A read outcome records (a) the bottom-level predecessor link through
//     which the node was reached and (b) the node's bottom-level successor
//     load observed unmarked; together these validate reachability and
//     liveness at commit time. Upper-level traffic is unrecorded routing —
//     readers stay invisible and read sets stay small.
//
// The transform is the same for every node layout, so one code path serves
// two. New builds Fraser's list: a random height and a tower allocated beside
// the node. NewRotating builds the layout of the rotating skip list (Dick,
// Fekete & Gramoli, "A skip list for multicore"): each node is one allocation
// with an inline wheel of MaxLevel slots, and its height is derived from a
// hash of the key, so the index shape is stable under churn and needs no
// random draw. The rotating list's dynamic zero-level rotation is left out:
// our workloads hold the population steady, so the level window never moves
// (README's "Substitutions").
package fskiplist

import (
	"cmp"
	"math/bits"
	"math/rand/v2"

	"medley/internal/core"
)

// MaxLevel is the maximum tower height (the paper's skiplists use up to 20
// levels for a 1M key space).
const MaxLevel = 20

type node[K cmp.Ordered, V any] struct {
	key   K
	val   V
	next  []core.CASObj[Ref[K, V]] // len == level+1
	level int                      // top level index of this tower
}

// wheelNode is a node of NewRotating's layout: next aliases the inline wheel,
// so node and tower are one allocation.
type wheelNode[K cmp.Ordered, V any] struct {
	node[K, V]
	wheel [MaxLevel]core.CASObj[Ref[K, V]]
}

// Ref is a marked successor reference. A marked bottom-level reference
// {x, true} on node n means "n is logically deleted and x is its successor"
// — for value updates x is the replacement node carrying the same key.
type Ref[K cmp.Ordered, V any] struct {
	n      *node[K, V]
	marked bool
}

// SkipList is a lock-free ordered map supporting transactional composition.
// Construct with New or NewRotating.
type SkipList[K cmp.Ordered, V any] struct {
	head    *node[K, V]            // sentinel tower of full height; key unused
	newNode func(K, V) *node[K, V] // the layout: builds an unpublished node
}

// New returns an empty skiplist of random-height towers.
func New[K cmp.Ordered, V any]() *SkipList[K, V] {
	return newList(newTower[K, V])
}

// NewRotating returns an empty skiplist in the rotating layout: one
// allocation per node, with a wheel of MaxLevel slots inline, and a height
// that follows from the key.
func NewRotating[V any]() *SkipList[uint64, V] {
	return newList(newWheel[V])
}

func newList[K cmp.Ordered, V any](newNode func(K, V) *node[K, V]) *SkipList[K, V] {
	return &SkipList[K, V]{
		head:    &node[K, V]{next: make([]core.CASObj[Ref[K, V]], MaxLevel), level: MaxLevel - 1},
		newNode: newNode,
	}
}

// newTower builds a node of random height with its tower beside it.
func newTower[K cmp.Ordered, V any](k K, v V) *node[K, V] {
	lvl := bits.TrailingZeros64(rand.Uint64() | (1 << (MaxLevel - 1)))
	return &node[K, V]{key: k, val: v, next: make([]core.CASObj[Ref[K, V]], lvl+1), level: lvl}
}

// newWheel builds a node of height heightOf(k) with its wheel inline.
func newWheel[V any](k uint64, v V) *node[uint64, V] {
	w := &wheelNode[uint64, V]{node: node[uint64, V]{key: k, val: v, level: heightOf(k)}}
	w.next = w.wheel[:w.level+1]
	return &w.node
}

// heightOf derives a deterministic geometric(1/2) top level in [0, MaxLevel)
// from the key, so the index is reproducible and a re-inserted key gets its
// old shape back.
func heightOf(k uint64) int {
	h := k
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return bits.TrailingZeros64(h | (1 << (MaxLevel - 1)))
}

// findResult carries the outcome of a search.
type findResult[K cmp.Ordered, V any] struct {
	preds [MaxLevel]*core.CASObj[Ref[K, V]] // predecessor link per level
	succs [MaxLevel]*node[K, V]             // successor per level
	ptag  core.ReadTag                      // tag of the bottom-level pred load
	ctag  core.ReadTag                      // tag of curr's bottom next load (found only)
	curr  *node[K, V]                       // node with key k, if found
	nxt0  Ref[K, V]                         // curr's bottom successor ref (found only)
}

// find locates preds/succs for key k at every level, snipping marked nodes
// as it goes. Pass a nil session (or one outside a transaction) for plain
// maintenance traversals. Nodes encountered at level lvl always have towers
// at least lvl tall.
//
// A search can find itself standing on a dead node: it descends from a node
// whose tower was marked after the level above was read. A dead node's edge
// is frozen, so it still routes forward, but only to what was there when the
// node died. Two rules keep that from hiding a key. Walking on through dead
// nodes stops at k like any other walk: a dead successor with a key ≥ k is no
// place to descend from, since everything below it is past k. And the bottom
// level takes no position through a dead edge at all: keys linked after the
// node was snipped are not behind its edge, and a read-set entry on an edge
// that never changes validates whatever happens to k. There the search marks
// the rest of the dead node's tower, as its remover is about to, and starts
// over, so that it cannot come down the same way again.
func (sl *SkipList[K, V]) find(s *core.Session, k K) (r findResult[K, V], found bool) {
retry:
	pred := sl.head
	for lvl := MaxLevel - 1; lvl >= 0; lvl-- {
		predObj := &pred.next[lvl]
		cref, ctag := predObj.NbtcLoad(s)
		for {
			curr := cref.n
			if curr == nil {
				break
			}
			nref, ntag := curr.next[lvl].NbtcLoad(s)
			if nref.marked {
				if cref.marked {
					// We entered this position through a dead node's edge
					// (possible while a replacement's physical cleanup is
					// pending). The marked edge still routes forward; walk
					// through without snipping — only a live edge may be
					// CASed.
					if curr.key >= k {
						break
					}
					pred = curr
					predObj = &curr.next[lvl]
					cref, ctag = nref, ntag
					continue
				}
				// curr is dead at this level; snip it via the live edge.
				if !predObj.NbtcCAS(s, Ref[K, V]{curr, false}, Ref[K, V]{nref.n, false}, false, false) {
					goto retry
				}
				cref, ctag = predObj.NbtcLoad(s)
				want := Ref[K, V]{nref.n, false}
				if cref != want {
					goto retry
				}
				continue
			}
			if curr.key < k {
				pred = curr
				predObj = &curr.next[lvl]
				cref, ctag = nref, ntag
				continue
			}
			// curr.key >= k: this level is positioned.
			if lvl == 0 && curr.key == k && !cref.marked {
				r.preds[0] = predObj
				r.succs[0] = curr
				r.ptag = ctag
				r.curr = curr
				r.ctag = ntag
				r.nxt0 = nref
				return r, true
			}
			break
		}
		r.preds[lvl] = predObj
		r.succs[lvl] = cref.n
		if lvl == 0 {
			if cref.marked {
				sl.retireTower(pred, k)
				goto retry
			}
			r.ptag = ctag
		}
	}
	return r, false
}

// Get returns the value bound to k, if any.
func (sl *SkipList[K, V]) Get(s *core.Session, k K) (V, bool) {
	s.OpStart()
	r, found := sl.find(s, k)
	s.AddToReadSet(r.preds[0], r.ptag)
	if !found {
		var zero V
		return zero, false
	}
	s.AddToReadSet(&r.curr.next[0], r.ctag)
	return r.curr.val, true
}

// Contains reports whether k is present.
func (sl *SkipList[K, V]) Contains(s *core.Session, k K) bool {
	_, ok := sl.Get(s, k)
	return ok
}

// Put binds k to v, returning the previous value if k was present.
func (sl *SkipList[K, V]) Put(s *core.Session, k K, v V) (old V, replaced bool) {
	s.OpStart()
	for {
		r, found := sl.find(s, k)
		if found {
			// Replace: publish the new tower's root as the victim's marked
			// bottom successor (one CAS: linearization + publication). Its
			// own bottom link starts on the cell that CAS displaces.
			nn := sl.newNode(k, v)
			nn.next[0].InitFrom(r.ctag, Ref[K, V]{r.nxt0.n, false})
			if r.curr.next[0].NbtcCAS(s, Ref[K, V]{r.nxt0.n, false}, Ref[K, V]{nn, true}, true, true) {
				victim := r.curr
				predObj := r.preds[0]
				// Mark the victim's upper levels immediately: purely
				// physical routing maintenance (the node's logical fate is
				// decided by the — possibly speculative — bottom mark), and
				// necessary so that later operations of the same
				// transaction do not descend onto a tower that is dead at
				// the bottom but routed above.
				sl.retireTower(victim, k)
				s.AddToCleanups(sl, predObj, victim)
				return r.curr.val, true
			}
			continue
		}
		if sl.insertAt(s, &r, k, v) {
			var zero V
			return zero, false
		}
	}
}

// Insert adds k→v only if absent, reporting whether insertion happened.
func (sl *SkipList[K, V]) Insert(s *core.Session, k K, v V) bool {
	s.OpStart()
	for {
		r, found := sl.find(s, k)
		if found {
			s.AddToReadSet(r.preds[0], r.ptag)
			s.AddToReadSet(&r.curr.next[0], r.ctag)
			return false
		}
		if sl.insertAt(s, &r, k, v) {
			return true
		}
	}
}

// insertAt links a fresh tower for k before r.succs[0]; returns false if the
// bottom-level CAS lost a race (caller re-finds).
func (sl *SkipList[K, V]) insertAt(s *core.Session, r *findResult[K, V], k K, v V) bool {
	nn := sl.newNode(k, v)
	nn.next[0].InitFrom(r.ptag, Ref[K, V]{r.succs[0], false}) // the cell the CAS below displaces
	// Linearization + publication: bottom-level link.
	if !r.preds[0].NbtcCAS(s, Ref[K, V]{r.succs[0], false}, Ref[K, V]{nn, false}, true, true) {
		return false
	}
	if nn.level > 0 {
		// Post-critical: build the express lanes after commit.
		s.AddToCleanups(sl, nn, nil)
	}
	return true
}

// Remove deletes k, returning its value if present. Linearization point is
// the marking CAS on the victim's bottom-level next; marking upper levels
// and physical snipping are post-critical cleanup.
func (sl *SkipList[K, V]) Remove(s *core.Session, k K) (V, bool) {
	s.OpStart()
	for {
		r, found := sl.find(s, k)
		if !found {
			s.AddToReadSet(r.preds[0], r.ptag)
			var zero V
			return zero, false
		}
		if r.curr.next[0].NbtcCAS(s, Ref[K, V]{r.nxt0.n, false}, Ref[K, V]{r.nxt0.n, true}, true, true) {
			victim := r.curr
			sl.retireTower(victim, k) // immediate physical demotion (see Put)
			s.AddToCleanups(sl, victim, nil)
			return r.curr.val, true
		}
	}
}

// Cleanup is the post-critical work of an update, the core.Cleaner that Put,
// Insert and Remove register; it runs after commit, or at once outside a
// transaction. With operands (pred, victim) a replace unlinks its victim from
// the bottom-level link pred, then sweeps and builds the tower of the
// replacement, which the victim's marked bottom link, frozen since the
// replace, names. With (n, nil) an insert builds n's upper levels, and a
// remove, whose n is dead at the bottom, sweeps it out of every level.
func (sl *SkipList[K, V]) Cleanup(_ *core.Session, a, b any) {
	if victim, ok := b.(*node[K, V]); ok {
		pred, nn := a.(*core.CASObj[Ref[K, V]]), victim.next[0].Load().n
		pred.CAS(Ref[K, V]{victim, false}, Ref[K, V]{nn, false})
		sl.find(nil, victim.key) // sweep any remaining links
		sl.linkUpper(nn, victim.key)
		return
	}
	n := a.(*node[K, V])
	if n.next[0].Load().marked {
		sl.find(nil, n.key)
	} else {
		sl.linkUpper(n, n.key)
	}
}

// retireTower marks every upper level of a logically-deleted tower so that
// traversals snip it everywhere.
func (sl *SkipList[K, V]) retireTower(victim *node[K, V], k K) {
	for lvl := victim.level; lvl >= 1; lvl-- {
		for {
			cur := victim.next[lvl].Load()
			if cur.marked {
				break
			}
			if victim.next[lvl].CAS(cur, Ref[K, V]{cur.n, true}) {
				break
			}
		}
	}
}

// linkUpper links levels 1..level of a committed live tower, re-finding
// predecessors as needed; it gives up if the node dies.
func (sl *SkipList[K, V]) linkUpper(nn *node[K, V], k K) {
	for lvl := 1; lvl <= nn.level; lvl++ {
		for {
			if nn.next[0].Load().marked {
				return // node already logically deleted
			}
			r, found := sl.find(nil, k)
			if !found || r.curr != nn {
				return // removed or replaced meanwhile
			}
			succ := r.succs[lvl]
			if succ == nn {
				break // already linked at this level
			}
			cur := nn.next[lvl].Load()
			if cur.marked {
				return
			}
			if cur.n != succ {
				if !nn.next[lvl].CAS(cur, Ref[K, V]{succ, false}) {
					continue
				}
			}
			if r.preds[lvl].CAS(Ref[K, V]{succ, false}, Ref[K, V]{nn, false}) {
				break
			}
		}
	}
}

// Len counts present keys; diagnostic, non-linearizable.
func (sl *SkipList[K, V]) Len() int {
	n := 0
	ref := sl.head.next[0].Load()
	for nd := ref.n; nd != nil; {
		nref := nd.next[0].Load()
		if !nref.marked {
			n++
		}
		nd = nref.n
	}
	return n
}

// Keys returns present keys in order; diagnostic, non-linearizable.
func (sl *SkipList[K, V]) Keys() []K {
	var ks []K
	ref := sl.head.next[0].Load()
	for nd := ref.n; nd != nil; {
		nref := nd.next[0].Load()
		if !nref.marked {
			ks = append(ks, nd.key)
		}
		nd = nref.n
	}
	return ks
}

// Range calls f on each present pair in key order until f returns false.
// Diagnostic, non-linearizable.
func (sl *SkipList[K, V]) Range(f func(K, V) bool) {
	ref := sl.head.next[0].Load()
	for nd := ref.n; nd != nil; {
		nref := nd.next[0].Load()
		if !nref.marked {
			if !f(nd.key, nd.val) {
				return
			}
		}
		nd = nref.n
	}
}
