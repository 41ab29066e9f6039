// Package rskiplist implements a rotating-skiplist-style ordered map (Dick,
// Fekete & Gramoli, "A skip list for multicore"), NBTC-transformed for
// Medley transactions — the fifth structure the paper reports transforming.
//
// The rotating skiplist's signature idea is to replace pointer-chased
// towers with fixed-size per-node arrays ("wheels") that the algorithm
// rotates as the global level range shifts, trading the allocation-heavy
// tower representation for cache-friendly inline arrays. This
// implementation keeps the wheel representation and the deterministic,
// maintenance-free height rule (heights derived from a hash of the key, so
// the index shape is stable under churn — no per-insert RNG, as in the
// original's background adaptation), but omits dynamic zero-level rotation:
// our workloads hold population roughly constant, so the level window never
// needs to move. README's "Substitutions" lists this one.
//
// The NBTC transform is identical to package fskiplist: bottom-level link /
// mark CASes are the linearization and publication points, upper wheels are
// physical routing maintained outside the critical path, and read outcomes
// record the bottom-level predecessor edge plus the node's liveness edge.
package rskiplist

import (
	"math/bits"

	"medley/internal/core"
)

// WheelSize is the inline wheel capacity (max index height).
const WheelSize = 24

type node[V any] struct {
	key   uint64
	val   V
	level int
	wheel [WheelSize]core.CASObj[Ref[V]]
}

// Ref is a marked successor reference.
type Ref[V any] struct {
	n      *node[V]
	marked bool
}

// SkipList is a transactional rotating-style skiplist from uint64 to V.
// Construct with New.
type SkipList[V any] struct {
	head *node[V]
}

// New returns an empty list.
func New[V any]() *SkipList[V] {
	return &SkipList[V]{head: &node[V]{level: WheelSize - 1}}
}

// heightOf derives a deterministic geometric(1/2) height from the key, so
// the index is reproducible and re-inserted keys reuse their shape.
func heightOf(k uint64) int {
	h := k
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	return bits.TrailingZeros64(h | (1 << (WheelSize - 1)))
}

type findResult[V any] struct {
	preds [WheelSize]*core.CASObj[Ref[V]]
	succs [WheelSize]*node[V]
	ptag  core.ReadTag
	ctag  core.ReadTag
	curr  *node[V]
	nxt0  Ref[V]
}

// find locates preds/succs for key k at every level, snipping marked nodes as
// it goes. As in fskiplist.find, a walk through dead nodes stops at k, and
// the bottom level takes no position through a dead node's frozen edge: it
// marks the rest of that node's wheel and starts over.
func (sl *SkipList[V]) find(s *core.Session, k uint64) (r findResult[V], found bool) {
retry:
	pred := sl.head
	for lvl := WheelSize - 1; lvl >= 0; lvl-- {
		predObj := &pred.wheel[lvl]
		cref, ctag := predObj.NbtcLoad(s)
		for {
			curr := cref.n
			if curr == nil {
				break
			}
			nref, ntag := curr.wheel[lvl].NbtcLoad(s)
			if nref.marked {
				if cref.marked {
					// entered through a dead edge: route through it
					if curr.key >= k {
						break
					}
					pred = curr
					predObj = &curr.wheel[lvl]
					cref, ctag = nref, ntag
					continue
				}
				if !predObj.NbtcCAS(s, Ref[V]{curr, false}, Ref[V]{nref.n, false}, false, false) {
					goto retry
				}
				cref, ctag = predObj.NbtcLoad(s)
				want := Ref[V]{nref.n, false}
				if cref != want {
					goto retry
				}
				continue
			}
			if curr.key < k {
				pred = curr
				predObj = &curr.wheel[lvl]
				cref, ctag = nref, ntag
				continue
			}
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
				sl.retireWheel(pred)
				goto retry
			}
			r.ptag = ctag
		}
	}
	return r, false
}

// Get returns the value bound to k, if any.
func (sl *SkipList[V]) Get(s *core.Session, k uint64) (V, bool) {
	s.OpStart()
	r, found := sl.find(s, k)
	s.AddToReadSet(r.preds[0], r.ptag)
	if !found {
		var zero V
		return zero, false
	}
	s.AddToReadSet(&r.curr.wheel[0], r.ctag)
	return r.curr.val, true
}

// Contains reports whether k is present.
func (sl *SkipList[V]) Contains(s *core.Session, k uint64) bool {
	_, ok := sl.Get(s, k)
	return ok
}

// Put binds k to v, returning the previous value if k was present.
func (sl *SkipList[V]) Put(s *core.Session, k uint64, v V) (old V, replaced bool) {
	s.OpStart()
	for {
		r, found := sl.find(s, k)
		if found {
			nn := &node[V]{key: k, val: v, level: heightOf(k)}
			nn.wheel[0].Store(Ref[V]{r.nxt0.n, false})
			if r.curr.wheel[0].NbtcCAS(s, Ref[V]{r.nxt0.n, false}, Ref[V]{nn, true}, true, true) {
				victim := r.curr
				predObj := r.preds[0]
				sl.retireWheel(victim)
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
func (sl *SkipList[V]) Insert(s *core.Session, k uint64, v V) bool {
	s.OpStart()
	for {
		r, found := sl.find(s, k)
		if found {
			s.AddToReadSet(r.preds[0], r.ptag)
			s.AddToReadSet(&r.curr.wheel[0], r.ctag)
			return false
		}
		if sl.insertAt(s, &r, k, v) {
			return true
		}
	}
}

func (sl *SkipList[V]) insertAt(s *core.Session, r *findResult[V], k uint64, v V) bool {
	nn := &node[V]{key: k, val: v, level: heightOf(k)}
	nn.wheel[0].Store(Ref[V]{r.succs[0], false})
	if !r.preds[0].NbtcCAS(s, Ref[V]{r.succs[0], false}, Ref[V]{nn, false}, true, true) {
		return false
	}
	if nn.level > 0 {
		s.AddToCleanups(sl, nn, nil)
	}
	return true
}

// Remove deletes k, returning its value if present.
func (sl *SkipList[V]) Remove(s *core.Session, k uint64) (V, bool) {
	s.OpStart()
	for {
		r, found := sl.find(s, k)
		if !found {
			s.AddToReadSet(r.preds[0], r.ptag)
			var zero V
			return zero, false
		}
		if r.curr.wheel[0].NbtcCAS(s, Ref[V]{r.nxt0.n, false}, Ref[V]{r.nxt0.n, true}, true, true) {
			victim := r.curr
			sl.retireWheel(victim)
			s.AddToCleanups(sl, victim, nil)
			return r.curr.val, true
		}
	}
}

// Cleanup is the post-critical work of an update, registered as in package
// fskiplist: (pred, victim) unlinks a replaced victim and builds its
// replacement's wheel, (n, nil) builds an inserted n's upper levels or sweeps
// a removed one out.
func (sl *SkipList[V]) Cleanup(_ *core.Session, a, b any) {
	if victim, ok := b.(*node[V]); ok {
		pred, nn := a.(*core.CASObj[Ref[V]]), victim.wheel[0].Load().n
		pred.CAS(Ref[V]{victim, false}, Ref[V]{nn, false})
		sl.find(nil, victim.key)
		sl.linkUpper(nn, victim.key)
		return
	}
	n := a.(*node[V])
	if n.wheel[0].Load().marked {
		sl.find(nil, n.key)
	} else {
		sl.linkUpper(n, n.key)
	}
}

// retireWheel marks the upper wheel slots of a logically deleted node.
func (sl *SkipList[V]) retireWheel(victim *node[V]) {
	for lvl := victim.level; lvl >= 1; lvl-- {
		for {
			cur := victim.wheel[lvl].Load()
			if cur.marked {
				break
			}
			if victim.wheel[lvl].CAS(cur, Ref[V]{cur.n, true}) {
				break
			}
		}
	}
}

// linkUpper links levels 1..level of a committed live node.
func (sl *SkipList[V]) linkUpper(nn *node[V], k uint64) {
	for lvl := 1; lvl <= nn.level; lvl++ {
		for {
			if nn.wheel[0].Load().marked {
				return
			}
			r, found := sl.find(nil, k)
			if !found || r.curr != nn {
				return
			}
			succ := r.succs[lvl]
			if succ == nn {
				break
			}
			cur := nn.wheel[lvl].Load()
			if cur.marked {
				return
			}
			if cur.n != succ {
				if !nn.wheel[lvl].CAS(cur, Ref[V]{succ, false}) {
					continue
				}
			}
			if r.preds[lvl].CAS(Ref[V]{succ, false}, Ref[V]{nn, false}) {
				break
			}
		}
	}
}

// Len counts present keys; diagnostic, non-linearizable.
func (sl *SkipList[V]) Len() int {
	n := 0
	ref := sl.head.wheel[0].Load()
	for nd := ref.n; nd != nil; {
		nref := nd.wheel[0].Load()
		if !nref.marked {
			n++
		}
		nd = nref.n
	}
	return n
}

// Keys returns present keys in order; diagnostic, non-linearizable.
func (sl *SkipList[V]) Keys() []uint64 {
	var ks []uint64
	ref := sl.head.wheel[0].Load()
	for nd := ref.n; nd != nil; {
		nref := nd.wheel[0].Load()
		if !nref.marked {
			ks = append(ks, nd.key)
		}
		nd = nref.n
	}
	return ks
}

// Range calls f on each present pair in key order until f returns false.
// Diagnostic, non-linearizable.
func (sl *SkipList[V]) Range(f func(uint64, V) bool) {
	ref := sl.head.wheel[0].Load()
	for nd := ref.n; nd != nil; {
		nref := nd.wheel[0].Load()
		if !nref.marked {
			if !f(nd.key, nd.val) {
				return
			}
		}
		nd = nref.n
	}
}
