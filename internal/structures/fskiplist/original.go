package fskiplist

import (
	"cmp"
	"math/bits"
	"math/rand/v2"
	"sync/atomic"
)

// Original is the untransformed Fraser-style skiplist: identical algorithm
// to SkipList but with bare atomic marked references instead of NBTC
// CASObjs. It is the "Original" baseline of the paper's Figure 10, used to
// measure Medley's marginal instrumentation overhead (TxOff/TxOn vs.
// Original). It supports no transactions.
type Original[K cmp.Ordered, V any] struct {
	head *onode[K, V]
}

type onode[K cmp.Ordered, V any] struct {
	key   K
	val   V
	next  []atomic.Pointer[oref[K, V]] // immutable {succ, marked} cells
	level int
}

type oref[K cmp.Ordered, V any] struct {
	n      *onode[K, V]
	marked bool
}

// NewOriginal returns an empty untransformed skiplist.
func NewOriginal[K cmp.Ordered, V any]() *Original[K, V] {
	h := &onode[K, V]{next: make([]atomic.Pointer[oref[K, V]], MaxLevel), level: MaxLevel - 1}
	for i := range h.next {
		h.next[i].Store(&oref[K, V]{})
	}
	return &Original[K, V]{head: h}
}

func onewNode[K cmp.Ordered, V any](k K, v V) *onode[K, V] {
	lvl := bits.TrailingZeros64(rand.Uint64() | (1 << (MaxLevel - 1)))
	n := &onode[K, V]{key: k, val: v, next: make([]atomic.Pointer[oref[K, V]], lvl+1), level: lvl}
	for i := range n.next {
		n.next[i].Store(&oref[K, V]{})
	}
	return n
}

type ofind[K cmp.Ordered, V any] struct {
	preds [MaxLevel]*atomic.Pointer[oref[K, V]]
	succs [MaxLevel]*onode[K, V]
	curr  *onode[K, V]
	nxt0  *onode[K, V]
}

// find is SkipList.find on bare references, with the same three rules for a
// search that finds itself on a dead node (see there): only a live edge is
// CASed, so that no dead node's mark is ever overwritten; walking on through
// dead nodes stops at k; and the bottom level takes no position through a
// dead edge — it finishes the dead tower and starts over.
func (sl *Original[K, V]) find(k K) (r ofind[K, V], found bool) {
retry:
	pred := sl.head
	for lvl := MaxLevel - 1; lvl >= 0; lvl-- {
		predObj := &pred.next[lvl]
		cref := predObj.Load()
		for {
			curr := cref.n
			if curr == nil {
				break
			}
			nref := curr.next[lvl].Load()
			if nref.marked {
				if cref.marked {
					if curr.key >= k {
						break
					}
					pred = curr
					predObj = &curr.next[lvl]
					cref = nref
					continue
				}
				if !predObj.CompareAndSwap(cref, &oref[K, V]{nref.n, false}) {
					goto retry
				}
				cref = predObj.Load()
				if cref.n != nref.n || cref.marked {
					goto retry
				}
				continue
			}
			if curr.key < k {
				pred = curr
				predObj = &curr.next[lvl]
				cref = nref
				continue
			}
			if lvl == 0 && curr.key == k && !cref.marked {
				r.preds[0] = predObj
				r.succs[0] = curr
				r.curr = curr
				r.nxt0 = nref.n
				return r, true
			}
			break
		}
		r.preds[lvl] = predObj
		r.succs[lvl] = cref.n
		if lvl == 0 && cref.marked {
			pred.retireTower()
			goto retry
		}
	}
	return r, false
}

// Get returns the value bound to k, if any.
func (sl *Original[K, V]) Get(k K) (V, bool) {
	r, found := sl.find(k)
	if !found {
		var zero V
		return zero, false
	}
	return r.curr.val, true
}

// Put binds k to v (replace-node update, mirroring the NBTC version).
func (sl *Original[K, V]) Put(k K, v V) (old V, replaced bool) {
	for {
		r, found := sl.find(k)
		if found {
			nn := onewNode(k, v)
			cur := r.curr.next[0].Load()
			if cur.marked || cur.n != r.nxt0 {
				continue
			}
			nn.next[0].Store(&oref[K, V]{r.nxt0, false})
			if r.curr.next[0].CompareAndSwap(cur, &oref[K, V]{nn, true}) {
				r.curr.retireTower()
				sl.snip(k)
				sl.linkUpper(nn, k)
				return r.curr.val, true
			}
			continue
		}
		nn := onewNode(k, v)
		cur := r.preds[0].Load()
		if cur.marked || cur.n != r.succs[0] {
			continue
		}
		nn.next[0].Store(&oref[K, V]{r.succs[0], false})
		if r.preds[0].CompareAndSwap(cur, &oref[K, V]{nn, false}) {
			sl.linkUpper(nn, k)
			var zero V
			return zero, false
		}
	}
}

// Insert adds k→v only if absent.
func (sl *Original[K, V]) Insert(k K, v V) bool {
	for {
		r, found := sl.find(k)
		if found {
			return false
		}
		nn := onewNode(k, v)
		cur := r.preds[0].Load()
		if cur.marked || cur.n != r.succs[0] {
			continue
		}
		nn.next[0].Store(&oref[K, V]{r.succs[0], false})
		if r.preds[0].CompareAndSwap(cur, &oref[K, V]{nn, false}) {
			sl.linkUpper(nn, k)
			return true
		}
	}
}

// Remove deletes k, returning its value if present.
func (sl *Original[K, V]) Remove(k K) (V, bool) {
	for {
		r, found := sl.find(k)
		if !found {
			var zero V
			return zero, false
		}
		cur := r.curr.next[0].Load()
		if cur.marked || cur.n != r.nxt0 {
			continue
		}
		if r.curr.next[0].CompareAndSwap(cur, &oref[K, V]{r.nxt0, true}) {
			r.curr.retireTower()
			sl.snip(k)
			return r.curr.val, true
		}
	}
}

// retireTower marks every upper level of a tower that is dead at the bottom,
// so that traversals snip it everywhere.
func (n *onode[K, V]) retireTower() {
	for lvl := n.level; lvl >= 1; lvl-- {
		for {
			c := n.next[lvl].Load()
			if c.marked || n.next[lvl].CompareAndSwap(c, &oref[K, V]{c.n, true}) {
				break
			}
		}
	}
}

func (sl *Original[K, V]) snip(k K) { sl.find(k) }

func (sl *Original[K, V]) linkUpper(nn *onode[K, V], k K) {
	for lvl := 1; lvl <= nn.level; lvl++ {
		for {
			if nn.next[0].Load().marked {
				return
			}
			r, found := sl.find(k)
			if !found || r.curr != nn {
				return
			}
			succ := r.succs[lvl]
			if succ == nn {
				break
			}
			cur := nn.next[lvl].Load()
			if cur.marked {
				return
			}
			if cur.n != succ {
				if !nn.next[lvl].CompareAndSwap(cur, &oref[K, V]{succ, false}) {
					continue
				}
			}
			pcur := r.preds[lvl].Load()
			if pcur.marked || pcur.n != succ {
				continue
			}
			if r.preds[lvl].CompareAndSwap(pcur, &oref[K, V]{nn, false}) {
				break
			}
		}
	}
}

// Len counts present keys; diagnostic.
func (sl *Original[K, V]) Len() int {
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
