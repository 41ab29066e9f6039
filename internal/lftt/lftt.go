// Package lftt implements an LFTT-style baseline: the Lock-Free
// Transactional Transform of Zhang & Dechev (SPAA 2016), applied to a
// skiplist-based set/map, as compared against in Figure 8 of the Medley
// paper.
//
// LFTT's defining design, reproduced here:
//
//   - Transactions are *static*: the full operation list is known up front
//     (which is why the paper cannot run LFTT on TPC-C).
//   - Every operation — including reads — publishes the transaction's
//     descriptor on its critical node (the node holding the key, or, for a
//     key with no node, the node before the gap where it would be linked),
//     making readers visible to writers; this per-operation metadata CAS is
//     the overhead that costs LFTT its gap against Medley's invisible
//     readers.
//   - A node's logical membership is a function of the descriptor and
//     operation recorded in its info field: a committed transaction's
//     operation leaves the state it recorded, an aborted one the state from
//     before the transaction's first operation on the node, all switched
//     atomically by the single CAS on the transaction's status word.
//   - Nodes are never physically unlinked; a "removed" key persists as a
//     physical node whose info marks it absent, to be revived by a later
//     insert's adoption CAS.
//
// Substitution note (README, "Substitutions"): the original resolves
// conflicts by helping the encountered transaction to completion; this
// implementation resolves them by eagerly aborting the encountered
// transaction (the same policy Medley uses), which keeps progress
// obstruction-free and preserves LFTT's performance-relevant costs
// (descriptor publication on every critical node, whole-transaction
// re-execution after conflicts).
package lftt

import (
	"math/bits"
	"math/rand/v2"
	"sync/atomic"
)

// OpKind selects a set operation.
type OpKind uint8

const (
	OpGet OpKind = iota
	OpInsert
	OpRemove
)

// Op is one operation of a static transaction.
type Op struct {
	Kind OpKind
	Key  uint64
	Val  uint64
}

// OpResult is the outcome of one operation in a committed transaction.
type OpResult struct {
	Val uint64
	Ok  bool // get: key present; insert: inserted; remove: removed
}

// Status of a transaction descriptor.
type Status int32

const (
	active Status = iota
	committed
	aborted
)

// txDesc is a transaction descriptor shared by all its critical nodes.
type txDesc struct {
	status atomic.Int32
}

// info publishes one transaction operation on a node. Immutable; replaced
// by adoption CASes.
type info struct {
	desc *txDesc
	// present, val: the node's membership and value once the operation ran,
	// as its transaction sees them.
	present bool
	val     uint64
	// wasPresent, was: the same before the transaction's first operation on
	// the node, which is what an abort reverts to (a transaction that removes
	// and then reinserts a key, as Put does, must leave it present).
	wasPresent bool
	was        uint64
}

const maxLevel = 20

type node struct {
	key   uint64
	info  atomic.Pointer[info]
	next  []atomic.Pointer[node]
	level int
}

// SkipList is an LFTT-transformed skiplist map (uint64 → uint64).
type SkipList struct {
	head *node
}

// New returns an empty LFTT skiplist.
func New() *SkipList {
	head := &node{next: make([]atomic.Pointer[node], maxLevel), level: maxLevel - 1}
	head.info.Store(&info{desc: settled}) // absent reads publish on it too
	return &SkipList{head: head}
}

// settled is a descriptor that committed before anything began.
var settled = func() *txDesc {
	d := &txDesc{}
	d.status.Store(int32(committed))
	return d
}()

// interpret computes a node's logical membership and value from its info.
// me is the interpreting transaction: its own operations read as committed.
// The caller must have resolved any foreign active descriptor first.
func interpret(h *info, me *txDesc) (present bool, val uint64) {
	if h.desc == me || Status(h.desc.status.Load()) == committed {
		return h.present, h.val
	}
	return h.wasPresent, h.was
}

// adopt is the info of d's next operation on a node whose info is h, which
// leaves it present with val, or absent.
func adopt(h *info, d *txDesc, present bool, val uint64) *info {
	in := &info{desc: d, present: present, val: val, wasPresent: h.wasPresent, was: h.was}
	if h.desc != d {
		in.wasPresent, in.was = interpret(h, d)
	}
	return in
}

// resolve gets a foreign active descriptor out of the way by aborting it
// (eager contention management; see package comment).
func resolve(h *info, me *txDesc) {
	if h.desc != me && Status(h.desc.status.Load()) == active {
		h.desc.status.CompareAndSwap(int32(active), int32(aborted))
	}
}

// search returns the physical node with key k (or nil) and the predecessors
// per level. Physical nodes are never unlinked.
func (sl *SkipList) search(k uint64, preds *[maxLevel]*node) *node {
	x := sl.head
	for lvl := maxLevel - 1; lvl >= 0; lvl-- {
		for {
			nxt := x.next[lvl].Load()
			if nxt == nil || nxt.key >= k {
				break
			}
			x = nxt
		}
		preds[lvl] = x
	}
	if c := x.next[0].Load(); c != nil && c.key == k {
		return c
	}
	return nil
}

// physicalInsert links a fresh node for k carrying first as its info;
// returns the node (ours or a racing winner's).
func (sl *SkipList) physicalInsert(k uint64, first *info) (*node, bool) {
	var preds [maxLevel]*node
	if n := sl.search(k, &preds); n != nil {
		return n, false
	}
	lvl := bits.TrailingZeros64(rand.Uint64() | (1 << (maxLevel - 1)))
	nn := &node{key: k, next: make([]atomic.Pointer[node], lvl+1), level: lvl}
	nn.info.Store(first)
	succ := preds[0].next[0].Load()
	if succ != nil && succ.key <= k {
		return nil, false // raced with another physical insert; re-search
	}
	nn.next[0].Store(succ)
	if !preds[0].next[0].CompareAndSwap(succ, nn) {
		return nil, false
	}
	// A transaction still active that read a key of this gap absent
	// published the read on the predecessor (absent): the insert conflicts.
	resolve(preds[0].info.Load(), first.desc)
	// Link upper levels best-effort.
	for i := 1; i <= lvl; i++ {
		for {
			var ps [maxLevel]*node
			sl.search(k, &ps)
			succ := ps[i].next[i].Load()
			if succ == nn {
				break
			}
			nn.next[i].Store(succ)
			if ps[i].next[i].CompareAndSwap(succ, nn) {
				break
			}
		}
	}
	return nn, true
}

// ExecuteTx runs a static transaction once; committed reports whether it
// took effect. On false the caller should retry (fresh attempt). Results
// are valid only when committed.
func (sl *SkipList) ExecuteTx(ops []Op) (results []OpResult, ok bool) {
	d := &txDesc{}
	results = make([]OpResult, len(ops))
	for i, op := range ops {
		if Status(d.status.Load()) != active {
			return nil, false // eagerly aborted by a conflicting transaction
		}
		var res OpResult
		var okOp bool
		switch op.Kind {
		case OpInsert:
			res, okOp = sl.doInsert(d, op)
		case OpRemove:
			res, okOp = sl.doRemove(d, op)
		default:
			res, okOp = sl.doGet(d, op)
		}
		if !okOp {
			d.status.CompareAndSwap(int32(active), int32(aborted))
			return nil, false
		}
		results[i] = res
	}
	if !d.status.CompareAndSwap(int32(active), int32(committed)) {
		return nil, false
	}
	return results, true
}

func (sl *SkipList) doInsert(d *txDesc, op Op) (OpResult, bool) {
	for {
		if Status(d.status.Load()) != active {
			return OpResult{}, false
		}
		var preds [maxLevel]*node
		n := sl.search(op.Key, &preds)
		if n == nil {
			in := &info{desc: d, present: true, val: op.Val}
			if nn, okIns := sl.physicalInsert(op.Key, in); okIns && nn != nil {
				return OpResult{Val: op.Val, Ok: true}, true
			}
			continue
		}
		h := n.info.Load()
		resolve(h, d)
		if h.desc != d && Status(h.desc.status.Load()) == active {
			continue // racing resolution
		}
		present, val := interpret(h, d)
		if present {
			// Insert on a present key: the operation reports failure; the
			// transaction itself proceeds (set-semantics insert is a no-op,
			// still serialized via the adoption CAS below as a reader).
			if n.info.CompareAndSwap(h, adopt(h, d, true, val)) {
				return OpResult{Val: val, Ok: false}, true
			}
			continue
		}
		in := adopt(h, d, true, op.Val)
		if n.info.CompareAndSwap(h, in) {
			return OpResult{Val: op.Val, Ok: true}, true
		}
	}
}

func (sl *SkipList) doRemove(d *txDesc, op Op) (OpResult, bool) {
	for {
		if Status(d.status.Load()) != active {
			return OpResult{}, false
		}
		var preds [maxLevel]*node
		n := sl.search(op.Key, &preds)
		if n == nil {
			if sl.absent(d, op.Key, preds[0]) {
				return OpResult{Ok: false}, true // absent; op reports failure
			}
			continue
		}
		h := n.info.Load()
		resolve(h, d)
		if h.desc != d && Status(h.desc.status.Load()) == active {
			continue
		}
		present, val := interpret(h, d)
		if !present {
			if n.info.CompareAndSwap(h, adopt(h, d, false, 0)) {
				return OpResult{Ok: false}, true
			}
			continue
		}
		if n.info.CompareAndSwap(h, adopt(h, d, false, 0)) {
			return OpResult{Val: val, Ok: true}, true
		}
	}
}

// absent publishes d's read of a key k that has no node on p, the node after
// which k would be linked, leaving p's own membership as it is; false if the
// gap after p changed meanwhile, and the caller searches again. An insert
// links its node into the gap first and then meets the read on p
// (physicalInsert); the read publishes first and then finds the gap
// unchanged. So one of the two sees the other.
func (sl *SkipList) absent(d *txDesc, k uint64, p *node) bool {
	succ := p.next[0].Load()
	if succ != nil && succ.key <= k {
		return false
	}
	h := p.info.Load()
	resolve(h, d)
	if h.desc != d && Status(h.desc.status.Load()) == active {
		return false
	}
	present, val := interpret(h, d)
	return p.info.CompareAndSwap(h, adopt(h, d, present, val)) && p.next[0].Load() == succ
}

func (sl *SkipList) doGet(d *txDesc, op Op) (OpResult, bool) {
	for {
		if Status(d.status.Load()) != active {
			return OpResult{}, false
		}
		var preds [maxLevel]*node
		n := sl.search(op.Key, &preds)
		if n == nil {
			if sl.absent(d, op.Key, preds[0]) {
				return OpResult{Ok: false}, true
			}
			continue
		}
		h := n.info.Load()
		resolve(h, d)
		if h.desc != d && Status(h.desc.status.Load()) == active {
			continue
		}
		present, val := interpret(h, d)
		// Visible reader: publish the read on the critical node.
		if n.info.CompareAndSwap(h, adopt(h, d, present, val)) {
			return OpResult{Val: val, Ok: present}, true
		}
	}
}

// Get is a convenience single-op transaction (retried until committed).
func (sl *SkipList) Get(k uint64) (uint64, bool) {
	for {
		if res, ok := sl.ExecuteTx([]Op{{Kind: OpGet, Key: k}}); ok {
			return res[0].Val, res[0].Ok
		}
	}
}

// Insert is a convenience single-op transaction (retried until committed).
func (sl *SkipList) Insert(k, v uint64) bool {
	for {
		if res, ok := sl.ExecuteTx([]Op{{Kind: OpInsert, Key: k, Val: v}}); ok {
			return res[0].Ok
		}
	}
}

// Remove is a convenience single-op transaction (retried until committed).
func (sl *SkipList) Remove(k uint64) (uint64, bool) {
	for {
		if res, ok := sl.ExecuteTx([]Op{{Kind: OpRemove, Key: k}}); ok {
			return res[0].Val, res[0].Ok
		}
	}
}

// Len counts logically present keys (diagnostic, quiesced use only).
func (sl *SkipList) Len() int {
	n := 0
	for c := sl.head.next[0].Load(); c != nil; c = c.next[0].Load() {
		if present, _ := interpret(c.info.Load(), nil); present {
			n++
		}
	}
	return n
}
