// Package medley is a Go implementation of NBTC — NonBlocking Transaction
// Composition — and the Medley / txMontage systems from "Transactional
// Composition of Nonblocking Data Structures" (Cai, Wen & Scott,
// PPoPP 2023).
//
// Medley lets operations on independent nonblocking data structures compose
// into atomic, strictly serializable transactions while preserving their
// high concurrency and (obstruction-free) nonblocking liveness. Unlike a
// software transactional memory, it instruments only each operation's
// critical memory accesses — typically the single linearizing load or CAS —
// so composition costs roughly 2× a bare operation rather than the 3–10× of
// classic STM.
//
// # Quick start
//
//	mgr := medley.NewTxManager()
//	ht1 := medley.NewHashMap[uint64](1 << 20) // accounts
//	ht2 := medley.NewHashMap[uint64](1 << 20) // savings
//
//	s := mgr.Session() // one per goroutine
//	err := s.Run(func() error {
//	    v, ok := ht1.Get(s, acct)
//	    if !ok || v < amount {
//	        s.TxAbort()
//	        return ErrInsufficient // business abort: no retry
//	    }
//	    w, _ := ht2.Get(s, acct)
//	    ht1.Put(s, acct, v-amount)
//	    ht2.Put(s, acct, w+amount)
//	    return nil
//	})
//
// Conflicting transactions abort and are retried by Run with randomized
// backoff; errors other than the internal conflict error propagate to the
// caller exactly once.
//
// # Structures
//
// This module ships NBTC-transformed versions of five classic nonblocking
// structures (the same set the paper transforms):
//
//   - medley.NewHashMap — Michael's chained hash table (internal/structures/mhash)
//   - medley.NewSkipListMap — Fraser-style skiplist (internal/structures/fskiplist)
//   - medley.NewRotatingSkipListMap — rotating skiplist (internal/structures/rskiplist)
//   - medley.NewBSTMap — Natarajan & Mittal external BST (internal/structures/nmbst)
//   - medley.NewQueue — Michael & Scott FIFO queue (internal/structures/msqueue)
//
// All maps implement the shared Map interface. Structures that take part in
// the same transactions must share a TxManager (the paper's Fig. 1): a
// transaction is one descriptor on one session of it, however many structures
// it touches, and however many devices their payloads persist to: txMontage
// over several devices (internal/txengine) keeps one manager and one index per
// map, and only routes each key's payloads to a device.
//
// # Persistence (txMontage)
//
// Package internal/montage supplies nbMontage-style epoch-based periodic
// persistence over a simulated NVM device (internal/pnvm); attaching it to
// a TxManager upgrades Medley transactions to full ACID with buffered
// durable strict serializability. See examples/persistence.
//
// # Writing your own NBTC structure
//
// Use core.CASObj for every word holding a critical load or CAS, call
// NbtcLoad/NbtcCAS with the linearization/publication flags from the
// paper's methodology, register linearizing loads of read outcomes with
// Session.AddToReadSet, and defer post-critical cleanup with
// Session.AddToCleanups. The five structure packages are worked examples of
// the mechanical transform.
package medley

import (
	"cmp"

	"medley/internal/core"
	"medley/internal/structures/fskiplist"
	"medley/internal/structures/mhash"
	"medley/internal/structures/msqueue"
	"medley/internal/structures/nmbst"
	"medley/internal/structures/rskiplist"
	"medley/internal/txmap"
)

// TxManager owns transaction metadata shared among composable structures.
type TxManager = core.TxManager

// Session is a per-goroutine transaction handle.
type Session = core.Session

// Desc is an MCNS transaction descriptor.
type Desc = core.Desc

// CASObj is the augmented atomic word used to build NBTC structures.
type CASObj[T comparable] = core.CASObj[T]

// ReadTag identifies an observed value version for read-set validation.
type ReadTag = core.ReadTag

// ErrTxAborted is returned when a transaction does not commit.
var ErrTxAborted = core.ErrTxAborted

// NewTxManager creates a transaction manager. Share one instance among all
// structures that participate in the same transactions.
func NewTxManager() *TxManager { return core.NewTxManager() }

// Map is the uint64-keyed transactional map interface implemented by the
// hash table, the skiplists, and the BST.
type Map[V any] = txmap.Map[V]

// NewHashMap creates a transactional lock-free chained hash table with
// nbuckets chains (Michael, SPAA 2002; paper Fig. 2).
func NewHashMap[V any](nbuckets int) *mhash.Map[uint64, V] {
	return mhash.NewUint64[V](nbuckets)
}

// NewOrderedHashMap creates a hash table over any ordered key type with a
// caller-supplied hash function.
func NewOrderedHashMap[K cmp.Ordered, V any](nbuckets int, hash func(K) uint64) *mhash.Map[K, V] {
	return mhash.New[K, V](nbuckets, hash)
}

// NewSkipListMap creates a transactional Fraser-style lock-free skiplist.
func NewSkipListMap[K cmp.Ordered, V any]() *fskiplist.SkipList[K, V] {
	return fskiplist.New[K, V]()
}

// NewRotatingSkipListMap creates a transactional rotating skiplist (Dick,
// Fekete & Gramoli).
func NewRotatingSkipListMap[V any]() *rskiplist.SkipList[V] {
	return rskiplist.New[V]()
}

// NewBSTMap creates a transactional lock-free external binary search tree
// (Natarajan & Mittal, PPoPP 2014). Keys are uint64 below nmbst.MaxKey.
func NewBSTMap[V any]() *nmbst.Tree[V] {
	return nmbst.New[V]()
}

// NewQueue creates a transactional Michael & Scott FIFO queue.
func NewQueue[T any]() *msqueue.Queue[T] {
	return msqueue.New[T]()
}
