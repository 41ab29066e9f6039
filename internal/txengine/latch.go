package txengine

import "sync"

// Key-granular latches for declared transactions.
//
// A Run on a Medley-family engine whose declaration (HintKeys) names two to
// latchMaxKeys distinct keys latches exactly those keys before each
// attempt's transaction opens, and releases them after it has closed
// (sessionTx.Run). Nothing else blocks: undeclared transactions, one-key
// declarations, oversized ones and standalone operations never touch the
// table. This is the runtime's one blocking mechanism, entered only by
// declaration; inside the transaction the paper's nonblocking commit is
// untouched (core/doc.go states the boundary).
//
// latchTable is a bucketed table of per-key latches in the spirit of
// tinykv's latches scheduler. Each bucket holds a mutex-protected map from
// key to its FIFO waiter queue; a latch exists in the map exactly while some
// transaction holds it. Acquisition is blocking with direct ownership
// handoff: releasing a latch with waiters queued passes ownership to the
// head waiter without ever marking the latch free, so wake order is exactly
// arrival order and no waiter can be starved by a barging newcomer.
//
// Deadlock freedom is by ordering: acquireAll takes latches in ascending key
// order, and every transaction sorts (and dedupes) its key set before
// acquiring, so the classic total-order argument applies. A latch holder
// blocks on nothing but the next latch.
//
// Latches schedule; they do not isolate. Correctness comes from a
// transaction's being one MCNS descriptor on the worker's one session (one
// status CAS decides all of its writes) — key-disjoint transactions can
// still conflict through adjacent-node read-set entries, and unlatched
// transactions run concurrently on the same keys. The latches
// exist to stop declared transactions with overlapping footprints from
// repeatedly aborting each other on hot keys: they queue instead, in FIFO
// order, and the hot key's traffic pipelines.

// latchTableBuckets is the number of latch buckets. Power of two; 256
// buckets keep bucket collisions (two distinct hot keys sharing a mutex)
// rare at realistic concurrency while the whole table stays
// a few KiB.
const latchTableBuckets = 256

// latchMaxKeys caps the key set a transaction may latch. Oversized
// footprints (bulk-load chunks hint hundreds of keys) run unlatched:
// latching them would cost more in acquire/release traffic than the
// conflicts it would queue.
const latchMaxKeys = 32

// latchWaiter is one transaction's reusable wait token: a one-slot channel
// the releaser signals on ownership handoff, plus the FIFO link. A
// transaction waits on at most one latch at a time (acquireAll is
// sequential over sorted keys), so one token per Tx handle suffices; the
// link field is only touched under the owning bucket's mutex.
type latchWaiter struct {
	ch   chan struct{}
	next *latchWaiter
}

func newLatchWaiter() latchWaiter { return latchWaiter{ch: make(chan struct{}, 1)} }

// latchState is one held latch: the FIFO queue of waiters behind the
// current owner. The owner itself is not recorded — presence in the bucket
// map is what means "held". Recycled through the bucket's freelist.
type latchState struct {
	head, tail *latchWaiter
	next       *latchState // bucket freelist link
}

// latchBucket is one mutex-striped slice of the table. Padded so adjacent
// buckets never share a cache line.
type latchBucket struct {
	mu   sync.Mutex
	m    map[uint64]*latchState
	free *latchState
	_    [64 - 8 - 8 - 8]byte
}

// latchTable is a bucketed per-key latch table with FIFO wait/wake.
type latchTable struct {
	buckets [latchTableBuckets]latchBucket
}

func newLatchTable() *latchTable {
	lt := &latchTable{}
	for i := range lt.buckets {
		lt.buckets[i].m = make(map[uint64]*latchState, 4)
	}
	return lt
}

// bucketOf routes a key to its bucket: same Fibonacci-hash spread as device
// routing (montage.DeviceOf), taken from the high bits so sequential keys
// scatter.
func (lt *latchTable) bucketOf(k uint64) *latchBucket {
	h := k * 0x9e3779b97f4a7c15
	return &lt.buckets[h>>(64-8)]
}

// acquire takes the latch for k, blocking (FIFO) while it is held by
// another transaction. Reports whether it had to wait.
func (lt *latchTable) acquire(k uint64, w *latchWaiter) bool {
	b := lt.bucketOf(k)
	b.mu.Lock()
	st := b.m[k]
	if st == nil {
		// Free: take ownership by publishing a (waiterless) state.
		if st = b.free; st != nil {
			b.free = st.next
			st.next = nil
		} else {
			st = &latchState{}
		}
		b.m[k] = st
		b.mu.Unlock()
		return false
	}
	w.next = nil
	if st.tail == nil {
		st.head = w
	} else {
		st.tail.next = w
	}
	st.tail = w
	b.mu.Unlock()
	<-w.ch // ownership handed off by release
	return true
}

// release drops the latch for k: ownership passes to the head waiter if one
// is queued (the latch never goes free in between — direct handoff keeps
// wake order FIFO), otherwise the latch is dissolved and its state recycled.
func (lt *latchTable) release(k uint64) {
	b := lt.bucketOf(k)
	b.mu.Lock()
	st := b.m[k]
	if st == nil {
		b.mu.Unlock()
		panic("txengine: release of an unheld latch")
	}
	if w := st.head; w != nil {
		st.head = w.next
		if st.head == nil {
			st.tail = nil
		}
		w.next = nil
		b.mu.Unlock()
		w.ch <- struct{}{} // handoff: w now owns the latch
		return
	}
	delete(b.m, k)
	st.next = b.free
	b.free = st
	b.mu.Unlock()
}

// acquireAll takes every latch in keys, which must be sorted ascending and
// deduplicated (the total order is what makes concurrent acquireAll calls
// deadlock-free). Returns the number of latches it had to wait for.
func (lt *latchTable) acquireAll(keys []uint64, w *latchWaiter) int {
	waits := 0
	for _, k := range keys {
		if lt.acquire(k, w) {
			waits++
		}
	}
	return waits
}

// releaseAll drops every latch in keys (the exact set passed to a
// successful acquireAll).
func (lt *latchTable) releaseAll(keys []uint64) {
	for _, k := range keys {
		lt.release(k)
	}
}

// insertKey inserts k into an ascending, deduplicated key set in place,
// returning the (possibly grown) slice; declared latch key sets are built
// with it. Sets are capped at latchMaxKeys elsewhere, so the linear scan is
// fine.
func insertKey(set []uint64, k uint64) []uint64 {
	for i, v := range set {
		if v == k {
			return set
		}
		if v > k {
			set = append(set, 0)
			copy(set[i+1:], set[i:])
			set[i] = k
			return set
		}
	}
	return append(set, k)
}
