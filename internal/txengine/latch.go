package txengine

import (
	"runtime"
	"sync"
)

// Striped latches for declared transactions.
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
// latchTable is a fixed array of latchStripes plain mutexes; a key's latch
// is the stripe its Fibonacci hash (latchHash) selects from the hash's top
// bits. A declaration stages hashes, not keys: the multiply is a bijection on
// uint64, so deduplicating hashes deduplicates keys, and a sorted set of
// hashes is in stripe order with the keys of one stripe next to each other.
// acquireAll locks each distinct stripe once, ascending; releaseAll unlocks
// each once. Two keys that share a stripe (one pair in latchStripes) are
// serialized against each other, which only over-serializes.
//
// Deadlock freedom is by ordering: every latched attempt takes its stripes in
// ascending stripe order, so the classic total-order argument applies. A
// latch holder blocks on nothing but the next stripe.
//
// A waiter yields before it parks (waitStripe). sync.Mutex's own spin is sized to
// critical sections of nanoseconds, and a stripe is held for a whole
// attempt (microseconds), so a plain Lock almost always parks: the waiter's
// processor runs out of work, its thread sleeps in the kernel, and on the
// serving path the connection's whole pipelined burst waits for that thread
// to be woken. Instead a waiter calls runtime.Gosched and retries the
// stripe, up to latchYields times, which keeps the thread busy with other
// goroutines (the holder's among them) while the holder finishes. Only past
// that budget does it block in Lock, so a holder that blocks inside its Run
// body costs its waiters a park, not a spinning processor. Fairness is
// sync.Mutex's once a waiter has parked: a parked waiter that has waited
// over a millisecond is handed the stripe directly (starvation mode), so it
// is not starved by newcomers. A yielding waiter has no such claim; it is
// bounded by its budget, after which it parks like any other.
//
// Latches schedule; they do not isolate. Correctness comes from a
// transaction's being one MCNS descriptor on the worker's one session (one
// status CAS decides all of its writes) — key-disjoint transactions can
// still conflict through adjacent-node read-set entries, and unlatched
// transactions run concurrently on the same keys. The latches exist to stop
// declared transactions with overlapping footprints from repeatedly aborting
// each other on hot keys: they wait for the stripe instead, and the hot key's
// traffic pipelines.

// latchStripeBits sizes the table: latchStripes mutexes, 32 KiB.
const (
	latchStripeBits = 12
	latchStripes    = 1 << latchStripeBits
)

// latchMaxKeys caps the key set a transaction may latch. Oversized
// footprints (bulk-load chunks hint hundreds of keys) run unlatched:
// latching them would cost more in acquire/release traffic than the
// conflicts it would queue.
const latchMaxKeys = 32

// latchYields is how many times a waiter yields its processor and retries a
// held stripe before it parks in Lock. It is the smallest budget of a sweep
// that matched a waiter that never parks: serve_txn_durable on a 2-vCPU VM,
// medians of 10-s runs, read 362 k transfers/s with no yield (4 runs), 453 k
// at 16 yields (4), 481 k at 64, 472 k at 256, 460 k at 1000 and 488 k
// unbounded (10 runs each). Over 24-s runs the process made about 3,500
// voluntary context switches a second with no yield, 850 at 16 yields, 230 at
// 64 and 130 unbounded, and used 1.4 vCPUs with no yield, 1.8 at 16 and 1.9
// from 64 up.
const latchYields = 64

// latchTable is one engine's latch stripes.
type latchTable [latchStripes]sync.Mutex

// latchHash is the value a declaration stages for key k: the same Fibonacci
// hash as device routing (montage.DeviceOf), whose top bits pick the stripe.
func latchHash(k uint64) uint64 { return k * 0x9e3779b97f4a7c15 }

func stripeOf(h uint64) uint64 { return h >> (64 - latchStripeBits) }

// acquireAll locks the stripe of every hash in hs, which must be ascending
// (insertKey builds it), each distinct stripe once. Returns the number of
// stripes it had to wait for.
func (lt *latchTable) acquireAll(hs []uint64) int {
	waits := 0
	for i, h := range hs {
		if i > 0 && stripeOf(hs[i-1]) == stripeOf(h) {
			continue
		}
		if mu := &lt[stripeOf(h)]; !mu.TryLock() {
			waits++
			waitStripe(mu)
		}
	}
	return waits
}

// waitStripe takes a stripe another attempt holds: it yields and retries up
// to latchYields times, then parks in Lock.
func waitStripe(mu *sync.Mutex) {
	for range latchYields {
		runtime.Gosched()
		if mu.TryLock() {
			return
		}
	}
	mu.Lock()
}

// releaseAll unlocks the stripes of hs (the exact set passed to acquireAll),
// each distinct stripe once.
func (lt *latchTable) releaseAll(hs []uint64) {
	for i, h := range hs {
		if i > 0 && stripeOf(hs[i-1]) == stripeOf(h) {
			continue
		}
		lt[stripeOf(h)].Unlock()
	}
}

// insertKey inserts k into an ascending, deduplicated key set in place,
// returning the (possibly grown) slice; declared latch sets are built with
// it. Sets are capped at latchMaxKeys elsewhere, so the linear scan is fine.
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
