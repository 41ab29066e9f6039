package txengine

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// queued reports how many waiters are queued behind the current owner of k
// (0 when free or held uncontended). Test-only introspection under the
// bucket mutex.
func (lt *latchTable) queued(k uint64) int {
	b := lt.bucketOf(k)
	b.mu.Lock()
	defer b.mu.Unlock()
	n := 0
	if st := b.m[k]; st != nil {
		for w := st.head; w != nil; w = w.next {
			n++
		}
	}
	return n
}

// TestLatchAcquireRelease pins the uncontended protocol: a free latch is
// taken without waiting, release dissolves it (the state is recycled), and
// releasing an unheld latch panics.
func TestLatchAcquireRelease(t *testing.T) {
	lt := newLatchTable()
	w := newLatchWaiter()
	if lt.acquire(42, &w) {
		t.Error("uncontended acquire reported a wait")
	}
	// A different key in another bucket is independent.
	if lt.acquire(43, &w) {
		t.Error("second key acquire reported a wait")
	}
	lt.release(42)
	lt.release(43)
	// Re-acquire after release must again be wait-free.
	if waits := lt.acquireAll([]uint64{7, 42, 43}, &w); waits != 0 {
		t.Errorf("acquireAll on free latches waited %d times", waits)
	}
	lt.releaseAll([]uint64{7, 42, 43})

	defer func() {
		if recover() == nil {
			t.Error("release of an unheld latch did not panic")
		}
	}()
	lt.release(99)
}

// TestLatchFIFOHandoff pins the wake order: waiters queued behind a held
// latch are woken in exactly arrival order, by direct ownership handoff.
// Each goroutine is released into acquire only after the previous one is
// observably queued, so the arrival order is deterministic.
func TestLatchFIFOHandoff(t *testing.T) {
	const k, n = 17, 8
	lt := newLatchTable()
	owner := newLatchWaiter()
	lt.acquire(k, &owner)

	var order []int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			w := newLatchWaiter()
			lt.acquire(k, &w)
			mu.Lock()
			order = append(order, id)
			mu.Unlock()
			lt.release(k)
		}(i)
		// Wait until goroutine i is in the queue before admitting i+1.
		for deadline := time.Now().Add(5 * time.Second); lt.queued(k) != i+1; {
			if time.Now().After(deadline) {
				t.Fatalf("waiter %d never queued (queued=%d)", i, lt.queued(k))
			}
			time.Sleep(time.Microsecond)
		}
	}
	lt.release(k) // hand off to waiter 0; the chain drains in order
	wg.Wait()
	for i, id := range order {
		if id != i {
			t.Fatalf("wake order %v, want ascending arrival order", order)
		}
	}
	if lt.queued(k) != 0 {
		t.Error("latch still has waiters after the chain drained")
	}
	w := newLatchWaiter()
	if lt.acquire(k, &w) {
		t.Error("latch not free after the chain drained")
	}
	lt.release(k)
}

// TestLatchStressMutualExclusion hammers acquireAll/releaseAll from many
// goroutines with randomized overlapping key sets and asserts, per key, that
// at most one holder exists at a time and no acquisition is ever lost. Run
// under -race this is also the latch table's happens-before check; that the
// test finishes at all is the no-deadlock/no-lost-wakeup check.
func TestLatchStressMutualExclusion(t *testing.T) {
	const (
		keys    = 16 // tiny keyspace: constant overlap
		workers = 8
		iters   = 2000
	)
	lt := newLatchTable()
	var holders [keys]atomic.Int32
	var waits atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			w := newLatchWaiter()
			rng := rand.New(rand.NewPCG(uint64(id)+1, 0xabcd))
			var set []uint64
			for i := 0; i < iters; i++ {
				set = set[:0]
				for n := 1 + rng.IntN(4); n > 0; n-- {
					set = insertKey(set, rng.Uint64N(keys))
				}
				waits.Add(uint64(lt.acquireAll(set, &w)))
				for _, k := range set {
					if h := holders[k].Add(1); h != 1 {
						t.Errorf("key %d has %d concurrent holders", k, h)
					}
				}
				// Yield while holding so other workers pile onto the queues
				// even on a single-P host.
				runtime.Gosched()
				for _, k := range set {
					holders[k].Add(-1)
				}
				lt.releaseAll(set)
			}
		}(g)
	}
	wg.Wait()
	if waits.Load() == 0 {
		t.Error("stress run never contended; the test is not exercising handoff")
	}
	for k := uint64(0); k < keys; k++ {
		if n := lt.queued(k); n != 0 {
			t.Errorf("key %d still has %d waiters after the run", k, n)
		}
	}
}

// TestInsertKey pins the sorted-dedup invariant declared latch key sets rely
// on.
func TestInsertKey(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	var set []uint64
	seen := map[uint64]bool{}
	for i := 0; i < 200; i++ {
		k := rng.Uint64N(64)
		set = insertKey(set, k)
		seen[k] = true
	}
	if len(set) != len(seen) {
		t.Fatalf("set has %d elements, want %d distinct", len(set), len(seen))
	}
	for i := 1; i < len(set); i++ {
		if set[i-1] >= set[i] {
			t.Fatalf("set not strictly ascending at %d: %v", i, set)
		}
	}
}

// TestShardedLatchedHintZeroRestart pins the latched fast path end to end:
// on an idle sharded engine, a hinted cross-shard transaction must commit
// with no unlatched attempt — the hint routes it straight through key latches
// and shards opened up front.
func TestShardedLatchedHintZeroRestart(t *testing.T) {
	eng, err := Build("medley-sharded", Config{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	m, err := eng.NewUintMap(MapSpec{Kind: KindHash, Buckets: 256})
	if err != nil {
		t.Fatal(err)
	}
	tx := eng.NewWorker(0)
	se := eng.(*shardedEngine)
	// Two keys guaranteed to live on different shards.
	a, b := uint64(0), uint64(0)
	for k := uint64(1); ; k++ {
		if se.shardOf(k) != se.shardOf(a) {
			b = k
			break
		}
	}
	base := eng.Stats()
	for i := 0; i < 10; i++ {
		HintKeys(tx, a, b)
		if err := tx.Run(func() error {
			m.Put(tx, a, uint64(i))
			m.Put(tx, b, uint64(i))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	d := eng.Stats().Delta(base)
	if d.LatchFallbacks != 0 {
		t.Errorf("hinted runs ran unlatched %d times", d.LatchFallbacks)
	}
	if d.Commits == 0 {
		t.Errorf("no commits recorded: %+v", d)
	}
}

// TestShardedLatchedTransferStress is the engine-level race test for the
// cross-shard commit: workers run transfers over a small overlapping account
// set at 1, 2 and 8 shards, declaring them three ways — hinted (latched),
// un-hinted (the second shard joins on first touch, no latches) and with an
// oversized hint (> latchMaxKeys keys: declared shard set, no latches) —
// beside single-shard writers rewriting the same accounts. The total must be
// conserved and no single-shard increment lost: any torn cross-shard commit
// or latch/epoch ordering bug shows up as drift or a -race report.
func TestShardedLatchedTransferStress(t *testing.T) {
	const (
		accounts = 12 // tiny: nearly every pair of workers overlaps
		perAcct  = 10_000
		workers  = 6
		singles  = 2
		iters    = 400
	)
	filler := oversizedHint()
	for _, shards := range []int{1, 2, 8} {
		for _, decl := range []string{"hinted", "unhinted", "oversized"} {
			t.Run(fmt.Sprintf("shards=%d/%s", shards, decl), func(t *testing.T) {
				eng, err := Build("medley-sharded", Config{Shards: shards})
				if err != nil {
					t.Fatal(err)
				}
				defer eng.Close()
				se := eng.(*shardedEngine)
				m, err := eng.NewUintMap(MapSpec{Kind: KindHash, Buckets: 64})
				if err != nil {
					t.Fatal(err)
				}
				init := eng.NewWorker(0)
				// side[a] is a counter on account a's shard: a single-shard
				// writer bumps it in the transaction that rewrites a.
				var side [accounts]uint64
				for a := uint64(0); a < accounts; a++ {
					m.Put(init, a, perAcct)
					side[a] = keyOnShard(t, se, se.shardOf(a), 1<<20+a<<8)
				}
				var wg sync.WaitGroup
				for g := 0; g < workers; g++ {
					wg.Add(1)
					go func(id int) {
						defer wg.Done()
						tx := eng.NewWorker(1 + id)
						rng := rand.New(rand.NewPCG(uint64(id)+1, uint64(shards)))
						for i := 0; i < iters; i++ {
							from := rng.Uint64N(accounts)
							to := rng.Uint64N(accounts)
							amt := uint64(rng.IntN(5) + 1)
							switch decl {
							case "hinted":
								HintKeys(tx, from, to)
							case "oversized":
								HintKeys(tx, from, to)
								HintKeys(tx, filler...)
							}
							if err := tx.Run(func() error {
								f, _ := m.Get(tx, from)
								if f < amt {
									return nil
								}
								m.Put(tx, from, f-amt)
								// Yield mid-transaction (latches held on the
								// latched path) so workers genuinely overlap
								// even on a single-P host.
								runtime.Gosched()
								v, _ := m.Get(tx, to)
								m.Put(tx, to, v+amt)
								return nil
							}); err != nil {
								t.Errorf("worker %d: %v", id, err)
								return
							}
						}
					}(g)
				}
				for g := 0; g < singles; g++ {
					wg.Add(1)
					go func(id int) {
						defer wg.Done()
						tx := eng.NewWorker(100 + id)
						rng := rand.New(rand.NewPCG(uint64(id)+77, uint64(shards)))
						for i := 0; i < iters; i++ {
							a := rng.Uint64N(accounts)
							if err := tx.Run(func() error {
								v, _ := m.Get(tx, a)
								m.Put(tx, a, v)
								runtime.Gosched()
								c, _ := m.Get(tx, side[a])
								m.Put(tx, side[a], c+1)
								return nil
							}); err != nil {
								t.Errorf("single-shard writer %d: %v", id, err)
								return
							}
						}
					}(g)
				}
				wg.Wait()
				audit := eng.NewWorker(999)
				sum, bumps := uint64(0), uint64(0)
				for a := uint64(0); a < accounts; a++ {
					v, _ := m.Get(audit, a)
					c, _ := m.Get(audit, side[a])
					sum, bumps = sum+v, bumps+c
				}
				if sum != accounts*perAcct {
					t.Errorf("total %d, want %d: money not conserved", sum, accounts*perAcct)
				}
				if bumps != singles*iters {
					t.Errorf("side counters sum %d, want %d: a single-shard commit was lost", bumps, singles*iters)
				}
				d := eng.Stats()
				switch {
				case shards == 1:
					if d.LatchWaits != 0 || d.LatchFallbacks != 0 {
						t.Errorf("one shard ran cross-shard machinery: %+v", d)
					}
				case decl == "hinted":
					if d.LatchWaits == 0 {
						t.Errorf("latched overlapping stress never waited on a latch: %+v", d)
					}
					if d.LatchFallbacks != 0 {
						t.Errorf("correctly hinted transfers ran unlatched: %+v", d)
					}
				default:
					if d.LatchWaits != 0 || d.LatchFallbacks == 0 {
						t.Errorf("%s transfers must run without latches: %+v", decl, d)
					}
				}
			})
		}
	}
}
