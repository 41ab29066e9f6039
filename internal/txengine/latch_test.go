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

// holds reports whether some transaction holds the latch for k. Test-only
// introspection under the bucket mutex.
func (lt *latchTable) holds(k uint64) bool {
	b := lt.bucketOf(k)
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.m[k] != nil
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
// on an idle engine, a transaction hinted with two keys runs its body once,
// with both declared keys latched, and commits.
func TestShardedLatchedHintZeroRestart(t *testing.T) {
	eng, err := Build("medley", Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	m, err := eng.NewUintMap(MapSpec{Kind: KindHash, Buckets: 256})
	if err != nil {
		t.Fatal(err)
	}
	tx := eng.NewWorker(0)
	se := eng.(*medleyEngine)
	a, b := uint64(0), uint64(1)
	base := eng.Stats()
	execs, unlatched := 0, 0
	for i := 0; i < 10; i++ {
		HintKeys(tx, a, b)
		if err := tx.Run(func() error {
			execs++
			if !se.latch.holds(a) || !se.latch.holds(b) {
				unlatched++
			}
			m.Put(tx, a, uint64(i))
			m.Put(tx, b, uint64(i))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if unlatched != 0 {
		t.Errorf("hinted runs ran unlatched %d times", unlatched)
	}
	if d := eng.Stats().Delta(base); d.Commits != 10 || execs != 10 {
		t.Errorf("%+v in %d executions of the body, want 10 commits in 10", d, execs)
	}
	for _, k := range []uint64{a, b} {
		if se.latch.holds(k) {
			t.Errorf("key %d still latched after its Runs", k)
		}
	}
}

// TestShardedLatchedTransferStress is the engine-level race test for latched
// commits: workers run transfers over a small overlapping account set on
// medley and on txmontage-sharded over 1, 2 and 8 devices, declaring them
// three ways — hinted (latched), un-hinted (no latches) and with an oversized
// hint (> latchMaxKeys keys: a footprint hit, no latches) — beside
// undeclared writers rewriting the same accounts. The total must be conserved
// and no undeclared increment lost: any torn commit or latch/epoch ordering
// bug shows up as drift or a -race report.
func TestShardedLatchedTransferStress(t *testing.T) {
	const (
		accounts = 12 // tiny: nearly every pair of workers overlaps
		perAcct  = 10_000
		workers  = 6
		singles  = 2
		iters    = 400
	)
	filler := oversizedHint()
	for _, e := range []struct {
		engine string
		shards int
	}{{"medley", 0}, {"txmontage-sharded", 1}, {"txmontage-sharded", 2}, {"txmontage-sharded", 8}} {
		for _, decl := range []string{"hinted", "unhinted", "oversized"} {
			t.Run(fmt.Sprintf("%s/shards=%d/%s", e.engine, e.shards, decl), func(t *testing.T) {
				eng, err := Build(e.engine, Config{Shards: e.shards})
				if err != nil {
					t.Fatal(err)
				}
				defer eng.Close()
				m, err := eng.NewUintMap(MapSpec{Kind: KindHash, Buckets: 64})
				if err != nil {
					t.Fatal(err)
				}
				init := eng.NewWorker(0)
				// side[a] is a counter an undeclared writer bumps in the
				// transaction that rewrites a.
				var side [accounts]uint64
				for a := uint64(0); a < accounts; a++ {
					m.Put(init, a, perAcct)
					side[a] = 1<<20 + a
				}
				var wg sync.WaitGroup
				for g := 0; g < workers; g++ {
					wg.Add(1)
					go func(id int) {
						defer wg.Done()
						tx := eng.NewWorker(1 + id)
						rng := rand.New(rand.NewPCG(uint64(id)+1, uint64(e.shards)))
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
						rng := rand.New(rand.NewPCG(uint64(id)+77, uint64(e.shards)))
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
								t.Errorf("undeclared writer %d: %v", id, err)
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
					t.Errorf("side counters sum %d, want %d: an undeclared commit was lost", bumps, singles*iters)
				}
				d := eng.Stats()
				switch {
				case decl == "hinted":
					if d.LatchWaits == 0 {
						t.Errorf("latched overlapping stress never waited on a latch: %+v", d)
					}
				default:
					if d.LatchWaits != 0 {
						t.Errorf("%s transfers must run without latches: %+v", decl, d)
					}
				}
			})
		}
	}
}

// TestShardedLatchedDeclarations pins which declarations latch, on idle
// Medley-family engines where every count is exact: two distinct keys latch
// and count one footprint hit; one key (declared twice) neither latches nor
// counts; latchMaxKeys+1 keys count one and run unlatched; an undeclared Run
// does neither. However a Run is declared, its body runs once.
func TestShardedLatchedDeclarations(t *testing.T) {
	keys := []uint64{3, 5}
	for _, engine := range []string{"medley", "txmontage", "txmontage-sharded"} {
		t.Run(engine, func(t *testing.T) {
			eng, err := Build(engine, Config{})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			se := eng.(*medleyEngine)
			m, err := eng.NewUintMap(MapSpec{Kind: KindHash, Buckets: 256})
			if err != nil {
				t.Fatal(err)
			}
			tx := eng.NewWorker(0)
			for _, c := range []struct {
				name    string
				hint    []uint64
				latched bool
				hits    uint64
			}{
				{"undeclared", nil, false, 0},
				{"one key", []uint64{keys[0], keys[0]}, false, 0},
				{"two keys", keys, true, 1},
				{"latchMaxKeys+1 keys", append(oversizedHint()[2:], keys...), false, 1},
			} {
				base := eng.Stats()
				if c.hint != nil {
					HintKeys(tx, c.hint...)
				}
				execs, held := 0, 0
				if err := tx.Run(func() error {
					execs++
					held = 0
					for _, k := range c.hint {
						if se.latch.holds(k) {
							held++
						}
					}
					for _, k := range keys {
						v, _ := m.Get(tx, k)
						m.Put(tx, k, v+1)
					}
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				if latched := held > 0; latched != c.latched || (latched && held != len(c.hint)) {
					t.Errorf("%s: %d of its %d keys latched, want latched=%v", c.name, held, len(c.hint), c.latched)
				}
				if d := eng.Stats().Delta(base); d != (Stats{Commits: 1, FootprintHits: c.hits}) || execs != 1 {
					t.Errorf("%s: %+v in %d executions of the body, want one commit and %d footprint hits in one", c.name, d, execs, c.hits)
				}
			}
		})
	}
}
