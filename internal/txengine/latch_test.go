package txengine

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// holds reports whether k's stripe is locked: a TryLock/Unlock probe. Inside
// a latched Run it reads the caller's own latches.
func (lt *latchTable) holds(k uint64) bool {
	mu := &lt[stripeOf(latchHash(k))]
	if mu.TryLock() {
		mu.Unlock()
		return false
	}
	return true
}

// stripeMate returns the least key above k whose latch shares k's stripe.
func stripeMate(k uint64) uint64 {
	m := k + 1
	for stripeOf(latchHash(m)) != stripeOf(latchHash(k)) {
		m++
	}
	return m
}

// stage returns the latch set a declaration of keys stages.
func stage(keys ...uint64) []uint64 {
	var d declaration
	for _, k := range keys {
		d.add(k)
	}
	return d.keys
}

// TestLatchAcquireRelease pins the uncontended protocol: free stripes are
// taken without waiting and are free again after release, and keys that
// share a stripe take it once. It runs under a deadline, so an acquireAll that
// locks a stripe twice fails the test instead of hanging it.
func TestLatchAcquireRelease(t *testing.T) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		lt := new(latchTable)
		set := stage(42, 43)
		if waits := lt.acquireAll(set); waits != 0 {
			t.Errorf("uncontended acquireAll waited %d times", waits)
		}
		if !lt.holds(42) || !lt.holds(43) || lt.holds(7) {
			t.Error("acquireAll latched other stripes than its keys'")
		}
		lt.releaseAll(set)
		if lt.holds(42) || lt.holds(43) {
			t.Error("stripe still locked after releaseAll")
		}
		// Re-acquire after release must again be wait-free; a key and its
		// stripe mate lock one stripe once.
		mate := stripeMate(42)
		set = stage(mate, 7, 42, 43)
		if waits := lt.acquireAll(set); waits != 0 {
			t.Errorf("acquireAll on free stripes waited %d times", waits)
		}
		lt.releaseAll(set)
		for _, k := range []uint64{7, 42, 43, mate} {
			if lt.holds(k) {
				t.Errorf("key %d still latched after releaseAll", k)
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("acquireAll/releaseAll did not finish in 5 s")
	}
}

// TestLatchContendedHandoff pins the blocking protocol of one stripe: while a
// holder has it, declarations on that stripe wait and none gets in, other
// stripes stay free; on release every waiter is let in, one at a time, and the
// stripe is free once they have all gone. The 10 ms hold takes each waiter
// through its latchYields yields and then into Lock, so both halves of the
// wait are exercised. Wake order is sync.Mutex's and is not checked.
func TestLatchContendedHandoff(t *testing.T) {
	const k, n = 17, 8
	lt := new(latchTable)
	set := stage(k, stripeMate(k)) // two keys, one stripe
	if waits := lt.acquireAll(set); waits != 0 {
		t.Fatalf("uncontended acquireAll waited %d times", waits)
	}

	var ready sync.WaitGroup
	var inside, entered, waits atomic.Int32
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		ready.Add(1)
		go func() {
			defer wg.Done()
			ready.Done()
			waits.Add(int32(lt.acquireAll(set)))
			if h := inside.Add(1); h != 1 {
				t.Errorf("stripe has %d concurrent holders", h)
			}
			entered.Add(1)
			runtime.Gosched()
			inside.Add(-1)
			lt.releaseAll(set)
		}()
	}
	go func() { wg.Wait(); close(done) }()
	ready.Wait()
	time.Sleep(10 * time.Millisecond) // let the waiters reach the stripe

	if got := entered.Load(); got != 0 {
		t.Fatalf("%d waiters got past a held stripe", got)
	}
	other := uint64(k + 1)
	for stripeOf(latchHash(other)) == stripeOf(latchHash(k)) {
		other++
	}
	if w := lt.acquireAll(stage(other)); w != 0 {
		t.Errorf("a free stripe waited %d times behind another stripe's holder", w)
	}
	lt.releaseAll(stage(other))

	lt.releaseAll(set)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("only %d of %d waiters acquired the stripe in 5 s after release",
			entered.Load(), n)
	}
	if got := entered.Load(); got != n {
		t.Errorf("%d of %d waiters acquired the stripe", got, n)
	}
	if w := waits.Load(); w < 1 || w > n {
		t.Errorf("waiters counted %d waits, want 1..%d (one stripe each)", w, n)
	}
	if lt.holds(k) {
		t.Error("stripe not free after every waiter released it")
	}
}

// TestLatchWaitParksPastBudget pins the fallback of a wait: a holder that
// keeps its stripe while blocked (here on a channel) for far longer than
// latchYields yields finds its waiter parked in sync.Mutex.Lock, not spinning
// through Gosched, and on release the waiter gets in and counts one wait.
func TestLatchWaitParksPastBudget(t *testing.T) {
	lt := new(latchTable)
	set := stage(42)
	held, release, released := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		lt.acquireAll(set)
		close(held)
		<-release
		lt.releaseAll(set)
		close(released)
	}()
	<-held
	waits := make(chan int, 1)
	go func() { waits <- lt.acquireAll(set) }()

	buf := make([]byte, 1<<20)
	deadline := time.Now().Add(5 * time.Second)
	for !waiterParked(buf) {
		if time.Now().After(deadline) {
			close(release)
			t.Fatal("the waiter was not parked in sync.Mutex.Lock 5 s into the hold")
		}
		time.Sleep(time.Millisecond)
	}

	close(release)
	select {
	case w := <-waits:
		if w != 1 {
			t.Errorf("acquireAll counted %d waits, want 1", w)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the waiter did not get the stripe in 5 s after release")
	}
	<-released
	lt.releaseAll(set)
	if lt.holds(42) {
		t.Error("stripe not free after the waiter released it")
	}
}

// waiterParked reports whether a goroutine inside acquireAll is blocked with
// wait reason sync.Mutex.Lock, reading every goroutine's stack into buf.
func waiterParked(buf []byte) bool {
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		header, _, _ := strings.Cut(g, "\n")
		if strings.Contains(header, "[sync.Mutex.Lock") && strings.Contains(g, "(*latchTable).acquireAll") {
			return true
		}
	}
	return false
}

// TestLatchStressMutualExclusion hammers acquireAll/releaseAll from many
// goroutines with randomized overlapping declarations and asserts, per key,
// that at most one holder exists at a time. The keyspace is eight keys and
// the stripe mate of each, so declarations whose raw key order differs from
// their stripe order are common. Run under -race this is also the latch
// table's happens-before check; finishing before the deadline is the
// no-deadlock check.
func TestLatchStressMutualExclusion(t *testing.T) {
	const (
		workers = 8
		iters   = 2000
	)
	var keys []uint64
	for k := uint64(0); k < 8; k++ {
		keys = append(keys, k, stripeMate(k))
	}
	lt := new(latchTable)
	holders := make([]atomic.Int32, len(keys))
	var waits atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(uint64(id)+1, 0xabcd))
			var idx []uint64 // indexes into keys, deduplicated
			var d declaration
			for i := 0; i < iters; i++ {
				idx = idx[:0]
				d.pending = false
				for n := 1 + rng.IntN(4); n > 0; n-- {
					j := rng.Uint64N(uint64(len(keys)))
					idx = insertKey(idx, j)
					d.add(keys[j])
				}
				waits.Add(uint64(lt.acquireAll(d.keys)))
				for _, j := range idx {
					if h := holders[j].Add(1); h != 1 {
						t.Errorf("key %d has %d concurrent holders", keys[j], h)
					}
				}
				// Yield while holding so other workers pile onto the
				// stripes even on a single-P host.
				runtime.Gosched()
				for _, j := range idx {
					holders[j].Add(-1)
				}
				lt.releaseAll(d.keys)
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("stress run did not finish in 30 s: latch acquisition deadlocked")
	}
	if waits.Load() == 0 {
		t.Error("stress run never contended; the test is not exercising waits")
	}
	for _, k := range keys {
		if lt.holds(k) {
			t.Errorf("key %d still latched after the run", k)
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
// medley and on txmontage over 1, 2 and 8 devices, declaring them
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
		engine  string
		devices int
	}{{"medley", 0}, {"txmontage", 1}, {"txmontage", 2}, {"txmontage", 8}} {
		for _, decl := range []string{"hinted", "unhinted", "oversized"} {
			t.Run(fmt.Sprintf("%s/devices=%d/%s", e.engine, e.devices, decl), func(t *testing.T) {
				eng, err := Build(e.engine, Config{Shards: e.devices})
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
						rng := rand.New(rand.NewPCG(uint64(id)+1, uint64(e.devices)))
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
						rng := rand.New(rand.NewPCG(uint64(id)+77, uint64(e.devices)))
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
// Medley-family engines (medley, txmontage over 1 and 4 devices) where every
// count is exact: two distinct keys latch and count one footprint hit, two
// that share a stripe too (the stripe is locked once); one key (declared
// twice) neither latches nor counts; latchMaxKeys+1 keys count one and run
// unlatched; an undeclared Run does neither. However a Run is declared, its
// body runs once, and every stripe is free after it. Each Run has a deadline, so an attempt that locks a
// stripe twice fails the test instead of hanging it.
func TestShardedLatchedDeclarations(t *testing.T) {
	keys := []uint64{3, 5}
	shared := []uint64{keys[0], stripeMate(keys[0])}
	for _, e := range []struct {
		engine  string
		devices int
	}{{"medley", 0}, {"txmontage", 1}, {"txmontage", 4}} {
		t.Run(fmt.Sprintf("%s/devices=%d", e.engine, e.devices), func(t *testing.T) {
			eng, err := Build(e.engine, Config{Shards: e.devices})
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
				{"two keys, one stripe", shared, true, 1},
				{"latchMaxKeys+1 keys", append(oversizedHint()[2:], keys...), false, 1},
			} {
				base := eng.Stats()
				if c.hint != nil {
					HintKeys(tx, c.hint...)
				}
				execs, held := 0, 0
				done := make(chan error, 1)
				go func() {
					done <- tx.Run(func() error {
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
					})
				}()
				select {
				case err := <-done:
					if err != nil {
						t.Fatal(err)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("%s: Run did not finish in 5 s", c.name)
				}
				if latched := held > 0; latched != c.latched || (latched && held != len(c.hint)) {
					t.Errorf("%s: %d of its %d keys latched, want latched=%v", c.name, held, len(c.hint), c.latched)
				}
				if d := eng.Stats().Delta(base); d != (Stats{Commits: 1, FootprintHits: c.hits}) || execs != 1 {
					t.Errorf("%s: %+v in %d executions of the body, want one commit and %d footprint hits in one", c.name, d, execs, c.hits)
				}
				for _, k := range c.hint {
					if se.latch.holds(k) {
						t.Errorf("%s: key %d still latched after its Run", c.name, k)
					}
				}
			}
		})
	}
}
