package txengine

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
)

// TestStatsDeterministic pins the uniform accounting contract on every
// transactional engine: committed Runs move Commits exactly, business
// aborts move Aborts without a retry, RunRead counts as a commit, and NoTx
// moves Fallbacks exactly on the engines that must wrap it in a
// transaction. The engines run no epoch advancer (EpochLen 0): the test owns
// txMontage's clock, so no tick lands inside a commit it counts as
// uncontended and aborts it by validation.
func TestStatsDeterministic(t *testing.T) {
	eachTxEngineWith(t, Config{}, func(t *testing.T, b Builder, eng Engine, m Map[uint64]) {
		tx := eng.NewWorker(0)
		base := eng.Stats()

		for i := uint64(0); i < 5; i++ {
			if err := tx.Run(func() error { m.Put(tx, i, i); return nil }); err != nil {
				t.Fatal(err)
			}
		}
		d := eng.Stats().Delta(base)
		if d.Commits != 5 || d.Aborts != 0 || d.Retries != 0 {
			t.Fatalf("after 5 uncontended commits: %+v", d)
		}

		tx.RunRead(func() { m.Get(tx, 1) })
		if d := eng.Stats().Delta(base); d.Commits != 6 {
			t.Fatalf("RunRead did not count as a commit: %+v", d)
		}

		errBiz := errors.New("no funds")
		base = eng.Stats()
		if err := tx.Run(func() error { m.Put(tx, 9, 9); return errBiz }); !errors.Is(err, errBiz) {
			t.Fatalf("business abort returned %v", err)
		}
		if err := tx.Run(func() error { return tx.Abort() }); !errors.Is(err, ErrBusinessAbort) {
			t.Fatalf("Tx.Abort returned %v", err)
		}
		d = eng.Stats().Delta(base)
		if d.Commits != 0 || d.Aborts != 2 || d.Retries != 0 {
			t.Fatalf("after 2 business aborts: %+v", d)
		}

		base = eng.Stats()
		tx.NoTx(func() { m.Get(tx, 1) })
		d = eng.Stats().Delta(base)
		if b.Caps.Has(CapNoTx) {
			if d.Fallbacks != 0 {
				t.Fatalf("engine with CapNoTx counted a fallback: %+v", d)
			}
		} else if d.Fallbacks != 1 {
			t.Fatalf("engine without CapNoTx must count NoTx as a fallback: %+v", d)
		}
	})
}

// TestWorkersCountOnCellsOfTheirOwn: two workers of one engine bump two
// distinct counter cells, so no commit writes a line another worker writes,
// and Stats is the sum of the cells.
func TestWorkersCountOnCellsOfTheirOwn(t *testing.T) {
	eachTxEngine(t, func(t *testing.T, b Builder, eng Engine, m Map[uint64]) {
		a, c := eng.NewWorker(0), eng.NewWorker(1)
		ca, cc := cellOf(t, a), cellOf(t, c)
		if ca == cc {
			t.Fatal("two workers share one counter cell")
		}
		base := eng.Stats()
		for i := uint64(0); i < 3; i++ {
			if err := a.Run(func() error { m.Put(a, i, i); return nil }); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Run(func() error { m.Put(c, 9, 9); return nil }); err != nil {
			t.Fatal(err)
		}
		if ca.Commits != 3 || cc.Commits != 1 {
			t.Errorf("cells counted %d and %d commits, want 3 and 1", ca.Commits, cc.Commits)
		}
		if d := eng.Stats().Delta(base); d.Commits != 4 {
			t.Errorf("Stats counted %d commits, want 4: %v", d.Commits, d)
		}
	})
}

// cellOf returns the counter cell a worker bumps.
func cellOf(t *testing.T, tx Tx) *Stats {
	t.Helper()
	switch x := tx.(type) {
	case *sessionTx:
		return x.ct
	case *boostTx:
		return x.ct
	case *tdslTx:
		return x.ct
	case *lfttTx:
		return x.ct
	case *onefileTx:
		return x.ct
	}
	t.Fatalf("no counter cell known for %T", tx)
	return nil
}

// TestStatsUnderConflict forces transaction conflicts and asserts the
// counters move coherently. For the optimistic read-validated engines
// (Medley, txMontage, TDSL) a conflicting write is interposed between a
// transaction's read and its commit, which must produce at least one abort
// and one retry deterministically. For every engine, a concurrent increment
// hammer must commit each Run exactly once — Commits is exact even when
// retries happen underneath.
func TestStatsUnderConflict(t *testing.T) {
	forced := map[string]bool{"medley": true, "txmontage": true, "tdsl": true}
	eachTxEngine(t, func(t *testing.T, b Builder, eng Engine, m Map[uint64]) {
		if forced[b.Key] {
			const k = uint64(77)
			tx := eng.NewWorker(0)
			m.Put(tx, k, 1)
			base := eng.Stats()
			readDone := make(chan struct{})
			writeDone := make(chan struct{})
			go func() {
				<-readDone
				w2 := eng.NewWorker(1)
				m.Put(w2, k, 100)
				close(writeDone)
			}()
			attempt := 0
			if err := tx.Run(func() error {
				attempt++
				v, _ := m.Get(tx, k)
				if attempt == 1 {
					close(readDone)
					<-writeDone // the read is now stale; commit must fail
				}
				m.Put(tx, k, v+1)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			// The interposing standalone Put itself counts as a one-shot
			// commit on engines that wrap standalone ops (TDSL), so Commits
			// is a lower bound here.
			d := eng.Stats().Delta(base)
			if d.Commits < 1 || d.Aborts < 1 || d.Retries < 1 {
				t.Fatalf("forced conflict not counted: %+v (fn ran %d times)", d, attempt)
			}
		}

		// Concurrent increments: every Run commits exactly once.
		const (
			workers = 4
			iters   = 300
			hot     = uint64(5)
		)
		init := eng.NewWorker(10)
		m.Put(init, hot, 0)
		base := eng.Stats()
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				tx := eng.NewWorker(11 + w)
				for i := 0; i < iters; i++ {
					if err := tx.Run(func() error {
						v, _ := m.Get(tx, hot)
						m.Put(tx, hot, v+1)
						return nil
					}); err != nil {
						t.Errorf("increment: %v", err)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		d := eng.Stats().Delta(base)
		if d.Commits != workers*iters {
			t.Fatalf("commits %d != %d Runs (aborts=%d retries=%d)",
				d.Commits, workers*iters, d.Aborts, d.Retries)
		}
		if d.Retries > d.Aborts {
			t.Fatalf("retries %d > aborts %d", d.Retries, d.Aborts)
		}
		if !b.Caps.Has(CapDynamicTx) {
			return // static engines cannot read-modify-write; skip the sum check
		}
		final := eng.NewWorker(99)
		if v, _ := m.Get(final, hot); v != workers*iters {
			t.Fatalf("hot key = %d, want %d: lost increments", v, workers*iters)
		}
	})
}

// TestRunAllocatesNothingInAdapter pins the adapter layer's own budget: a
// committed Run on the Medley family allocates nothing outside what core and
// the structures allocate for its writes — no counting closure, no method
// values — so a read-only Run, which core serves from the session's spare
// descriptor, allocates nothing at all, on one device or several.
func TestRunAllocatesNothingInAdapter(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	for _, tc := range []struct {
		key     string
		devices int
	}{{"medley", 0}, {"medley-sharded", 0}, {"txmontage", 1}, {"txmontage", 4}} {
		t.Run(fmt.Sprintf("%s/devices=%d", tc.key, tc.devices), func(t *testing.T) {
			eng, err := Build(tc.key, Config{Shards: tc.devices})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			m, err := eng.NewUintMap(MapSpec{Kind: KindHash, Buckets: 64})
			if err != nil {
				t.Fatal(err)
			}
			tx := eng.NewWorker(0)
			m.Put(tx, 1, 1)
			body := func() error {
				m.Get(tx, 1)
				m.Get(tx, 1)
				return nil
			}
			run := func() {
				if err := tx.Run(body); err != nil {
					t.Fatal(err)
				}
			}
			run()
			if got := testing.AllocsPerRun(100, run); got != 0 {
				t.Fatalf("a committed read-only Run allocates %v times, want 0", got)
			}
		})
	}
}

// TestCrossShardRunAllocatesWhatOneShardDoes pins what a second device adds
// to a transaction: nothing. It is the worker's one session on the engine's
// one manager and one index either way, so on txmontage an un-hinted
// transfer between keys on two devices allocates as many times as the same
// transfer between keys on one (the bytes differ by the amortized growth of
// each device's epoch batches). On medley a transfer is two mhash overwrites
// (node 48 with the cell its unlink publishes, install cell 24; the unlink
// itself is a record in the session's cleanup slice), 4 allocations and
// 144 B, and nothing for the descriptor, which the session reuses. On
// txmontage an overwrite allocates what it does on medley: its payload is
// encoded into the session's epoch context and copied into the device's line,
// and the payload's undo and its predecessor's retirement are entries in
// that context, so a transfer is 4 allocations on one device and on two
// (while a line kept its payload as a slice, each overwrite allocated its
// 8-byte encoding: 6). A committed read-only Run allocates 0 on both.
func TestCrossShardRunAllocatesWhatOneShardDoes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	for _, engine := range []string{"medley", "txmontage"} {
		t.Run(engine, func(t *testing.T) {
			eng, err := Build(engine, Config{Shards: 4})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			se := eng.(*medleyEngine)
			m, err := eng.NewUintMap(MapSpec{Kind: KindHash, Buckets: 1 << 12})
			if err != nil {
				t.Fatal(err)
			}
			from, same, other := uint64(0), uint64(1), uint64(2)
			if se.dom != nil {
				from = keyOnDevice(t, se, 0, 0)
				same = keyOnDevice(t, se, 0, from+1)
				other = keyOnDevice(t, se, 1, 0)
			}
			tx := eng.NewWorker(0)
			for _, k := range []uint64{from, same, other} {
				m.Put(tx, k, 1<<40)
			}
			measure := func(body func() error) (allocs, bytes uint64) {
				run := func() {
					if err := tx.Run(body); err != nil {
						t.Fatal(err)
					}
				}
				// The session's scratch and the devices' slabs reach their
				// steady state: records the Sync frees are reused below.
				for i := 0; i < 1000; i++ {
					run()
				}
				se.Sync()
				run()
				const n = 200
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for i := 0; i < n; i++ {
					run()
				}
				runtime.ReadMemStats(&after)
				return (after.Mallocs - before.Mallocs) / n, (after.TotalAlloc - before.TotalAlloc) / n
			}
			transfer := func(to uint64) func() error {
				return func() error {
					v, _ := m.Get(tx, from)
					m.Put(tx, from, v-1)
					w, _ := m.Get(tx, to)
					m.Put(tx, to, w+1)
					return nil
				}
			}
			oneAllocs, oneBytes := measure(transfer(same))
			twoAllocs, twoBytes := measure(transfer(other))
			t.Logf("transfer: %d allocations / %d B on one device, %d / %d over two", oneAllocs, oneBytes, twoAllocs, twoBytes)
			if twoAllocs != oneAllocs {
				t.Errorf("a transfer over two devices allocates %d times, on one device %d times: want the same", twoAllocs, oneAllocs)
			}
			if se.dom == nil && (oneAllocs != 2*2 || oneBytes != 2*72 || twoBytes != oneBytes) {
				t.Errorf("a transfer allocates %d times / %d B and %d times / %d B: want 4 / 144 B both", oneAllocs, oneBytes, twoAllocs, twoBytes)
			}
			if se.dom != nil && oneAllocs != 2*2 {
				t.Errorf("a transfer allocates %d times on one device, want 4", oneAllocs)
			}
			if allocs, bytes := measure(func() error {
				m.Get(tx, from)
				m.Get(tx, other)
				return nil
			}); allocs != 0 || bytes != 0 {
				t.Errorf("a committed read-only Run over two devices allocates %d times / %d B, want 0", allocs, bytes)
			}
		})
	}
}
