package txengine

import (
	"errors"
	"runtime"
	"sync"
	"testing"
)

// TestStatsDeterministic pins the uniform accounting contract on every
// transactional engine: committed Runs move Commits exactly, business
// aborts move Aborts without a retry, RunRead counts as a commit, and NoTx
// moves Fallbacks exactly on the engines that must wrap it in a
// transaction.
func TestStatsDeterministic(t *testing.T) {
	eachTxEngine(t, func(t *testing.T, b Builder, eng Engine, m Map[uint64]) {
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

// TestShardedFootprintStats pins the sharded counters' contract on an idle
// engine, where every count is exact. FootprintHits/Misses move only on
// Runs that declared a multi-shard footprint; LatchFallbacks counts every
// attempt that came to span a second shard without latches — no declared
// keys, or an oversized declaration. However a Run finds its shards, its body
// runs once: a shard outside the attempt's set joins it, nothing re-executes.
func TestShardedFootprintStats(t *testing.T) {
	eng, err := Build("medley-sharded", Config{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	se := eng.(*shardedEngine)
	m, err := eng.NewUintMap(MapSpec{Kind: KindHash, Buckets: 256})
	if err != nil {
		t.Fatal(err)
	}
	keys := distinctShardKeys(t, se, 4, 0)
	same := keyOnShard(t, se, 0, keys[0]+1) // shares keys[0]'s shard
	tx := eng.NewWorker(0)
	touch := func(ks ...uint64) (execs int) {
		t.Helper()
		if err := tx.Run(func() error {
			execs++
			for _, k := range ks {
				v, _ := m.Get(tx, k)
				m.Put(tx, k, v+1)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return execs
	}
	for _, c := range []struct {
		name  string
		hint  []uint64
		touch []uint64
		want  Stats
	}{
		{"single-shard, undeclared", nil, []uint64{keys[0], same}, Stats{Commits: 1}},
		{"single-shard hint", []uint64{keys[0], same}, []uint64{keys[0], same}, Stats{Commits: 1}},
		{"hint holds", keys[:2], keys[:2], Stats{Commits: 1, FootprintHits: 1}},
		{"undeclared", nil, keys[:2], Stats{Commits: 1, LatchFallbacks: 1}},
		{"undeclared, three shards", nil, keys[:3], Stats{Commits: 1, LatchFallbacks: 1}},
		{"oversized hint", append(oversizedHint(), keys[:2]...), keys[:2], Stats{Commits: 1, FootprintHits: 1, LatchFallbacks: 1}},
		{"hint escaped", keys[:2], []uint64{keys[0], keys[2]}, Stats{Commits: 1, FootprintMisses: 1}}, // its latches stay held
		{"single-shard hint escaped", []uint64{keys[0]}, keys[:2], Stats{Commits: 1, LatchFallbacks: 1}},
	} {
		base := eng.Stats()
		if c.hint != nil {
			HintKeys(tx, c.hint...)
		}
		execs := touch(c.touch...)
		if d := eng.Stats().Delta(base); d != c.want || execs != 1 {
			t.Errorf("%s: %+v in %d executions of the body, want %+v in one", c.name, d, execs, c.want)
		}
	}
}

// TestRunAllocatesNothingInAdapter pins the adapter layer's own budget: a
// committed Run on the Medley family allocates nothing outside what core and
// the structures allocate for its writes — no counting closure, no method
// values — so a read-only Run, which core serves from the session's spare
// descriptor, allocates nothing at all. On the sharded decorator that holds
// for the single-shard path.
func TestRunAllocatesNothingInAdapter(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	for _, key := range []string{"medley", "txmontage", "medley-sharded", "txmontage-sharded"} {
		t.Run(key, func(t *testing.T) {
			b, _ := Lookup(key)
			eng, err := b.New(Config{})
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

// TestCrossShardRunAllocatesWhatOneShardDoes pins the sharded decorator's
// budget for a transaction that spans shards: nothing. It is the worker's one
// session on the engine's one manager either way, so an un-hinted transfer
// between two shards allocates exactly — count and bytes — what the same
// transfer does inside one shard: two mhash overwrites (node 24, deferred
// unlink 64, unlink cell 32, install cell 32), 8 allocations and 304 B, and
// nothing for the descriptor, which the session reuses. A committed
// read-only Run over two shards allocates 0.
func TestCrossShardRunAllocatesWhatOneShardDoes(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	eng, err := Build("medley-sharded", Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	se := eng.(*shardedEngine)
	m, err := eng.NewUintMap(MapSpec{Kind: KindHash, Buckets: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	from := keyOnShard(t, se, 0, 0)
	same := keyOnShard(t, se, 0, from+1)
	other := keyOnShard(t, se, 1, 0)
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
		run() // scratch, memo and base handles reach their steady state
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
	t.Logf("transfer: %d allocations / %d B on one shard, %d / %d over two", oneAllocs, oneBytes, twoAllocs, twoBytes)
	if oneAllocs != 2*4 || oneBytes != 2*152 || twoAllocs != oneAllocs || twoBytes != oneBytes {
		t.Errorf("a transfer over two shards allocates %d times / %d B, inside one shard %d times / %d B: want 8 / 304 B both", twoAllocs, twoBytes, oneAllocs, oneBytes)
	}
	if allocs, bytes := measure(func() error {
		m.Get(tx, from)
		m.Get(tx, other)
		return nil
	}); allocs != 0 || bytes != 0 {
		t.Errorf("a committed read-only Run over two shards allocates %d times / %d B, want 0", allocs, bytes)
	}
}
