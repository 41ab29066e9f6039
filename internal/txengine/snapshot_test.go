package txengine

import (
	"fmt"
	"maps"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"medley/internal/history"
	"medley/internal/pnvm"
)

// snapEngines enumerates the CapSnapshot engines the suite sweeps: medley and
// txmontage, then txmontage at each device count, so the one-timestamp
// property of commits over several devices (latched ones included) is
// exercised alongside the one-device path. medley-sharded, the alias of
// medley the benchmark builds with a device count, runs at each count too:
// whatever Config.Shards says, it is medley.
func snapEngines(t *testing.T, deviceCounts []int, f func(t *testing.T, eng Engine)) {
	for _, key := range []string{"medley", "txmontage"} {
		b, ok := Lookup(key)
		if !ok {
			t.Fatalf("registry missing %q", key)
		}
		t.Run(key, func(t *testing.T) {
			eng := buildForTest(t, b)
			defer eng.Close()
			f(t, eng)
		})
	}
	for _, key := range []string{"medley-sharded", "txmontage"} {
		for _, devices := range deviceCounts {
			t.Run(fmt.Sprintf("%s/devices=%d", key, devices), func(t *testing.T) {
				eng, err := Build(key, Config{EpochLen: 2 * time.Millisecond, Shards: devices})
				if err != nil {
					t.Fatal(err)
				}
				defer eng.Close()
				f(t, eng)
			})
		}
	}
}

// TestSnapshotCapsGate pins the capability contract: SnapshotRead succeeds
// exactly on CapSnapshot engines and is a false-returning no-op everywhere
// else, so portable workload code can attempt it unconditionally. It also
// checks the Medley family actually advertises the capability.
func TestSnapshotCapsGate(t *testing.T) {
	for _, key := range []string{"medley", "txmontage", "medley-sharded"} {
		if b, ok := Lookup(key); !ok || !b.Caps.Has(CapSnapshot) {
			t.Errorf("%s must advertise CapSnapshot", key)
		}
	}
	for _, b := range sweptBuilders() {
		b := b
		t.Run(b.Key, func(t *testing.T) {
			eng := buildForTest(t, b)
			defer eng.Close()
			tx := eng.NewWorker(0)
			ran := false
			got := SnapshotRead(tx, func() { ran = true })
			want := b.Caps.Has(CapSnapshot)
			if got != want {
				t.Fatalf("SnapshotRead = %v, want %v (caps %b)", got, want, b.Caps)
			}
			if ran != want {
				t.Fatalf("fn ran = %v, want %v", ran, want)
			}
			st := eng.Stats()
			if want && st.SnapshotReads != 1 {
				t.Fatalf("SnapshotReads = %d after one snapshot, want 1", st.SnapshotReads)
			}
			if !want && st.SnapshotReads != 0 {
				t.Fatalf("SnapshotReads = %d on a non-snapshot engine", st.SnapshotReads)
			}
		})
	}
}

// TestSnapshotNeverTorn is the headline consistency test: writers transfer
// between a checking map and a savings map (two maps, one transaction — the
// cross-abstraction composition the paper argues for) while snapshot readers
// sum every account in both maps. The modular total is invariant under
// transfers, so any deviation means the snapshot observed half a transfer: a
// torn cut. Runs over 1, 2 and 8 devices so cross-device commits are covered.
//
// With readers=mid-run the readers wait until the writers are a quarter of
// the way through, so the first snapshot starts the tier under their
// traffic: every commit before it published nothing.
func TestSnapshotNeverTorn(t *testing.T) {
	const (
		accounts = 96
		perAcct  = uint64(1000)
		writers  = 4
		readers  = 2
		iters    = 1200
	)
	eachReaderStart(t, []int{1, 2, 8}, func(t *testing.T, eng Engine, late bool) {
		spec := MapSpec{Kind: KindHash, Buckets: 256}
		checking, err := eng.NewUintMap(spec)
		if err != nil {
			t.Fatal(err)
		}
		savings, err := eng.NewUintMap(spec)
		if err != nil {
			t.Fatal(err)
		}
		init := eng.NewWorker(0)
		const chunk = 32
		for lo := uint64(0); lo < accounts; lo += chunk {
			lo := lo
			if err := init.Run(func() error {
				for a := lo; a < lo+chunk && a < accounts; a++ {
					checking.Put(init, a, perAcct)
					savings.Put(init, a, perAcct)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		want := 2 * accounts * perAcct // modular sum, invariant under transfers

		var done atomic.Bool
		var progress atomic.Int64
		var wWg, rWg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wWg.Add(1)
			go func(w int) {
				defer wWg.Done()
				tx := eng.NewWorker(1 + w)
				rng := rand.New(rand.NewPCG(uint64(w)+1, 7))
				for i := 0; i < iters; i++ {
					from := rng.Uint64N(accounts)
					to := rng.Uint64N(accounts)
					amt := uint64(rng.IntN(20) + 1)
					if err := tx.Run(func() error {
						c, _ := checking.Get(tx, from)
						s, _ := savings.Get(tx, to)
						checking.Put(tx, from, c-amt)
						savings.Put(tx, to, s+amt)
						return nil
					}); err != nil {
						t.Errorf("transfer: %v", err)
						return
					}
					progress.Add(1)
				}
			}(w)
		}
		for r := 0; r < readers; r++ {
			rWg.Add(1)
			go func(r int) {
				defer rWg.Done()
				tx := eng.NewWorker(1 + writers + r)
				awaitProgress(late, &progress, writers*iters/4)
				for first := true; first || !done.Load(); first = false {
					sum := uint64(0)
					missing := 0
					if !SnapshotRead(tx, func() {
						for a := uint64(0); a < accounts; a++ {
							c, ok := checking.Get(tx, a)
							if !ok {
								missing++
							}
							s, ok2 := savings.Get(tx, a)
							if !ok2 {
								missing++
							}
							sum += c + s
						}
					}) {
						t.Error("SnapshotRead refused on a CapSnapshot engine")
						return
					}
					if missing != 0 {
						t.Errorf("snapshot missed %d preloaded accounts", missing)
						return
					}
					if sum != want {
						t.Errorf("torn snapshot: modular sum %d, want %d", sum, want)
						return
					}
				}
			}(r)
		}
		// Writers bound the run; readers spin until they finish.
		wWg.Wait()
		done.Store(true)
		rWg.Wait()

		// Post-quiesce: a fresh snapshot must see the final balances exactly
		// (the seal catches up once no commit is in flight).
		tx := eng.NewWorker(1 + writers + readers)
		sum := uint64(0)
		SnapshotRead(tx, func() {
			for a := uint64(0); a < accounts; a++ {
				c, _ := checking.Get(tx, a)
				s, _ := savings.Get(tx, a)
				sum += c + s
			}
		})
		if sum != want {
			t.Fatalf("post-quiesce snapshot sum %d, want %d", sum, want)
		}
		if st := eng.Stats(); st.SnapshotReads == 0 {
			t.Fatal("no snapshot reads counted")
		}
	})
}

// eachReaderStart is snapEngines twice: with snapshot readers that start
// with the writers (the tier starts before the first commit) and with readers
// that start mid-run (late: the tier starts under the writers' traffic).
func eachReaderStart(t *testing.T, deviceCounts []int, f func(t *testing.T, eng Engine, late bool)) {
	for _, late := range []bool{false, true} {
		name := "readers=from-start"
		if late {
			name = "readers=mid-run"
		}
		t.Run(name, func(t *testing.T) {
			snapEngines(t, deviceCounts, func(t *testing.T, eng Engine) { f(t, eng, late) })
		})
	}
}

// awaitProgress holds a late reader back until the writers have committed
// enough transactions.
func awaitProgress(late bool, progress *atomic.Int64, enough int) {
	for late && progress.Load() < int64(enough) {
		time.Sleep(100 * time.Microsecond)
	}
}

// TestSnapshotZeroAbort is the bugfix's core claim, stated as exact stats:
// after the engine quiesces, K snapshot reads account for exactly K commits,
// K snapshot reads, zero aborts, zero retries, and zero stale cuts. Snapshot
// reads never abort or restart — structurally, there is no retry loop to
// take — and the stats must say so.
func TestSnapshotZeroAbort(t *testing.T) {
	const contendedOps = 300
	snapEngines(t, []int{4}, func(t *testing.T, eng Engine) {
		m, err := eng.NewUintMap(MapSpec{Kind: KindHash, Buckets: 64})
		if err != nil {
			t.Fatal(err)
		}
		// A contended write phase first, so the snapshot phase runs against
		// an engine with history (non-trivial chains, advanced clock).
		var wg sync.WaitGroup
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				tx := eng.NewWorker(w)
				for i := 0; i < contendedOps; i++ {
					k := uint64(i % 8) // hot keys: force conflicts
					if err := tx.Run(func() error {
						v, _ := m.Get(tx, k)
						m.Put(tx, k, v+1)
						return nil
					}); err != nil {
						t.Errorf("write: %v", err)
						return
					}
				}
			}(w)
		}
		wg.Wait()

		const K = 200
		base := eng.Stats()
		tx := eng.NewWorker(5)
		for i := 0; i < K; i++ {
			if !SnapshotRead(tx, func() {
				for k := uint64(0); k < 8; k++ {
					m.Get(tx, k)
				}
			}) {
				t.Fatal("SnapshotRead refused")
			}
		}
		d := eng.Stats().Delta(base)
		if d.SnapshotReads != K {
			t.Errorf("SnapshotReads = %d, want %d", d.SnapshotReads, K)
		}
		if d.Commits != K {
			t.Errorf("Commits = %d, want %d (each snapshot is one committed txn)", d.Commits, K)
		}
		if d.Aborts != 0 || d.Retries != 0 {
			t.Errorf("snapshot reads aborted: aborts=%d retries=%d, want 0/0", d.Aborts, d.Retries)
		}
		if d.SnapshotStale != 0 {
			t.Errorf("SnapshotStale = %d on a quiesced engine, want 0", d.SnapshotStale)
		}
	})
}

// TestSnapshotFreshness checks the seal keeps up: on a quiesced engine a
// snapshot taken after a committed write observes that write (no unbounded
// staleness), removals read as absent, and values a single writer only ever
// increments can never appear to decrease across successive snapshots.
func TestSnapshotFreshness(t *testing.T) {
	snapEngines(t, []int{2}, func(t *testing.T, eng Engine) {
		m, err := eng.NewUintMap(MapSpec{Kind: KindHash, Buckets: 64})
		if err != nil {
			t.Fatal(err)
		}
		tx := eng.NewWorker(0)
		if err := tx.Run(func() error { m.Put(tx, 1, 42); return nil }); err != nil {
			t.Fatal(err)
		}
		var v uint64
		var ok bool
		SnapshotRead(tx, func() { v, ok = m.Get(tx, 1) })
		if !ok || v != 42 {
			t.Fatalf("snapshot after commit: got (%d,%v), want (42,true)", v, ok)
		}
		if err := tx.Run(func() error { m.Put(tx, 1, 43); return nil }); err != nil {
			t.Fatal(err)
		}
		SnapshotRead(tx, func() { v, ok = m.Get(tx, 1) })
		if !ok || v != 43 {
			t.Fatalf("snapshot after overwrite: got (%d,%v), want (43,true)", v, ok)
		}
		if err := tx.Run(func() error { m.Remove(tx, 1); return nil }); err != nil {
			t.Fatal(err)
		}
		SnapshotRead(tx, func() { _, ok = m.Get(tx, 1) })
		if ok {
			t.Fatal("snapshot after remove still sees the key")
		}

		// Monotonicity under concurrency: one writer increments, one reader
		// snapshots; observed values must never go backwards.
		const steps = 400
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			w := eng.NewWorker(1)
			for i := 0; i < steps; i++ {
				if err := w.Run(func() error {
					v, _ := m.Get(w, 2)
					m.Put(w, 2, v+1)
					return nil
				}); err != nil {
					t.Errorf("increment: %v", err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			r := eng.NewWorker(2)
			last := uint64(0)
			for i := 0; i < steps; i++ {
				var cur uint64
				SnapshotRead(r, func() { cur, _ = m.Get(r, 2) })
				if cur < last {
					t.Errorf("snapshot counter went backwards: %d after %d", cur, last)
					return
				}
				last = cur
			}
		}()
		wg.Wait()
	})
}

// TestSnapshotWriteDenied pins the read-only contract: map writes and queue
// operations inside SnapshotRead panic rather than corrupt the cut.
func TestSnapshotWriteDenied(t *testing.T) {
	mustPanic := func(t *testing.T, what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s inside SnapshotRead did not panic", what)
			}
		}()
		f()
	}
	snapEngines(t, []int{2}, func(t *testing.T, eng Engine) {
		m, err := eng.NewUintMap(MapSpec{Kind: KindHash, Buckets: 64})
		if err != nil {
			t.Fatal(err)
		}
		q, err := eng.NewUintQueue()
		if err != nil {
			t.Fatal(err)
		}
		tx := eng.NewWorker(0)
		mustPanic(t, "Put", func() { SnapshotRead(tx, func() { m.Put(tx, 1, 1) }) })
		mustPanic(t, "Insert", func() { SnapshotRead(tx, func() { m.Insert(tx, 1, 1) }) })
		mustPanic(t, "Remove", func() { SnapshotRead(tx, func() { m.Remove(tx, 1) }) })
		mustPanic(t, "Enqueue", func() { SnapshotRead(tx, func() { q.Enqueue(tx, 1) }) })
		mustPanic(t, "Dequeue", func() { SnapshotRead(tx, func() { q.Dequeue(tx) }) })
		// The handle must remain usable after a denied write: the pin is
		// released on the way out of the panic.
		if err := tx.Run(func() error { m.Put(tx, 9, 9); return nil }); err != nil {
			t.Fatalf("handle unusable after denied write: %v", err)
		}
		var v uint64
		SnapshotRead(tx, func() { v, _ = m.Get(tx, 9) })
		if v != 9 {
			t.Fatalf("snapshot after recovery from panic: got %d, want 9", v)
		}
	})
}

// TestSnapshotRecovery: a recovered map starts like any other, so the first
// snapshot on a fresh post-crash engine — whose start scans the recovered map
// — observes every recovered key (a chain miss means "absent at the cut":
// falling back to the inner map would tear), and every write made between
// recovery and that snapshot, transactional or standalone. A map recovered
// into a tier some snapshot has already started is seeded as it joins.
func TestSnapshotRecovery(t *testing.T) {
	const n = uint64(100)
	for _, tc := range []struct {
		key     string
		devices int
		started bool // a snapshot started the fresh engine's tier before recovery
	}{
		{"txmontage", 0, false},
		{"txmontage", 2, false},
		{"txmontage", 8, false},
		{"txmontage", 0, true},
		{"txmontage", 2, true},
	} {
		tc := tc
		name := tc.key
		if tc.devices > 0 {
			name = fmt.Sprintf("%s/devices=%d", tc.key, tc.devices)
		}
		if tc.started {
			name += "/tier-started-before-recovery"
		}
		t.Run(name, func(t *testing.T) {
			b, ok := Lookup(tc.key)
			if !ok {
				t.Fatalf("registry missing %q", tc.key)
			}
			eng, err := b.New(Config{EpochLen: 2 * time.Millisecond, Shards: tc.devices})
			if err != nil {
				t.Fatal(err)
			}
			p := eng.(Persister)
			devs := p.Devices()
			spec := MapSpec{Kind: KindHash, Buckets: 256}
			m, err := eng.NewUintMap(spec)
			if err != nil {
				t.Fatal(err)
			}
			tx := eng.NewWorker(0)
			const chunk = 25
			for lo := uint64(0); lo < n; lo += chunk {
				lo := lo
				if err := tx.Run(func() error {
					for k := lo; k < lo+chunk; k++ {
						m.Put(tx, k, k*7+3)
					}
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			}
			p.Sync()
			eng.Close()
			dumps := pnvm.DumpAll(devs)

			eng2, err := b.New(Config{EpochLen: 2 * time.Millisecond, Shards: tc.devices, Devices: devs})
			if err != nil {
				t.Fatalf("rebuild: %v", err)
			}
			defer eng2.Close()
			if tc.started && !SnapshotRead(eng2.NewWorker(1), func() {}) {
				t.Fatal("SnapshotRead refused on the fresh engine")
			}
			rm, err := eng2.(Persister).RecoverUintMap(dumps, spec)
			if err != nil {
				t.Fatal(err)
			}
			tx2 := eng2.NewWorker(0)
			if err := tx2.Run(func() error {
				rm.Put(tx2, 0, 500)
				rm.Remove(tx2, 1)
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			rm.Put(tx2, n, 77)
			rm.Remove(tx2, 2)
			want := map[uint64]uint64{0: 500, n: 77}
			for k := uint64(3); k < n; k++ {
				want[k] = k*7 + 3
			}
			got := map[uint64]uint64{}
			if !SnapshotRead(tx2, func() {
				for k := uint64(0); k <= n; k++ {
					if v, ok := rm.Get(tx2, k); ok {
						got[k] = v
					}
				}
			}) {
				t.Fatal("SnapshotRead refused on recovered engine")
			}
			if !maps.Equal(got, want) {
				t.Fatalf("first snapshot after recovery and writes:\n got  %v\n want %v", got, want)
			}
			// New writes after recovery must be snapshot-visible too: the
			// recovered chains and the live tier share one clock.
			if err := tx2.Run(func() error { rm.Put(tx2, 0, 999); return nil }); err != nil {
				t.Fatal(err)
			}
			var v uint64
			SnapshotRead(tx2, func() { v, _ = rm.Get(tx2, 0) })
			if v != 999 {
				t.Fatalf("post-recovery write invisible to snapshot: got %d, want 999", v)
			}
		})
	}
}

// TestSnapshotFuzzModel: writers run transactions that read two of 48 shared
// keys and write both, with values no other write repeats, while two readers
// take up to 200 snapshots each of random ranges of 16 keys, from the start
// or from a quarter of the way in, when their first snapshot starts the tier;
// then a snapshot and a read of every key. Once the tier is on every commit
// carries its stamp and every snapshot its cut, and the checker replays the
// history key by key in timestamp order: strict serializability of the
// transactions, every snapshot the committed state at its cut (a torn cut or
// a version published below the seal shows as a snapshot read no order
// allows).
func TestSnapshotFuzzModel(t *testing.T) {
	const (
		workers = 4
		keys    = uint64(48)
		iters   = 700
	)
	eachReaderStart(t, []int{1, 2, 8}, func(t *testing.T, eng Engine, late bool) {
		m, err := eng.NewUintMap(MapSpec{Kind: KindHash, Buckets: 512})
		if err != nil {
			t.Fatal(err)
		}
		var rec history.Recorder
		init := eng.NewWorker(0)
		for k := range keys {
			if err := runOps(&rec, 0, m, init, []history.Op{{Kind: history.Put, Key: k, Arg: 1}}, false, nil); err != nil {
				t.Fatal(err)
			}
		}
		var done atomic.Bool
		var progress atomic.Int64
		var writers, readers sync.WaitGroup
		for w := range workers {
			writers.Add(1)
			go func() {
				defer writers.Done()
				tx := eng.NewWorker(1 + w)
				rng := rand.New(rand.NewPCG(uint64(w)+11, 13))
				val := uint64(w+1) << 32
				for range iters {
					a := rng.Uint64N(keys)
					b := (a + 1 + rng.Uint64N(keys-1)) % keys
					val += 2
					ops := []history.Op{
						{Kind: history.Get, Key: a}, {Kind: history.Get, Key: b},
						{Kind: history.Put, Key: a, Arg: val - 1}, {Kind: history.Put, Key: b, Arg: val},
					}
					if err := runOps(&rec, 1+w, m, tx, ops, false, nil); err != nil {
						t.Errorf("worker %d: %v", w, err)
						return
					}
					progress.Add(1)
				}
			}()
		}
		for r := range 2 {
			readers.Add(1)
			go func() {
				defer readers.Done()
				tx := eng.NewWorker(1 + workers + r)
				rng := rand.New(rand.NewPCG(uint64(r)+101, 17))
				awaitProgress(late, &progress, workers*iters/4)
				for i := 0; i < 200 && (i == 0 || !done.Load()); i++ {
					lo := rng.Uint64N(keys - 16)
					rangeKeys := make([]uint64, 16)
					for i := range rangeKeys {
						rangeKeys[i] = lo + uint64(i)
					}
					snapshotOps(&rec, 1+workers+r, m, tx, rangeKeys)
				}
			}()
		}
		writers.Wait()
		done.Store(true)
		readers.Wait()
		tx := eng.NewWorker(3 + workers)
		all := make([]uint64, keys)
		for k := range all {
			all[k] = uint64(k)
		}
		snapshotOps(&rec, 3+workers, m, tx, all)
		if err := readAll(&rec, 3+workers, m, tx, keys); err != nil {
			t.Fatal(err)
		}
		if err := history.CheckKeys(rec.Events()); err != nil {
			t.Fatal(err)
		}
	})
}
