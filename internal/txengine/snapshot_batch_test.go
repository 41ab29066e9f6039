package txengine

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"testing"
)

// TestSnapshotReadBatchOneCut pins the batched entry point's contract: all n
// closures of one SnapshotReadBatch call run against the same pinned cut
// (the cut argument is identical across them, and no closure can observe a
// transfer half-applied even while writers churn), and the call accounts n
// snapshot-read transactions — one per closure, not one per pin.
func TestSnapshotReadBatchOneCut(t *testing.T) {
	const (
		pairs   = 32
		perKey  = uint64(1000)
		writers = 3
		iters   = 800
		batchN  = 5
	)
	snapEngines(t, []int{1, 4}, func(t *testing.T, eng Engine) {
		m, err := eng.NewUintMap(MapSpec{Kind: KindHash, Buckets: 256})
		if err != nil {
			t.Fatal(err)
		}
		init := eng.NewWorker(0)
		if err := init.Run(func() error {
			for k := uint64(0); k < 2*pairs; k++ {
				m.Put(init, k, perKey)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}

		var done atomic.Bool
		var wWg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wWg.Add(1)
			go func(w int) {
				defer wWg.Done()
				tx := eng.NewWorker(1 + w)
				rng := rand.New(rand.NewPCG(uint64(w)+11, 3))
				for i := 0; i < iters; i++ {
					p := rng.Uint64N(pairs)
					if err := tx.Run(func() error {
						a, _ := m.Get(tx, 2*p)
						b, _ := m.Get(tx, 2*p+1)
						m.Put(tx, 2*p, a-1)
						m.Put(tx, 2*p+1, b+1)
						return nil
					}); err != nil {
						t.Errorf("transfer: %v", err)
						return
					}
				}
			}(w)
		}

		reader := eng.NewWorker(1 + writers)
		batches := 0
		for !done.Load() {
			var cuts [batchN]uint64
			cut, ok := SnapshotReadBatch(reader, batchN, func(i int, cut uint64) {
				cuts[i] = cut
				p := uint64((batches + i) % pairs)
				a, okA := m.Get(reader, 2*p)
				b, okB := m.Get(reader, 2*p+1)
				if !okA || !okB {
					t.Errorf("closure %d missed preloaded keys", i)
					return
				}
				if a+b != 2*perKey {
					t.Errorf("torn batch read: pair %d sum %d, want %d", p, a+b, 2*perKey)
				}
			}, // one pinned cut serves every closure
			)
			if !ok {
				t.Fatal("SnapshotReadBatch refused on a CapSnapshot engine")
			}
			for i := range cuts {
				if cuts[i] != cut {
					t.Fatalf("closure %d ran at cut %d, batch cut %d", i, cuts[i], cut)
				}
			}
			batches++
			if batches >= 200 {
				done.Store(true)
			}
		}
		wWg.Wait()

		// Counting contract: each closure is one snapshot-read transaction.
		// The engine has quiesced, so the totals are exact.
		st := eng.Stats()
		if want := uint64(batches * batchN); st.SnapshotReads < want {
			t.Fatalf("SnapshotReads %d, want at least %d (batches count per closure)", st.SnapshotReads, want)
		}
	})
}

// TestSnapshotReadBatchGate: engines without a snapshot tier refuse the
// batched entry point with ok=false and run nothing, mirroring SnapshotRead.
func TestSnapshotReadBatchGate(t *testing.T) {
	for _, b := range Builders() {
		if b.Caps.Has(CapSnapshot) {
			continue
		}
		t.Run(b.Key, func(t *testing.T) {
			eng := buildForTest(t, b)
			defer eng.Close()
			tx := eng.NewWorker(1)
			ran := false
			if _, ok := SnapshotReadBatch(tx, 3, func(int, uint64) { ran = true }); ok || ran {
				t.Fatalf("%s: batched snapshot read must refuse (ok=%v ran=%v)", b.Key, ok, ran)
			}
		})
	}
}

// TestLastCommitTS pins the read-your-writes watermark the serving tier
// leans on: zero before a handle's first write, and zero until the engine's
// first snapshot has started the tier (writes publish nothing before, and
// every cut covers them); then advancing with each of the handle's commits
// (transactional or standalone), untouched by reads, and a quiesced snapshot
// cut reaches it — so a cut that passes the watermark is guaranteed to
// contain the handle's newest write.
func TestLastCommitTS(t *testing.T) {
	snapEngines(t, []int{2}, func(t *testing.T, eng Engine) {
		m, err := eng.NewUintMap(MapSpec{Kind: KindHash, Buckets: 64})
		if err != nil {
			t.Fatal(err)
		}
		tx := eng.NewWorker(1)
		if ts := LastCommitTS(tx); ts != 0 {
			t.Fatalf("fresh handle watermark %d, want 0", ts)
		}
		if err := tx.Run(func() error { m.Put(tx, 1, 5); return nil }); err != nil {
			t.Fatal(err)
		}
		m.Put(tx, 3, 30)
		if ts := LastCommitTS(tx); ts != 0 {
			t.Fatalf("watermark %d before the tier started, want 0", ts)
		}
		if _, ok := SnapshotReadBatch(tx, 1, func(_ int, cut uint64) {
			if v, found := m.Get(tx, 1); !found || v != 5 {
				t.Errorf("first cut %d missed a write from before the start", cut)
			}
			if v, found := m.Get(tx, 3); !found || v != 30 {
				t.Errorf("first cut %d missed a standalone write from before the start", cut)
			}
		}); !ok {
			t.Fatal("SnapshotReadBatch refused")
		}
		if err := tx.Run(func() error { m.Put(tx, 1, 10); return nil }); err != nil {
			t.Fatal(err)
		}
		ts1 := LastCommitTS(tx)
		if ts1 == 0 {
			t.Fatal("watermark did not advance on a transactional write")
		}
		// Reads leave the watermark alone.
		if err := tx.Run(func() error { m.Get(tx, 1); return nil }); err != nil {
			t.Fatal(err)
		}
		if ts := LastCommitTS(tx); ts != ts1 {
			t.Fatalf("read moved the watermark %d -> %d", ts1, ts)
		}
		// A standalone (auto-committed) write advances it too.
		m.Put(tx, 2, 20)
		ts2 := LastCommitTS(tx)
		if ts2 <= ts1 {
			t.Fatalf("standalone write watermark %d, want > %d", ts2, ts1)
		}
		// Quiesced, a snapshot cut must reach the watermark and contain the
		// write it names.
		cut, ok := SnapshotReadBatch(tx, 1, func(_ int, cut uint64) {
			if v, found := m.Get(tx, 2); !found || v != 20 {
				t.Errorf("cut %d missed the handle's newest write", cut)
			}
		})
		if !ok {
			t.Fatal("SnapshotReadBatch refused")
		}
		if cut < ts2 {
			t.Fatalf("quiesced cut %d below watermark %d", cut, ts2)
		}
	})
	// Engines without the tier report 0: callers treat it as "no watermark".
	for _, b := range Builders() {
		if b.Caps.Has(CapSnapshot) {
			continue
		}
		eng := buildForTest(t, b)
		tx := eng.NewWorker(1)
		if ts := LastCommitTS(tx); ts != 0 {
			t.Errorf("%s: LastCommitTS %d, want 0 without a tier", b.Key, ts)
		}
		eng.Close()
	}
}
