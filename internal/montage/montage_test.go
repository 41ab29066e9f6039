package montage

import (
	"errors"
	"sync"
	"testing"
	"time"

	"medley/internal/core"
	"medley/internal/pnvm"
)

// zero-latency device for unit tests
func testSys() (*EpochSys, *core.TxManager) {
	dev := pnvm.New(pnvm.Latencies{})
	es := NewEpochSys(dev)
	mgr := core.NewTxManager()
	Attach(mgr, es)
	return es, mgr
}

func TestBasicMapOps(t *testing.T) {
	es, mgr := testSys()
	m := NewSkipMap([]*EpochSys{es}, Uint64Codec())
	s := mgr.Session()
	if _, ok := m.Get(s, 1); ok {
		t.Fatal("empty map had key")
	}
	m.Put(s, 1, 10)
	if v, ok := m.Get(s, 1); !ok || v != 10 {
		t.Fatalf("Get = %d,%v", v, ok)
	}
	old, replaced := m.Put(s, 1, 11)
	if !replaced || old != 10 {
		t.Fatalf("Put = %d,%v", old, replaced)
	}
	if v, ok := m.Remove(s, 1); !ok || v != 11 {
		t.Fatalf("Remove = %d,%v", v, ok)
	}
	if _, ok := m.Get(s, 1); ok {
		t.Fatal("present after remove")
	}
}

func TestTransactionalAtomicity(t *testing.T) {
	es, mgr := testSys()
	m1 := NewHashMap([]*EpochSys{es}, Uint64Codec(), 64)
	m2 := NewSkipMap([]*EpochSys{es}, Uint64Codec())
	s := mgr.Session()
	m1.Put(s, 1, 100)

	err := s.Run(func() error {
		v, ok := m1.Get(s, 1)
		if !ok {
			return core.ErrTxAborted
		}
		m1.Put(s, 1, v-30)
		m2.Put(s, 2, 30)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	v1, _ := m1.Get(s, 1)
	v2, _ := m2.Get(s, 2)
	if v1 != 70 || v2 != 30 {
		t.Fatalf("balances = %d,%d", v1, v2)
	}
}

func TestAbortUndoesPayloads(t *testing.T) {
	es, mgr := testSys()
	m := NewSkipMap([]*EpochSys{es}, Uint64Codec())
	s := mgr.Session()
	m.Put(s, 1, 10)
	before := es.Device().Live()

	s.TxBegin()
	m.Put(s, 2, 20) // creates payload
	m.Remove(s, 1)  // retires payload
	s.TxAbort()

	if got := es.Device().Live(); got != before {
		t.Fatalf("payload count after abort = %d, want %d", got, before)
	}
	if v, ok := m.Get(s, 1); !ok || v != 10 {
		t.Fatalf("aborted remove took effect: %d,%v", v, ok)
	}
	if _, ok := m.Get(s, 2); ok {
		t.Fatal("aborted insert visible")
	}
}

func TestEpochValidatorAbortsCrossEpochTx(t *testing.T) {
	es, mgr := testSys()
	m := NewSkipMap([]*EpochSys{es}, Uint64Codec())
	s := mgr.Session()

	s.TxBegin()
	m.Put(s, 1, 10)
	// The epoch advances while the transaction is in flight. Advance only
	// waits for transactions pinned to the epoch being flushed (two back),
	// so it must not block on this current-epoch transaction.
	done := make(chan struct{})
	go func() { es.Advance(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Advance blocked on a current-epoch transaction")
	}
	if err := s.TxEnd(); !errors.Is(err, core.ErrTxAborted) {
		t.Fatalf("TxEnd = %v, want abort (epoch moved)", err)
	}
	if _, ok := m.Get(s, 1); ok {
		t.Fatal("cross-epoch tx committed")
	}
}

func TestCrashRecoveryDurableState(t *testing.T) {
	dev := pnvm.New(pnvm.Latencies{})
	es := NewEpochSys(dev)
	mgr := core.NewTxManager()
	Attach(mgr, es)
	m := NewSkipMap([]*EpochSys{es}, Uint64Codec())
	s := mgr.Session()

	for k := uint64(0); k < 100; k++ {
		m.Put(s, k, k*2)
	}
	es.Sync() // make everything durable
	// Post-sync updates that will be lost (not yet flushed).
	m.Put(s, 5, 999)
	m.Remove(s, 6)
	m.Put(s, 200, 1)

	es2 := NewEpochSys(dev)
	rec, err := Recover(es2.Clock(), []*EpochSys{es2}, pnvm.DumpAll([]*pnvm.Device{dev}))
	if err != nil {
		t.Fatal(err)
	}
	m2 := NewSkipMap([]*EpochSys{es2}, Uint64Codec())
	m2.Rebuild(rec.Live[0])
	chk := core.NewTxManager().Session()
	// The fresh clock restarts past the cut: a new transaction must never
	// share an epoch number with a pre-crash batch still on media.
	if es2.Current() < rec.Cut+2 {
		t.Fatalf("clock resumed at epoch %d, want at least cut %d + 2", es2.Current(), rec.Cut)
	}

	// The synced prefix must be intact…
	for k := uint64(0); k < 100; k++ {
		v, ok := m2.Get(chk, k)
		if !ok || v != k*2 {
			t.Fatalf("recovered Get(%d) = %d,%v want %d", k, v, ok, k*2)
		}
	}
	// …and the unflushed suffix lost (buffered durability).
	if _, ok := m2.Get(chk, 200); ok {
		t.Fatal("unflushed insert survived crash")
	}
	if v, _ := m2.Get(chk, 5); v == 999 {
		t.Fatal("unflushed update survived crash")
	}
	if _, ok := m2.Get(chk, 6); !ok {
		t.Fatal("unflushed remove took effect across crash")
	}
}

// Failure atomicity: a transaction writing to two maps is recovered all or
// nothing, never split (the epoch check guarantees both payloads carry the
// same epoch).
func TestFailureAtomicityAcrossCrash(t *testing.T) {
	for trial := 0; trial < 5; trial++ {
		dev := pnvm.New(pnvm.Latencies{})
		es := NewEpochSys(dev)
		mgr := core.NewTxManager()
		Attach(mgr, es)
		ma := NewSkipMap([]*EpochSys{es}, Uint64Codec())
		mb := NewSkipMap([]*EpochSys{es}, Uint64Codec())

		var wg sync.WaitGroup
		stop := make(chan struct{})
		advDone := make(chan struct{})
		// Background advancer racing with transactions.
		go func() {
			defer close(advDone)
			for {
				select {
				case <-stop:
					return
				default:
					es.Advance()
					time.Sleep(200 * time.Microsecond)
				}
			}
		}()
		// Writers: tx i writes (i, i) to both maps atomically. The two maps
		// share the device's raw key space, so mb keeps its keys disjoint
		// from ma's (recovery merges same-key records, newest wins).
		const writers = 4
		const perWriter = 200
		const mbBase = uint64(1) << 32
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				s := mgr.Session()
				for i := 0; i < perWriter; i++ {
					k := uint64(w*perWriter + i)
					_ = s.Run(func() error {
						ma.Put(s, k, k)
						mb.Put(s, mbBase+k, k)
						return nil
					})
				}
			}(w)
		}
		wg.Wait()
		close(stop)
		<-advDone

		devs := []*pnvm.Device{dev}
		rec, err := pnvm.RecoverDomain(devs, pnvm.DumpAll(devs))
		if err != nil {
			t.Fatal(err)
		}
		// Each transaction wrote one payload per map, in the same epoch.
		// Failure atomicity means a key either survives in both maps (2
		// live payloads) or in neither (0) — never 1.
		count := map[uint64]int{}
		for _, r := range rec.Live[0] {
			count[r.Key%mbBase]++
		}
		for k, c := range count {
			if c != 2 {
				t.Fatalf("trial %d: key %d has %d live payloads; tx recovered partially", trial, k, c)
			}
		}
	}
}
