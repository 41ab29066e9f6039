package txengine

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"medley/internal/history"
	"medley/internal/montage"
	"medley/internal/pnvm"
)

// testSpec returns a map spec every engine can satisfy.
func testSpec(caps Caps) MapSpec {
	if caps.Has(CapSkipMap) {
		return MapSpec{Kind: KindSkip, Stripes: 64}
	}
	return MapSpec{Kind: KindHash, Buckets: 256}
}

func buildForTest(t *testing.T, b Builder) Engine {
	t.Helper()
	eng, err := b.New(Config{EpochLen: 2 * time.Millisecond})
	if err != nil {
		t.Fatalf("build %s: %v", b.Key, err)
	}
	return eng
}

// TestRegistryShape checks that the registry holds all the paper's systems
// plus boost, and that caps are self-consistent with the factories.
func TestRegistryShape(t *testing.T) {
	for _, want := range []string{"medley", "txmontage", "onefile", "ponefile", "tdsl", "lftt", "boost", "original"} {
		if _, ok := Lookup(want); !ok {
			t.Errorf("registry missing %q (have %v)", want, Names())
		}
	}
	if _, ok := Lookup("MEDLEY"); !ok {
		t.Error("Lookup must be case-insensitive")
	}
	if _, err := Build("no-such-engine", Config{}); err == nil {
		t.Error("Build of unknown engine must fail")
	}
	for _, b := range Builders() {
		eng := buildForTest(t, b)
		if eng.Caps() != b.Caps {
			t.Errorf("%s: builder caps %b != engine caps %b", b.Key, b.Caps, eng.Caps())
		}
		if eng.Name() == "" {
			t.Errorf("%s: empty display name", b.Key)
		}
		if _, err := eng.NewUintMap(testSpec(b.Caps)); err != nil {
			t.Errorf("%s: NewUintMap(%v): %v", b.Key, testSpec(b.Caps), err)
		}
		if b.Caps.Has(CapRowMaps) {
			cfg := Config{}
			if strings.Contains(b.Key, "txmontage") {
				cfg.RowCodec = testRowCodec()
			}
			eng2, err := b.New(cfg)
			if err != nil {
				t.Fatalf("rebuild %s: %v", b.Key, err)
			}
			if _, err := eng2.NewRowMap(testSpec(b.Caps)); err != nil {
				t.Errorf("%s: NewRowMap: %v", b.Key, err)
			}
			eng2.Close()
		}
		eng.Close()
	}
}

// TestUnsupportedFollowsCaps: every registered engine fails with
// ErrUnsupported exactly where its caps deny a constructor — NewUintMap and
// NewRowMap of each MapKind, NewUintQueue — and RecoverUintMap exactly where
// the engine is transient; a static transaction (CapTx without CapDynamicTx)
// over two maps fails with it too. Each constructor is a subtest of its
// engine's.
func TestUnsupportedFollowsCaps(t *testing.T) {
	for _, b := range Builders() {
		t.Run(b.Key, func(t *testing.T) {
			check := func(what string, denied bool, call func() error) {
				t.Run(what, func(t *testing.T) {
					if err := call(); errors.Is(err, ErrUnsupported) != denied || !denied && err != nil {
						t.Errorf("%s = %v, want unsupported %v", what, err, denied)
					}
				})
			}
			build := func() Engine {
				eng, err := b.New(Config{RowCodec: testRowCodec()})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(eng.Close)
				return eng
			}
			eng := build()
			for _, kind := range []MapKind{KindHash, KindSkip} {
				c := map[MapKind]Caps{KindHash: CapHashMap, KindSkip: CapSkipMap}[kind]
				spec := MapSpec{Kind: kind, Buckets: 64}
				check("NewUintMap/"+kind.String(), !b.Caps.Has(c), func() error {
					_, err := eng.NewUintMap(spec)
					return err
				})
				check("NewRowMap/"+kind.String(), !b.Caps.Has(c|CapRowMaps), func() error {
					_, err := eng.NewRowMap(spec)
					return err
				})
			}
			check("NewUintQueue", !b.Caps.Has(CapQueue), func() error {
				_, err := eng.NewUintQueue()
				return err
			})
			if p, ok := build().(Persister); ok {
				check("RecoverUintMap", len(p.Devices()) == 0, func() error {
					_, err := p.RecoverUintMap(pnvm.DumpAll(p.Devices()), testSpec(b.Caps))
					return err
				})
			}
			if b.Caps.Has(CapTx) && !b.Caps.Has(CapDynamicTx) {
				m1, _ := eng.NewUintMap(testSpec(b.Caps))
				m2, _ := eng.NewUintMap(testSpec(b.Caps))
				tx := eng.NewWorker(0)
				check("static transaction over two maps", true, func() error {
					return tx.Run(func() error {
						m1.Put(tx, 1, 1)
						m2.Put(tx, 1, 1)
						return nil
					})
				})
			}
		})
	}
}

// testRowCodec is a trivial any-codec (values are uint64s boxed as any).
func testRowCodec() montage.Codec[any] {
	u64 := montage.Uint64Codec()
	return montage.Codec[any]{
		Enc: func(v any) []byte { return u64.Enc(v.(uint64)) },
		Dec: func(b []byte) any { return u64.Dec(b) },
	}
}

// eachTxEngine runs f for every engine that supports transactions.
func eachTxEngine(t *testing.T, f func(t *testing.T, b Builder, eng Engine, m Map[uint64])) {
	for _, b := range Builders() {
		if !b.Caps.Has(CapTx) {
			continue
		}
		b := b
		t.Run(b.Key, func(t *testing.T) {
			eng := buildForTest(t, b)
			defer eng.Close()
			m, err := eng.NewUintMap(testSpec(b.Caps))
			if err != nil {
				t.Fatal(err)
			}
			f(t, b, eng, m)
		})
	}
}

// TestBusinessAbortNoRetry: an error from the transaction body — including
// ErrBusinessAbort from Tx.Abort — must pass through after exactly one
// execution, with the transaction's writes rolled back; so must a Tx.Abort
// whose error the body swallows.
func TestBusinessAbortNoRetry(t *testing.T) {
	errBiz := errors.New("insufficient funds")
	eachTxEngine(t, func(t *testing.T, b Builder, eng Engine, m Map[uint64]) {
		tx := eng.NewWorker(0)

		calls := 0
		err := tx.Run(func() error {
			calls++
			m.Insert(tx, 7, 77)
			return errBiz
		})
		if !errors.Is(err, errBiz) {
			t.Fatalf("Run returned %v, want business error passthrough", err)
		}
		if calls != 1 {
			t.Fatalf("business abort retried: fn ran %d times", calls)
		}
		if _, ok := m.Get(tx, 7); ok {
			t.Fatal("aborted transaction's insert is visible (rollback broken)")
		}

		calls = 0
		err = tx.Run(func() error {
			calls++
			m.Insert(tx, 9, 99)
			return tx.Abort()
		})
		if !errors.Is(err, ErrBusinessAbort) {
			t.Fatalf("Run returned %v, want ErrBusinessAbort", err)
		}
		if calls != 1 {
			t.Fatalf("Tx.Abort retried: fn ran %d times", calls)
		}
		if _, ok := m.Get(tx, 9); ok {
			t.Fatal("Tx.Abort left the insert visible (rollback broken)")
		}

		calls = 0
		err = tx.Run(func() error {
			calls++
			m.Insert(tx, 10, 100)
			tx.Abort()
			return nil
		})
		if !errors.Is(err, ErrBusinessAbort) || calls != 1 {
			t.Fatalf("Run of a body that swallowed Tx.Abort = %v after %d executions, want ErrBusinessAbort after 1", err, calls)
		}
		if _, ok := m.Get(tx, 10); ok {
			t.Fatal("a swallowed Tx.Abort left the insert visible")
		}

		// The handle must remain usable after aborts.
		if err := tx.Run(func() error { m.Insert(tx, 11, 1); return nil }); err != nil {
			t.Fatalf("Run after abort: %v", err)
		}
		if _, ok := m.Get(tx, 11); !ok {
			t.Fatal("committed insert not visible after abort sequence")
		}
	})
}

// TestStandaloneOps: map operations outside Run must behave as single
// auto-committed operations on every transactional engine.
func TestStandaloneOps(t *testing.T) {
	eachTxEngine(t, func(t *testing.T, b Builder, eng Engine, m Map[uint64]) {
		tx := eng.NewWorker(0)
		if !m.Insert(tx, 1, 10) {
			t.Fatal("insert into empty map failed")
		}
		if m.Insert(tx, 1, 20) {
			t.Fatal("insert on present key succeeded")
		}
		if v, ok := m.Get(tx, 1); !ok || v != 10 {
			t.Fatalf("Get = %d,%v want 10,true", v, ok)
		}
		if old, had := m.Put(tx, 1, 30); !had || old != 10 {
			t.Fatalf("Put prev = %d,%v want 10,true", old, had)
		}
		if old, had := m.Remove(tx, 1); !had || old != 30 {
			t.Fatalf("Remove = %d,%v want 30,true", old, had)
		}
		if _, ok := m.Get(tx, 1); ok {
			t.Fatal("key present after Remove")
		}
	})
}

// TestAtomicTransfer: three workers move value between two hot keys, each
// transaction reading both and writing both with values no other write
// repeats, while a fourth reads both in read-only transactions; then one read
// of each key. The checker must find one serial order of every committed
// transaction that respects real time: a torn read, a lost update or a read
// of a doomed attempt's write leaves none. On a static engine (LFTT) a
// transaction blind-writes both keys and only the final reads are checked.
func TestAtomicTransfer(t *testing.T) {
	const (
		workers = 3
		iters   = 500
		k1, k2  = 100, 200
	)
	eachTxEngine(t, func(t *testing.T, b Builder, eng Engine, m Map[uint64]) {
		dynamic := b.Caps.Has(CapDynamicTx)
		var rec history.Recorder
		var wg sync.WaitGroup
		start := make(chan struct{})
		for w := range workers + 1 {
			if w == workers && !dynamic {
				break
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				tx := eng.NewWorker(1 + w)
				val := uint64(w+1) << 32
				<-start
				for range iters {
					ops := []history.Op{{Kind: history.Get, Key: k1}, {Kind: history.Get, Key: k2}}
					if w < workers {
						val += 2
						ops = append(ops, history.Op{Kind: history.Put, Key: k1, Arg: val - 1}, history.Op{Kind: history.Put, Key: k2, Arg: val})
						if !dynamic {
							ops = ops[2:]
						}
					}
					if err := runOps(&rec, w, m, tx, ops, !dynamic, nil); err != nil {
						t.Errorf("worker %d: %v", w, err)
						return
					}
				}
			}()
		}
		close(start)
		wg.Wait()
		final := eng.NewWorker(999)
		for _, k := range []uint64{k1, k2} {
			single(&rec, workers+1, m, final, history.Op{Kind: history.Get, Key: k})
		}
		if err := history.Check(rec.Events()); err != nil {
			t.Fatal(err)
		}
	})
}
