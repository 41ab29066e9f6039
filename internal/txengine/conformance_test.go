package txengine

import (
	"cmp"
	"errors"
	"slices"
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

// sweptBuilders are the engines the registry-wide suites sweep: every
// registered builder, medley-sharded built through Build by that name (the
// benchmark drives it by name, so the suites hold the alias to the behaviour
// of the engine it resolves to), and txmontage over four devices, the count
// the benchmark builds it with. The txmontage-sharded alias is not swept on
// its own: with no device count it is one-device txmontage again.
func sweptBuilders() []Builder {
	alias, _ := Lookup("medley-sharded")
	alias.Key = "medley-sharded"
	alias.New = func(cfg Config) (Engine, error) { return Build("medley-sharded", cfg) }
	multi, _ := Lookup("txmontage")
	multi.Key = "txmontage/devices=4"
	multi.New = func(cfg Config) (Engine, error) {
		cfg.Shards = cmp.Or(cfg.Shards, 4)
		return Build("txmontage", cfg)
	}
	return append(Builders(), alias, multi)
}

// TestRegistryShape checks that the registry holds all the paper's systems
// plus boost, one engine each, and that caps are self-consistent with the
// factories. The -sharded names are aliases: Build resolves them, Names does
// not list them.
func TestRegistryShape(t *testing.T) {
	want := []string{"medley", "txmontage", "onefile", "ponefile", "tdsl", "lftt", "boost", "original"}
	if !slices.Equal(Names(), want) {
		t.Errorf("Names() = %v, want %v", Names(), want)
	}
	if _, ok := Lookup("MEDLEY"); !ok {
		t.Error("Lookup must be case-insensitive")
	}
	if _, err := Build("no-such-engine", Config{}); err == nil {
		t.Error("Build of unknown engine must fail")
	}
	for alias, to := range map[string]string{"Medley-Sharded": "medley", "txmontage-sharded": "txmontage"} {
		b, ok := Lookup(alias)
		if base, _ := Lookup(to); !ok || b.Key != to || b.Caps != base.Caps || b.Doc != base.Doc {
			t.Errorf("%s resolves to %q (ok=%v), want the %s builder", alias, b.Key, ok, to)
		}
	}
	for _, b := range sweptBuilders() {
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
			if strings.Contains(b.Key, "txmontage") || b.Key == "ponefile" {
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
	for _, b := range sweptBuilders() {
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
		Enc: func(dst []byte, v any) []byte { return u64.Enc(dst, v.(uint64)) },
		Dec: func(b []byte) any { return u64.Dec(b) },
	}
}

// eachTxEngine runs f for every engine that supports transactions, built with
// a 2 ms epoch advancer, as buildForTest builds them.
func eachTxEngine(t *testing.T, f func(t *testing.T, b Builder, eng Engine, m Map[uint64])) {
	eachTxEngineWith(t, Config{EpochLen: 2 * time.Millisecond}, f)
}

// eachTxEngineWith is eachTxEngine over engines built with cfg.
func eachTxEngineWith(t *testing.T, cfg Config, f func(t *testing.T, b Builder, eng Engine, m Map[uint64])) {
	for _, b := range sweptBuilders() {
		if !b.Caps.Has(CapTx) {
			continue
		}
		b := b
		t.Run(b.Key, func(t *testing.T) {
			eng, err := b.New(cfg)
			if err != nil {
				t.Fatalf("build %s: %v", b.Key, err)
			}
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

// TestRunPanicLeavesHandleUsable: a Run body that panics after a write, its
// panic recovered by the caller, leaves nothing behind on any engine that
// runs transactions. The write is not visible, the same handle's next Run
// commits, and another worker's Run over the same keys (declared, so latched
// on the Medley family) finishes: the panicked attempt's transaction is
// rolled back and whatever it held released.
func TestRunPanicLeavesHandleUsable(t *testing.T) {
	eachTxEngine(t, func(t *testing.T, b Builder, eng Engine, m Map[uint64]) {
		const k1, k2 = 1, 2
		tx, other := eng.NewWorker(0), eng.NewWorker(1)
		m.Put(tx, k1, 1)
		m.Put(tx, k2, 1)

		// within runs f on a goroutine of its own and returns f's panic.
		within := func(what string, f func()) (r any) {
			done := make(chan struct{})
			go func() {
				defer close(done)
				defer func() { r = recover() }()
				f()
			}()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatalf("%s never finished", what)
			}
			return r
		}
		// run runs a Run over k1 and k2, declared, and returns what escaped
		// it: the body's panic or Run's error.
		run := func(what string, tx Tx, body func() error) (r any, err error) {
			r = within(what, func() {
				HintKeys(tx, k1, k2)
				err = tx.Run(body)
			})
			return r, err
		}
		if r, _ := run("the panicking Run", tx, func() error {
			m.Put(tx, k1, 100)
			panic("body")
		}); r != "body" {
			t.Fatalf("the body's panic reached the caller as %v", r)
		}
		for _, w := range []Tx{other, tx} {
			var v uint64
			if r := within("a read after the panic", func() { v, _ = m.Get(w, k1) }); r != nil || v != 1 {
				t.Fatalf("a read after the panic: panic %v, value %d, want 1", r, v)
			}
		}
		// Blind writes, so engines without CapDynamicTx run them too.
		put := func(tx Tx, k uint64) func() error {
			return func() error {
				m.Put(tx, k, 2)
				return nil
			}
		}
		if r, err := run("the handle's next Run", tx, put(tx, k1)); r != nil || err != nil {
			t.Fatalf("the handle's next Run: panic %v, error %v", r, err)
		}
		if r, err := run("another worker's Run over the same keys", other, put(other, k2)); r != nil || err != nil {
			t.Fatalf("another worker's Run: panic %v, error %v", r, err)
		}
		v1, _ := m.Get(other, k1)
		v2, _ := m.Get(other, k2)
		if v1 != 2 || v2 != 2 {
			t.Fatalf("k1 = %d, k2 = %d after the panic and two writes, want 2 and 2", v1, v2)
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
