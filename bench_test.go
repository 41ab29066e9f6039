// Benchmark entry points: one testing.B target per figure of the paper's
// evaluation (Section 6), plus overhead and ablation micro-benches. Each
// figure's series can also be produced with cmd/medleybench and
// cmd/tpccbench, which print paper-style tables over full thread sweeps;
// these benches measure per-transaction cost at GOMAXPROCS parallelism.
//
// Run: go test -bench=. -benchmem
package medley_test

import (
	"math/rand/v2"
	"sync/atomic"
	"testing"
	"time"

	"medley/internal/bench"
	"medley/internal/core"
	"medley/internal/pnvm"
	"medley/internal/tpcc"
	"medley/internal/txengine"
)

// benchScale keeps preloads fast; cmd/medleybench runs paper scale.
const benchScale = 0.01

var ratios = []struct {
	name    string
	g, i, r int
}{
	{"0:1:1", 0, 1, 1},
	{"2:1:1", 2, 1, 1},
	{"18:1:1", 18, 1, 1},
}

func mkSystem(b *testing.B, engine string, kind txengine.MapKind, wl bench.Workload, cfg txengine.Config) *bench.System {
	b.Helper()
	sys, err := bench.NewSystem(engine, kind, wl, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

func runSystem(b *testing.B, sys *bench.System, wl bench.Workload) {
	b.Helper()
	defer sys.Close()
	sys.Preload(wl)
	var tid atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		w := sys.NewWorker(int(tid.Add(1)))
		rng := rand.New(rand.NewPCG(uint64(tid.Load()), 99))
		buf := make([]bench.Op, 0, wl.MaxOps)
		for pb.Next() {
			ops := wl.GenTx(rng, buf)
			w.RunTx(ops)
		}
	})
}

func runSystemNoTx(b *testing.B, sys *bench.System, wl bench.Workload) {
	b.Helper()
	defer sys.Close()
	sys.Preload(wl)
	var tid atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		w := sys.NewWorker(int(tid.Add(1)))
		rng := rand.New(rand.NewPCG(uint64(tid.Load()), 99))
		buf := make([]bench.Op, 0, wl.MaxOps)
		for pb.Next() {
			ops := wl.GenTx(rng, buf)
			w.RunOpsNoTx(ops)
		}
	})
}

// BenchmarkFig7 reproduces Figure 7: transactional hash-table throughput.
func BenchmarkFig7(b *testing.B) {
	lat := pnvm.DefaultLatencies()
	for _, r := range ratios {
		wl := bench.PaperWorkload(r.g, r.i, r.r, benchScale)
		opt := txengine.Config{Latencies: lat, EpochLen: 10 * time.Millisecond}
		for _, name := range bench.TxSystemsFor(txengine.KindHash) {
			b.Run(name+"/"+r.name, func(b *testing.B) {
				runSystem(b, mkSystem(b, name, txengine.KindHash, wl, opt), wl)
			})
		}
	}
}

// BenchmarkFig8 reproduces Figure 8: transactional skiplist throughput.
func BenchmarkFig8(b *testing.B) {
	lat := pnvm.DefaultLatencies()
	for _, r := range ratios {
		wl := bench.PaperWorkload(r.g, r.i, r.r, benchScale)
		opt := txengine.Config{Latencies: lat, EpochLen: 10 * time.Millisecond}
		for _, name := range bench.TxSystemsFor(txengine.KindSkip) {
			b.Run(name+"/"+r.name, func(b *testing.B) {
				runSystem(b, mkSystem(b, name, txengine.KindSkip, wl, opt), wl)
			})
		}
	}
}

// BenchmarkFig9 reproduces Figure 9: TPC-C (newOrder:payment 1:1) over
// skiplist tables.
func BenchmarkFig9(b *testing.B) {
	lat := pnvm.DefaultLatencies()
	cfg := tpcc.DefaultConfig(2)
	opt := txengine.Config{Latencies: lat, EpochLen: 10 * time.Millisecond}
	for _, name := range tpcc.DefaultEngines() {
		b.Run(name, func(b *testing.B) {
			st, err := tpcc.NewStore(name, opt)
			if err != nil {
				b.Fatal(err)
			}
			tpcc.Load(st, cfg)
			var tid atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				id := int(tid.Add(1))
				w := st.NewWorker(id)
				rng := rand.New(rand.NewPCG(uint64(id), 3))
				var seq uint64
				for pb.Next() {
					if rng.IntN(2) == 0 {
						_ = w.RunTx(func(h tpcc.Handle) error { return tpcc.NewOrder(h, cfg, rng, id) })
					} else {
						_ = w.RunTx(func(h tpcc.Handle) error { return tpcc.Payment(h, cfg, rng, id, &seq) })
					}
				}
			})
			b.StopTimer()
			st.Close()
		})
	}
}

// BenchmarkFig10a reproduces Figure 10(a): skiplist latency on DRAM —
// Original vs TxOff (transform, no transactions) vs TxOn.
func BenchmarkFig10a(b *testing.B) {
	for _, r := range ratios {
		wl := bench.PaperWorkload(r.g, r.i, r.r, benchScale)
		b.Run("Original/"+r.name, func(b *testing.B) {
			runSystemNoTx(b, mkSystem(b, "original", txengine.KindSkip, wl, txengine.Config{}), wl)
		})
		b.Run("TxOff/"+r.name, func(b *testing.B) {
			runSystemNoTx(b, mkSystem(b, "medley", txengine.KindSkip, wl, txengine.Config{}), wl)
		})
		b.Run("TxOn/"+r.name, func(b *testing.B) {
			runSystem(b, mkSystem(b, "medley", txengine.KindSkip, wl, txengine.Config{}), wl)
		})
	}
}

// BenchmarkFig10b reproduces Figure 10(b): payloads on (simulated) NVM,
// persistence off — isolates the NVM write bottleneck.
func BenchmarkFig10b(b *testing.B) {
	lat := pnvm.Latencies{Write: pnvm.DefaultLatencies().Write}
	for _, r := range ratios {
		wl := bench.PaperWorkload(r.g, r.i, r.r, benchScale)
		opt := txengine.Config{Latencies: lat, EpochLen: time.Hour}
		b.Run("TxOff/"+r.name, func(b *testing.B) {
			runSystemNoTx(b, mkSystem(b, "txmontage", txengine.KindSkip, wl, opt), wl)
		})
		b.Run("TxOn/"+r.name, func(b *testing.B) {
			runSystem(b, mkSystem(b, "txmontage", txengine.KindSkip, wl, opt), wl)
		})
	}
}

// BenchmarkFig10c reproduces Figure 10(c): full txMontage persistence.
func BenchmarkFig10c(b *testing.B) {
	lat := pnvm.DefaultLatencies()
	for _, r := range ratios {
		wl := bench.PaperWorkload(r.g, r.i, r.r, benchScale)
		opt := txengine.Config{Latencies: lat, EpochLen: 10 * time.Millisecond}
		b.Run("TxOff/"+r.name, func(b *testing.B) {
			runSystemNoTx(b, mkSystem(b, "txmontage", txengine.KindSkip, wl, opt), wl)
		})
		b.Run("TxOn/"+r.name, func(b *testing.B) {
			runSystem(b, mkSystem(b, "txmontage", txengine.KindSkip, wl, opt), wl)
		})
	}
}

// BenchmarkOverheadSingleOp measures the §6.3 headline another way: the
// marginal cost of one map operation Original → TxOff → TxOn(1-op tx).
func BenchmarkOverheadSingleOp(b *testing.B) {
	wl := bench.PaperWorkload(1, 1, 1, benchScale)
	wl.MinOps, wl.MaxOps = 1, 1
	b.Run("Original", func(b *testing.B) {
		runSystemNoTx(b, mkSystem(b, "original", txengine.KindSkip, wl, txengine.Config{}), wl)
	})
	b.Run("TxOff", func(b *testing.B) {
		runSystemNoTx(b, mkSystem(b, "medley", txengine.KindSkip, wl, txengine.Config{}), wl)
	})
	b.Run("TxOn", func(b *testing.B) {
		runSystem(b, mkSystem(b, "medley", txengine.KindSkip, wl, txengine.Config{}), wl)
	})
}

// --------------------------------------------------------------- ablation --

// BenchmarkAblationCASObj isolates the cost of the GC-safe CASObj cell
// encoding versus a bare CAS-loop counter — the constant-factor price this
// port pays in place of the paper's 128-bit CAS: one 24-byte {desc, prev,
// val} cell per successful CAS (allocated once per call, not per retry), and
// one pointer hop per load.
func BenchmarkAblationCASObj(b *testing.B) {
	b.Run("CASObj", func(b *testing.B) {
		var o core.CASObj[uint64]
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				for {
					v := o.Load()
					if o.CAS(v, v+1) {
						break
					}
				}
			}
		})
	})
	b.Run("BareAtomic", func(b *testing.B) {
		var o atomic.Uint64
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				for {
					v := o.Load()
					if o.CompareAndSwap(v, v+1) {
						break
					}
				}
			}
		})
	})
}

// BenchmarkAblationCommitPath measures the fixed cost of an N-word Medley
// transaction (descriptor allocation, install, validate, commit, sweep).
func BenchmarkAblationCommitPath(b *testing.B) {
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(map[int]string{1: "1word", 2: "2words", 4: "4words", 8: "8words"}[n], func(b *testing.B) {
			mgr := core.NewTxManager()
			words := make([]core.CASObj[uint64], n)
			b.RunParallel(func(pb *testing.PB) {
				s := mgr.Session()
				for pb.Next() {
					_ = s.Run(func() error {
						for i := range words {
							v, tag := words[i].NbtcLoad(s)
							s.AddToReadSet(&words[i], tag)
							if !words[i].NbtcCAS(s, v, v+1, true, true) {
								return core.ErrTxAborted
							}
						}
						return nil
					})
				}
			})
		})
	}
}

// BenchmarkAblationReadSetValidation measures commit cost as read sets grow
// (read-only transactions; invisible readers pay only at validation).
func BenchmarkAblationReadSetValidation(b *testing.B) {
	for _, n := range []int{1, 8, 32, 128} {
		name := map[int]string{1: "1read", 8: "8reads", 32: "32reads", 128: "128reads"}[n]
		b.Run(name, func(b *testing.B) {
			mgr := core.NewTxManager()
			words := make([]core.CASObj[uint64], n)
			b.RunParallel(func(pb *testing.PB) {
				s := mgr.Session()
				for pb.Next() {
					_ = s.Run(func() error {
						for i := range words {
							_, tag := words[i].NbtcLoad(s)
							s.AddToReadSet(&words[i], tag)
						}
						return nil
					})
				}
			})
		})
	}
}
