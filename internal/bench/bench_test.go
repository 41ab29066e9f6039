package bench

import (
	"math/rand/v2"
	"slices"
	"testing"
	"time"

	"medley/internal/txengine"
)

func TestGenTxRespectsRatioAndSize(t *testing.T) {
	wl := PaperWorkload(18, 1, 1, 0.01)
	rng := rand.New(rand.NewPCG(1, 2))
	buf := make([]Op, 0, wl.MaxOps)
	counts := map[OpKind]int{}
	total := 0
	for i := 0; i < 5000; i++ {
		ops := wl.GenTx(rng, buf)
		if len(ops) < wl.MinOps || len(ops) > wl.MaxOps {
			t.Fatalf("tx size %d outside [%d,%d]", len(ops), wl.MinOps, wl.MaxOps)
		}
		for _, op := range ops {
			counts[op.Kind]++
			total++
			if op.Key >= wl.KeySpace {
				t.Fatalf("key %d outside keyspace %d", op.Key, wl.KeySpace)
			}
		}
	}
	getFrac := float64(counts[Get]) / float64(total)
	if getFrac < 0.85 || getFrac > 0.95 {
		t.Fatalf("get fraction %.3f, want ~0.9 for 18:1:1", getFrac)
	}
	insFrac := float64(counts[Insert]) / float64(total)
	remFrac := float64(counts[Remove]) / float64(total)
	if insFrac < 0.03 || insFrac > 0.07 || remFrac < 0.03 || remFrac > 0.07 {
		t.Fatalf("insert/remove fractions %.3f/%.3f, want ~0.05", insFrac, remFrac)
	}
}

func TestPaperWorkloadScaling(t *testing.T) {
	wl := PaperWorkload(0, 1, 1, 1.0)
	if wl.KeySpace != 1_000_000 || wl.Preload != 500_000 {
		t.Fatalf("full-scale workload = %+v", wl)
	}
	small := PaperWorkload(0, 1, 1, 0.00000001)
	if small.KeySpace < 16 {
		t.Fatalf("tiny scale not clamped: %d", small.KeySpace)
	}
	if got := wl.Ratio(); got != "0:1:1" {
		t.Fatalf("Ratio = %q", got)
	}
}

func TestDefaultThreadSweepMonotoneAndBounded(t *testing.T) {
	sweep := DefaultThreadSweep()
	if len(sweep) == 0 {
		t.Fatal("empty sweep")
	}
	for i := 1; i < len(sweep); i++ {
		if sweep[i] <= sweep[i-1] {
			t.Fatalf("sweep not increasing: %v", sweep)
		}
	}
}

// Smoke test every registered transactional engine, in both map shapes it
// supports, through one short throughput run, and txmontage over four devices
// too: the harness must produce nonzero results and structures must survive.
func TestAllSystemsSmoke(t *testing.T) {
	wl := PaperWorkload(2, 1, 1, 0.001)
	for _, kind := range []txengine.MapKind{txengine.KindHash, txengine.KindSkip} {
		names := TxSystemsFor(kind)
		if len(names) == 0 {
			t.Fatalf("no engines for %v maps", kind)
		}
		for _, name := range names {
			counts := []int{0}
			if name == "txmontage" {
				counts = append(counts, 4)
			}
			for _, devices := range counts {
				sys, err := NewSystem(name, kind, wl, txengine.Config{EpochLen: 5 * time.Millisecond, Shards: devices})
				if err != nil {
					t.Fatalf("%s/%v/devices=%d: %v", name, kind, devices, err)
				}
				res := RunThroughput(sys, wl, 4, 50*time.Millisecond, true)
				sys.Close()
				if res.Txns == 0 {
					t.Errorf("%s/devices=%d: no transactions completed", res.System, devices)
				}
			}
		}
	}
}

// The default figure series must include every system of the paper's
// Figures 7–8 plus the newly wired Boost.
func TestFigureSeriesCoverage(t *testing.T) {
	hash := TxSystemsFor(txengine.KindHash)
	for _, want := range []string{"medley", "txmontage", "onefile", "ponefile", "boost"} {
		if !slices.Contains(hash, want) {
			t.Errorf("hash series missing %q: %v", want, hash)
		}
	}
	skip := TxSystemsFor(txengine.KindSkip)
	for _, want := range []string{"medley", "txmontage", "onefile", "ponefile", "tdsl", "lftt"} {
		if !slices.Contains(skip, want) {
			t.Errorf("skip series missing %q: %v", want, skip)
		}
	}
}

// Figure 10's three modes: the untransformed list and the transformed one
// run their generated groups without a transaction, and TxOn in one.
func TestLatencyModes(t *testing.T) {
	wl := PaperWorkload(2, 1, 1, 0.001)
	for _, mode := range []struct {
		engine string
		tx     bool
	}{{"original", false}, {"medley", false}, {"medley", true}} {
		sys, err := NewSystem(mode.engine, txengine.KindSkip, wl, txengine.Config{})
		if err != nil {
			t.Fatal(err)
		}
		res := RunThroughput(sys, wl, 2, 50*time.Millisecond, mode.tx)
		sys.Close()
		if res.Txns == 0 || res.Throughput <= 0 {
			t.Errorf("%s tx=%v: no groups completed: %+v", mode.engine, mode.tx, res)
		}
	}
}

// Throughput results must surface the engine's uniform stats: on medley with
// no warm-up, every counted iteration is exactly one commit of the measured
// window (preload excluded via the delta).
func TestThroughputSurfacesStats(t *testing.T) {
	wl := PaperWorkload(2, 1, 1, 0.001)
	sys, err := NewSystem("medley", txengine.KindHash, wl, txengine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer sys.Close()
	res := RunThroughput(sys, wl, 2, 50*time.Millisecond, true)
	if res.Stats.Commits == 0 {
		t.Fatalf("Result.Stats empty: %+v", res.Stats)
	}
	if res.Stats.Commits != res.Txns {
		t.Fatalf("commits %d != measured txns %d", res.Stats.Commits, res.Txns)
	}
}

// ParseThreads gives the host sweep for the empty flag and rejects anything
// that is not a list of counts of at least 1.
func TestParseThreads(t *testing.T) {
	if got, err := ParseThreads(""); err != nil || !slices.Equal(got, DefaultThreadSweep()) {
		t.Errorf(`ParseThreads("") = %v, %v; want the sweep %v`, got, err, DefaultThreadSweep())
	}
	if got, err := ParseThreads("1, 2,4"); err != nil || !slices.Equal(got, []int{1, 2, 4}) {
		t.Errorf(`ParseThreads("1, 2,4") = %v, %v`, got, err)
	}
	for _, bad := range []string{"0", "-1", "x", "2,0"} {
		if got, err := ParseThreads(bad); err == nil {
			t.Errorf("ParseThreads(%q) = %v, want an error", bad, got)
		}
	}
}
