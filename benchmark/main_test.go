package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// Every workload, traced and untraced, for a fraction of a second with the
// audits on: the run must be correct and must emit exactly the metrics the
// spec names for its mode (finish checks both directions).
func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.Name, trace), func(t *testing.T) {
				cfg := config{workload: w.Name, seed: 7, seconds: 0.2, trace: trace, smoke: true}
				if trace {
					cfg.seconds, cfg.tracedir = 0.6, t.TempDir()
				}
				rf, err := execute(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !rf.Result.Correct || rf.Result.Failed != 0 || len(rf.Problems) != 0 {
					t.Fatalf("not correct: failed=%d problems=%v", rf.Result.Failed, rf.Problems)
				}
				want := spec.EndToEnd
				if trace {
					want = spec.PerLayer
				}
				if len(rf.Result.Metrics) != len(want) {
					t.Fatalf("emitted %d metrics, spec names %d", len(rf.Result.Metrics), len(want))
				}
				for _, m := range want {
					v, ok := rf.Result.Metrics[m.Name]
					if !ok || v.Unit != m.Unit {
						t.Errorf("metric %s: emitted %v (present %v), want unit %s", m.Name, v, ok, m.Unit)
					}
					if !trace && v.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, must never be 0", m.Name, v.Value)
					}
				}
				if trace {
					if n, _ := rf.Detail["spans"].(int); n == 0 {
						t.Error("traced run wrote no spans")
					}
					if w.Name == serveReadHot || w.Name == serveTxnDurable {
						// The ledger sums to the round trip by construction.
						m := rf.Result.Metrics
						sum := m["server.wire_ns_op"].Value + m["txengine.exec_ns_op"].Value + m["server.transport_ns_op"].Value
						if rtt := m["server.rtt_d1_us"].Value * 1e3; sum < rtt*0.999 || sum > rtt*1.001 {
							t.Errorf("ledger rows sum to %.0f ns, round trip is %.0f ns", sum, rtt)
						}
					}
					if w.Name == serveTxnDurable && rf.Result.Metrics["server.lane_share"].Value != 0 {
						t.Error("read lane served requests of the all-write durable workload")
					}
				}
			})
		}
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := execute(config{workload: "nope", seconds: 0.1, smoke: true}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestRecorderIsExact(t *testing.T) {
	s := newSamples(1000)
	for i := 1000; i >= 1; i-- { // 1000, 999, ... 1 microseconds
		s.add(int64(i) * 1000)
	}
	s.add(5) // beyond capacity: counted, not stored
	if len(s.ns) != 1000 || s.dropped != 1 {
		t.Fatalf("stored %d dropped %d", len(s.ns), s.dropped)
	}
	sorted := mergeSorted(s)
	for _, c := range []struct{ p, want float64 }{{0.50, 500}, {0.99, 990}, {0.999, 999}, {1, 1000}, {0.0001, 1}} {
		if got := percentileUs(sorted, c.p); got != c.want {
			t.Errorf("p%v = %v us, want %v exactly", c.p*100, got, c.want)
		}
	}
	if percentileUs(nil, 0.5) != 0 {
		t.Error("empty recorder must report 0")
	}
}

// quartiles must agree with Python's statistics.quantiles(v, n=4), which is
// what the driver computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		v    []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 1, 7, 3, 5}, [3]float64{2, 5, 8.5}},
		{[]float64{4, 2}, [3]float64{1.5, 3, 4.5}},
	} {
		q1, q2, q3 := quartiles(c.v)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

func writeSet(t *testing.T, dir string, scale map[string]float64, jitter float64) {
	t.Helper()
	for _, w := range spec.Workloads {
		for i := 0; i < 5; i++ {
			rf := resultFile{Workload: w.Name, Seed: uint64(i), Result: result{Correct: true, Attempted: 1, Metrics: map[string]metricValue{}}}
			for _, m := range spec.EndToEnd {
				f := 1.0
				if s, ok := scale[m.Name]; ok {
					f = s
				}
				rf.Result.Metrics[m.Name] = metricValue{Value: 100 * f * (1 + jitter*float64(i-2)), Unit: m.Unit}
			}
			if err := writeJSON(filepath.Join(dir, fmt.Sprintf("%s-%d.json", w.Name, i)), rf); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestCompare(t *testing.T) {
	base, same, worse, faster, noisy := t.TempDir(), t.TempDir(), t.TempDir(), t.TempDir(), t.TempDir()
	writeSet(t, base, nil, 0.005)
	writeSet(t, same, nil, 0.005)
	writeSet(t, worse, map[string]float64{"tput_per_s": 0.6}, 0.005) // higher is better: 40% less is a regression
	writeSet(t, faster, map[string]float64{"tput_per_s": 1.5, "heap_live_mb": 0.5}, 0.005)
	writeSet(t, noisy, nil, 0.2)

	var out bytes.Buffer
	if regressed, err := compareDirs(&out, base, same); err != nil || regressed {
		t.Fatalf("A/A: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	if s := out.String(); strings.Contains(s, "REGRESSED") || strings.Contains(s, "unresolved") {
		t.Fatalf("A/A must be all ok:\n%s", s)
	}
	if rows := strings.Count(out.String(), "\n"); rows != 1+len(spec.Workloads)*len(spec.EndToEnd) {
		t.Errorf("A/A printed %d lines, want one per workload x metric plus a header", rows)
	}
	out.Reset()
	if regressed, err := compareDirs(&out, base, worse); err != nil || !regressed {
		t.Fatalf("A/B with 40%% less throughput: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	if n := strings.Count(out.String(), "REGRESSED"); n != len(spec.Workloads) {
		t.Errorf("%d rows regressed, want tput_per_s on each of %d workloads\n%s", n, len(spec.Workloads), out.String())
	}
	out.Reset()
	if regressed, err := compareDirs(&out, base, faster); err != nil || regressed {
		t.Fatalf("an improvement was called a regression: err=%v\n%s", err, out.String())
	}
	out.Reset()
	if regressed, err := compareDirs(&out, base, noisy); err != nil || regressed {
		t.Fatalf("noise was called a regression: err=%v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "unresolved") {
		t.Errorf("a side whose spread exceeds the bound must be unresolved:\n%s", out.String())
	}
	if _, err := compareDirs(&out, base, t.TempDir()); err == nil {
		t.Error("an empty directory must be an error, not an empty comparison")
	}
}

// BENCHMARK.json is the spec printed by -manifest, and both respect the
// contract's limits.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	onDisk, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	fromSpec, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var a, b any
	if err := json.Unmarshal(onDisk, &a); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	json.Unmarshal(fromSpec, &b)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("BENCHMARK.json differs from spec.go: regenerate it with `go run -C benchmark medley/benchmark -manifest > BENCHMARK.json`")
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range spec.Workloads {
		use(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("why of %s: %d characters", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range spec.EndToEnd {
		use(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %+v", m)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("setup_s (s, lower) is missing")
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, m := range spec.PerLayer {
		use(m.Name)
		if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound != 0 {
			t.Errorf("per-layer metric %+v", m)
		}
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 || len(onDisk) > 64<<10 {
		t.Errorf("run_seconds %d, file %d bytes", spec.RunSeconds, len(onDisk))
	}
	for w, rates := range ladder {
		if !(rates[0] < rates[1] && rates[1] < rates[2]) || latLimitUs[w] == 0 {
			t.Errorf("ladder of %s: %v, limit %v", w, rates, latLimitUs[w])
		}
	}
}

// The reference workload's reading scales the factor, and no reading leaves
// timings as measured.
func TestSpeedFactor(t *testing.T) {
	a, b := newReference(1), newReference(2)
	a.sample()
	a.sample()
	b.sample()
	if len(a.m) != refKeys {
		t.Fatalf("the reference map holds %d keys after sampling, want %d: replacements must not grow it", len(a.m), refKeys)
	}
	factor, nsOp := speedFactor(a, b)
	if len(a.nsOp) != 2 || len(b.nsOp) != 1 || nsOp <= 0 || factor != nsOp/refNsOp {
		t.Fatalf("samples %v %v, factor %v, %v ns/op", a.nsOp, b.nsOp, factor, nsOp)
	}
	_, median, _ := quartiles([]float64{a.nsOp[0], a.nsOp[1], b.nsOp[0]})
	if nsOp != median {
		t.Errorf("the reading is %v, want the median %v of all goroutines' samples", nsOp, median)
	}
	if f, ns := speedFactor(newReference(3)); f != 1 || ns != refNsOp {
		t.Errorf("no samples must leave timings as measured, got factor %v", f)
	}
}
