// Command benchmark is the repository's one repeatable benchmark: four named
// workloads, four end-to-end metrics measured with tracing off, and a
// per-layer ledger measured in a second, traced run — every layer observed
// from outside, through its public entry points and counter snapshots. See
// README.md in this directory for the glossary and the method.
//
//	go run -C benchmark medley/benchmark --workload serve_read_hot --seed 1 --seconds 14 --trace 0
//	go run -C benchmark medley/benchmark -compare dirA dirB
//	go run -C benchmark medley/benchmark -manifest > BENCHMARK.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"medley/internal/pnvm"
	"medley/internal/server"
	"medley/internal/txengine"
)

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	out      string
	tracedir string
	// smoke shrinks preloads and replay lengths so the test suite can run
	// every workload in a fraction of a second; results are not comparable.
	smoke bool
}

// run carries one benchmark run's clock, results and audit verdicts.
type run struct {
	cfg       config
	t0        time.Time // origin of span timestamps
	metrics   map[string]float64
	attempted int64
	failed    int64
	problems  []string // audit violations; any makes the run incorrect
	logs      []*spanLog
	ledger    *spanLog // one span per ledger-replay layer
	detail    map[string]any
}

func newRun(cfg config) *run {
	return &run{cfg: cfg, t0: time.Now(), metrics: map[string]float64{}, detail: map[string]any{}}
}

func (r *run) since() int64 { return time.Since(r.t0).Nanoseconds() }

func (r *run) set(name string, v float64) { r.metrics[name] = v }

func (r *run) violate(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// metricValue and result are the contract's output shape.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultFile is what -out writes and -compare reads: the result plus what
// is needed to judge whether two files are comparable.
type resultFile struct {
	Workload string         `json:"workload"`
	Seed     uint64         `json:"seed"`
	Seconds  float64        `json:"seconds"`
	Trace    bool           `json:"trace"`
	Env      map[string]any `json:"env"`
	Result   result         `json:"result"`
	Problems []string       `json:"problems,omitempty"`
	Detail   map[string]any `json:"detail,omitempty"`
}

// finish checks the emitted metric set against the spec and shapes the result.
func (r *run) finish() (result, error) {
	list := spec.EndToEnd
	if r.cfg.trace {
		list = spec.PerLayer
	}
	res := result{Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricValue{}}
	for _, m := range list {
		v, ok := r.metrics[m.Name]
		if !ok && !r.cfg.trace {
			return res, fmt.Errorf("workload %s did not measure %s", r.cfg.workload, m.Name)
		}
		// A layer the workload bypasses reports 0 for its metrics.
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	for name := range r.metrics {
		if _, ok := specOf(list, name); !ok {
			return res, fmt.Errorf("workload %s measured %s, which the spec does not name", r.cfg.workload, name)
		}
	}
	res.Correct = len(r.problems) == 0 && r.failed == 0
	if res.Attempted < 1 {
		return res, fmt.Errorf("workload %s attempted nothing", r.cfg.workload)
	}
	return res, nil
}

func environment(cfg config) map[string]any {
	env := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"drivers":    drivers,
		"cpu_model":  "unknown",
		"loadavg":    "unknown",
		"git_commit": "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if name, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
				env["cpu_model"] = strings.TrimSpace(val)
				break
			}
		}
	}
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		env["loadavg"] = strings.TrimSpace(string(b))
	}
	env["git_commit"] = gitCommit()
	if rates, ok := ladder[cfg.workload]; ok {
		env["ladder_per_s"] = rates
		env["lat_limit_us"] = latLimitUs[cfg.workload]
	}
	return env
}

// gitCommit names the commit the benchmark was built from: the revision the
// toolchain stamped into the binary (`go build`), else what git says about
// the working tree (`go run` stamps nothing), with "+dirty" when files
// differ from it. The driver's checkout is not a repository: "unknown" there.
func gitCommit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", ""
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
		if rev != "" {
			return rev + dirty
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	git := func(args ...string) (string, error) {
		cmd := exec.CommandContext(ctx, "git", args...)
		// Look no further up than the repository root, the parent of this
		// module's directory.
		if wd, err := os.Getwd(); err == nil {
			cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(filepath.Dir(wd)))
		}
		out, err := cmd.Output()
		return strings.TrimSpace(string(out)), err
	}
	rev, err := git("rev-parse", "HEAD")
	if err != nil || rev == "" {
		return "unknown"
	}
	if status, err := git("status", "--porcelain"); err == nil && status != "" {
		rev += "+dirty"
	}
	return rev
}

// execute runs one workload and returns its result file.
func execute(cfg config) (resultFile, error) {
	rf := resultFile{Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace, Env: environment(cfg)}
	if runtime.NumCPU() < drivers && !cfg.smoke {
		return rf, fmt.Errorf("%d driver goroutines need at least as many CPUs; this host has %d", drivers, runtime.NumCPU())
	}
	r := newRun(cfg)
	var err error
	switch cfg.workload {
	case serveReadHot, serveTxnDurable:
		err = runServe(r)
	case embedCompose:
		err = runCompose(r)
	case embedShardedMix:
		err = runMix(r)
	default:
		var names []string
		for _, w := range spec.Workloads {
			names = append(names, w.Name)
		}
		err = fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(names, ", "))
	}
	if err != nil {
		return rf, err
	}
	if cfg.trace && cfg.tracedir != "" {
		name := fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed)
		path, n, err := writeSpans(cfg.tracedir, name, r.logs...)
		if err != nil {
			return rf, err
		}
		r.detail["span_file"], r.detail["spans"] = path, n
	}
	rf.Result, err = r.finish()
	rf.Problems, rf.Detail = r.problems, r.detail
	return rf, err
}

// printTable lists every metric by name with its unit, in spec order.
func printTable(rf resultFile) {
	list := spec.EndToEnd
	if rf.Trace {
		list = spec.PerLayer
	}
	fmt.Printf("# %s seed=%d seconds=%g trace=%v  attempted=%d failed=%d correct=%v\n",
		rf.Workload, rf.Seed, rf.Seconds, rf.Trace, rf.Result.Attempted, rf.Result.Failed, rf.Result.Correct)
	for _, m := range list {
		fmt.Printf("%-32s %16.4f %s\n", m.Name, rf.Result.Metrics[m.Name].Value, m.Unit)
	}
	if v, ok := rf.Result.Metrics["core.tx_overhead_x"]; ok && rf.Workload == embedCompose {
		fmt.Printf("# core.tx_overhead_x %.2f beside the paper's 2.2\n", v.Value)
	}
	keys := make([]string, 0, len(rf.Detail))
	for k := range rf.Detail {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		b, _ := json.Marshal(rf.Detail[k])
		fmt.Printf("# %s: %s\n", k, b)
	}
	for _, p := range rf.Problems {
		fmt.Printf("# AUDIT VIOLATION: %s\n", p)
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func main() {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: serve_read_hot | serve_txn_durable | embed_compose | embed_sharded_mix")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	flag.Float64Var(&cfg.seconds, "seconds", runSeconds, "measured seconds of the run")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run")
	flag.StringVar(&cfg.out, "out", "", "also write the result, environment and details as JSON to this file")
	flag.StringVar(&cfg.tracedir, "tracedir", ".bench_trace", "directory the traced run writes its span log to (empty: keep spans in memory only)")
	compare := flag.Bool("compare", false, "compare two directories of -out files: -compare A B")
	printManifest := flag.Bool("manifest", false, "print BENCHMARK.json and exit")
	flag.Parse()

	switch {
	case *printManifest:
		b, _ := json.MarshalIndent(spec, "", "  ")
		fmt.Println(string(b))
		return
	case *compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: -compare A B (two directories of -out result files)")
			os.Exit(2)
		}
		regressed, err := compareDirs(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if cfg.seconds <= 0 || trace < 0 || trace > 1 || flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: --workload NAME --seed N --seconds S --trace 0|1 [-out FILE] [-tracedir DIR]")
		os.Exit(2)
	}
	cfg.trace = trace == 1
	rf, err := execute(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	printTable(rf)
	if cfg.out != "" {
		if err := writeJSON(cfg.out, rf); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: -out:", err)
			os.Exit(1)
		}
	}
	line, _ := json.Marshal(rf.Result)
	fmt.Println(string(line))
	if !rf.Result.Correct {
		os.Exit(1)
	}
}

// probe snapshots everything the harness can see from outside at a phase
// boundary: completion counters, allocator and GC statistics, and the public
// counter snapshots of the server, the engine and the devices.
type probe struct {
	done []*counter
	srv  *server.Server
	eng  txengine.Engine
	devs []*pnvm.Device
}

type snap struct {
	at                time.Time
	done              int64
	mem               runtime.MemStats
	gcCPU, totalCPU   float64
	srv               server.Counters
	eng               txengine.Stats
	devW, devWB, devF uint64
}

var cpuSamples = []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}

func (p *probe) take() snap {
	s := snap{at: time.Now(), done: p.completions()}
	runtime.ReadMemStats(&s.mem)
	metrics.Read(cpuSamples)
	s.gcCPU, s.totalCPU = cpuSamples[0].Value.Float64(), cpuSamples[1].Value.Float64()
	if p.srv != nil {
		s.srv = p.srv.Counters()
	}
	if p.eng != nil {
		s.eng = p.eng.Stats()
	}
	for _, d := range p.devs {
		w, wb, f := d.Stats()
		s.devW, s.devWB, s.devF = s.devW+w, s.devWB+wb, s.devF+f
	}
	return s
}

// completions sums the workers' counters (cheap: no stop-the-world).
func (p *probe) completions() (n int64) {
	for _, c := range p.done {
		n += c.n.Load()
	}
	return n
}

// calibEvery is how often the load-generating goroutines are asked for a
// sample of the reference workload while a window is measured.
const calibEvery = 500 * time.Millisecond

// watch sleeps through the measured window [from, to), bumping calibReq every
// calibEvery so that each load-generating goroutine samples its reference
// workload, and returns the completion rate over the window.
func (p *probe) watch(from, to time.Time, calibReq *atomic.Uint32) float64 {
	sleepUntil(from)
	n0, t0 := p.completions(), time.Now()
	for next := from.Add(calibEvery / 2); next.Before(to); next = next.Add(calibEvery) {
		sleepUntil(next)
		calibReq.Add(1)
	}
	sleepUntil(to)
	return float64(p.completions()-n0) / time.Since(t0).Seconds()
}

// rate is completions per second since prev.
func (s snap) rate(prev snap) float64 {
	return float64(s.done-prev.done) / s.at.Sub(prev.at).Seconds()
}

// gcShare is the share of the process's CPU time since prev that the
// collector used (the runtime refreshes these estimates at each GC cycle).
func (s snap) gcShare(prev snap) float64 {
	if s.totalCPU <= prev.totalCPU {
		return 0
	}
	return (s.gcCPU - prev.gcCPU) / (s.totalCPU - prev.totalCPU)
}

// liveHeapMB is the heap still reachable after a full collection.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}

// durableRefOps is the number of completed transfers serve_txn_durable's
// heap_live_mb is stated at. It is the one workload in which every operation
// leaves something behind for good (the simulated device keeps retired
// records), so its live heap at the end of a run is proportional to the work
// done: a faster machine, or a faster commit path, would read as a bigger
// heap. Its growth since set-up is therefore scaled from the transfers the
// run completed to this many. The other workloads' heaps level off within the
// warm-up and are reported as measured.
const durableRefOps = 800e3

// setHeapLive publishes heap_live_mb, the live heap at the end of the run.
func (r *run) setHeapLive(baseMB float64, completed int64) {
	endMB := liveHeapMB()
	r.detail["heap_base_mb"], r.detail["heap_end_mb"] = baseMB, endMB
	if r.cfg.workload == serveTxnDurable && !r.cfg.smoke && completed > 0 {
		endMB = baseMB + (endMB-baseMB)*durableRefOps/float64(completed)
	}
	r.set("heap_live_mb", endMB)
}

// setupMedian builds the workload's stack several times and returns the
// median build time: at least three builds, and for stacks that build in
// milliseconds as many more (up to 15) as fit in a second and a half, because
// one 50 ms build is mostly noise. The last build is the one the run
// measures; its live heap is the baseline of heap_live_mb. The traced run
// reports neither and builds once.
func setupMedian[T any](r *run, build func() (T, error), closeFn func(T)) (rig T, setupS, heapBaseMB float64, err error) {
	const minBuilds, maxBuilds, enough = 3, 15, 1.5
	var times []float64
	var total float64
	for {
		runtime.GC() // the previous build's garbage is not this build's cost
		began := time.Now()
		if rig, err = build(); err != nil {
			return rig, 0, 0, fmt.Errorf("setup: %w", err)
		}
		took := time.Since(began).Seconds()
		times, total = append(times, took), total+took
		n := len(times)
		if r.cfg.smoke || r.cfg.trace || n == maxBuilds || (n >= minBuilds && n%2 == 1 && total >= enough) {
			break
		}
		closeFn(rig)
	}
	if r.cfg.trace {
		return rig, 0, 0, nil
	}
	r.detail["setup_raw_s_all"] = slices.Clone(times)
	slices.Sort(times)
	return rig, times[len(times)/2], liveHeapMB(), nil
}

// setEndToEnd publishes the untraced run's timings at reference speed
// (calib.go), and its counts as measured.
func (r *run) setEndToEnd(refs []*reference, setupS, heapBaseMB, tput float64, s0, s1 snap, completed int64) {
	factor, nsOp := speedFactor(refs...)
	r.detail["ref_ns_op"], r.detail["tput_raw_per_s"], r.detail["setup_raw_s"] = nsOp, tput, setupS
	r.set("setup_s", setupS/factor)
	r.set("tput_per_s", tput*factor)
	r.set("alloc_b_op", float64(s1.mem.TotalAlloc-s0.mem.TotalAlloc)/float64(s1.done-s0.done))
	r.setHeapLive(heapBaseMB, completed)
}
