// Command medleybench regenerates the microbenchmark figures of the Medley
// paper (PPoPP 2023): hash-table throughput (Figure 7), skiplist throughput
// (Figure 8), and skiplist latency (Figure 10) — and runs the cross-engine
// composition workloads of internal/workload (-workload). Backends are
// resolved by name through the internal/txengine registry; -systems selects
// a subset. Every throughput table includes the engine's uniform
// commit/abort/retry stats for the measured interval.
//
// Examples:
//
//	medleybench -figure 7                 # hash tables, all three ratios
//	medleybench -figure 8 -ratio 2:1:1    # skiplists, one ratio
//	medleybench -figure 8 -systems medley,lftt
//	medleybench -figure 7 -systems boost  # the boosted lock-based map
//	medleybench -figure 10                # latency: Original / TxOff / TxOn
//	medleybench -workload workqueue -systems medley,original
//	medleybench -workload all             # workqueue, cache, transfer
//	medleybench -workload transfer -systems txmontage -devices 8 -lat
//	medleybench -workload cache -zipf 1.6 -readpct 70 -accounts 64
//	medleybench -workload cache -readpct 95 -snapshot   # MVCC snapshot probes
//	medleybench -list                     # registered engines + workloads
//
// Scale 1.0 reproduces the paper's 1M-key / 0.5M-preload configuration;
// the default 0.1 keeps runs laptop-sized. Shapes, not absolute numbers,
// are the reproduction target (README, "Substitutions").
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"medley/internal/bench"
	"medley/internal/metrics"
	"medley/internal/pnvm"
	"medley/internal/txengine"
	"medley/internal/workload"
)

func main() {
	figure := flag.String("figure", "7", "7 | 8 | 10 (also 10a/10b/10c)")
	wlFlag := flag.String("workload", "", "composition workload instead of a figure: workqueue | cache | transfer | all")
	ratio := flag.String("ratio", "", "get:insert:remove ratio (default: all of 0:1:1, 2:1:1, 18:1:1)")
	systemsFlag := flag.String("systems", "", "comma-separated engine names (default: every capable engine; see -list)")
	list := flag.Bool("list", false, "list registered engines and exit")
	threadsFlag := flag.String("threads", "", "comma-separated thread counts (default: host sweep)")
	dur := flag.Duration("dur", 2*time.Second, "measurement duration per point")
	warmup := flag.Duration("warmup", 0, "workloads: ramp-up before measurement; warm-up samples are discarded from txn/s and the latency percentiles")
	scale := flag.Float64("scale", 0.1, "keyspace scale (1.0 = paper's 1M keys)")
	epochLen := flag.Duration("epoch", 10*time.Millisecond, "txMontage epoch length")
	devices := flag.Int("devices", 1, "device count of txmontage; other engines ignore it")
	zipfS := flag.Float64("zipf", 0, "Zipf skew exponent (>1.0; cache default 1.2; transfer: 0 keeps uniform draws)")
	readPct := flag.Int("readpct", -1, "cache workload: lookup percentage 0-100 (-1: default 90)")
	accounts := flag.Int("accounts", 0, "transfer workload: account count (0: 1024 scaled); fewer = hotter")
	lat := flag.Bool("lat", false, "workloads: measure per-transaction latency percentiles (p50/p99 columns)")
	snapshot := flag.Bool("snapshot", false, "cache workload: serve read probes as validation-free MVCC snapshot reads (engines with CapSnapshot only)")
	noHints := flag.Bool("nohints", false, "workloads: disable footprint hints (measure the undeclared path, no latches)")
	flag.Parse()

	if *list {
		for _, b := range txengine.Builders() {
			fmt.Printf("%-10s %s\n", b.Key, b.Doc)
		}
		fmt.Println()
		for _, sc := range workload.Scenarios() {
			fmt.Printf("%-10s workload: %s (engines: %s)\n", sc.Key, sc.Doc, strings.Join(workload.Engines(sc.Key), ","))
		}
		return
	}

	ratios := parseRatios(*ratio)
	threads, err := bench.ParseThreads(*threadsFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bad -threads:", err)
		os.Exit(2)
	}
	if *dur <= 0 {
		fmt.Fprintln(os.Stderr, "bad -dur: want a positive duration")
		os.Exit(2)
	}
	ecfg := txengine.Config{Latencies: pnvm.DefaultLatencies(), EpochLen: *epochLen, Shards: *devices}
	fmt.Printf("# host: GOMAXPROCS=%d; scale=%.2f; dur=%v\n", runtime.GOMAXPROCS(0), *scale, *dur)

	if *wlFlag != "" {
		if *readPct < -1 || *readPct > 100 {
			fmt.Fprintln(os.Stderr, "bad -readpct: want 0-100 (or -1 for the default 90)")
			os.Exit(2)
		}
		// Flag space (-1: default, 0: all updates) maps onto the library's
		// zero-value-is-default Config (0: default, negative: all updates).
		rp := 0
		switch {
		case *readPct == 0:
			rp = -1
		case *readPct > 0:
			rp = *readPct
		}
		cfg := workload.Config{
			Dur: *dur, Warmup: *warmup, Scale: *scale, Engine: ecfg,
			ZipfS: *zipfS, ReadPct: rp, Accounts: *accounts,
			Latency: *lat, NoHints: *noHints, Snapshot: *snapshot,
		}
		runWorkloads(*wlFlag, *systemsFlag, threads, cfg)
		return
	}

	switch *figure {
	case "7", "8":
		kind := txengine.KindHash
		figName := "Figure 7 (hash tables)"
		if *figure == "8" {
			kind = txengine.KindSkip
			figName = "Figure 8 (skiplists)"
		}
		systems := bench.TxSystemsFor(kind)
		if *systemsFlag != "" {
			systems = splitList(*systemsFlag)
		}
		// Fail fast on bad selections, before any measurement sweep runs.
		for _, name := range systems {
			b, ok := txengine.Lookup(name)
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown engine %q (see -list)\n", name)
				os.Exit(2)
			}
			if !b.Caps.Has(txengine.CapTx) {
				fmt.Fprintf(os.Stderr, "engine %q supports no transactions; it only appears in -figure 10's Original mode\n", name)
				os.Exit(2)
			}
			mapCap := txengine.CapHashMap
			if kind == txengine.KindSkip {
				mapCap = txengine.CapSkipMap
			}
			if !b.Caps.Has(mapCap) {
				fmt.Fprintf(os.Stderr, "engine %q has no %v map (figure %s needs one)\n", name, kind, *figure)
				os.Exit(2)
			}
		}
		for _, r := range ratios {
			wl := bench.PaperWorkload(r[0], r[1], r[2], *scale)
			fmt.Printf("\n## %s, get:insert:remove = %s\n", figName, wl.Ratio())
			fmt.Printf("%-16s %8s %14s%s\n", "system", "threads", "txn/s", statHead)
			for _, name := range systems {
				for _, th := range threads {
					sys := mustSystem(name, kind, wl, ecfg)
					res := bench.RunThroughput(sys, wl, th, *dur, true)
					sys.Close()
					_, stats := metrics.Columns(res.Stats, 10)
					fmt.Printf("%-16s %8d %14.0f%s\n", res.System, res.Threads, res.Throughput, stats)
				}
			}
		}
	case "10", "10a", "10b", "10c":
		if *systemsFlag != "" {
			// The latency figure's series (Original / Medley / txMontage per
			// panel) is fixed by the paper's methodology.
			fmt.Fprintln(os.Stderr, "-systems does not apply to -figure 10; its series is fixed (Original, Medley, txMontage)")
			os.Exit(2)
		}
		if *threadsFlag == "" {
			// The paper measures at 40 threads (half the hyperthreads);
			// use half of GOMAXPROCS here.
			threads = []int{max(runtime.GOMAXPROCS(0)/2, 1)}
		}
		for _, th := range threads {
			runLatency(*figure, th, ratios, *scale, *dur, ecfg)
		}
	default:
		fmt.Fprintln(os.Stderr, "unknown -figure; want 7, 8, or 10")
		os.Exit(2)
	}
}

func parseRatios(ratio string) [][3]int {
	ratios := [][3]int{{0, 1, 1}, {2, 1, 1}, {18, 1, 1}}
	if ratio == "" {
		return ratios
	}
	parts := strings.Split(ratio, ":")
	if len(parts) != 3 {
		fmt.Fprintln(os.Stderr, "bad -ratio; want g:i:r")
		os.Exit(2)
	}
	var r [3]int
	for i, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bad -ratio:", err)
			os.Exit(2)
		}
		if v < 0 {
			fmt.Fprintf(os.Stderr, "bad -ratio: weight %d is negative\n", v)
			os.Exit(2)
		}
		r[i] = v
	}
	if r == [3]int{} {
		fmt.Fprintln(os.Stderr, "bad -ratio: every weight is 0")
		os.Exit(2)
	}
	return [][3]int{r}
}

func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// runWorkloads drives the internal/workload scenarios: each selected
// workload over each selected engine at each thread count, with the
// engine's uniform stats, optional p50/p99 latency columns, and the
// scenario's audit counters per row. cfg carries everything but Threads.
func runWorkloads(wlFlag, systemsFlag string, threads []int, cfg workload.Config) {
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	wls := splitList(wlFlag)
	if wlFlag == "all" {
		wls = workload.Names()
	}
	for _, name := range wls {
		if _, ok := workload.Lookup(name); !ok {
			fmt.Fprintf(os.Stderr, "unknown workload %q (have %s)\n", name, strings.Join(workload.Names(), ", "))
			os.Exit(2)
		}
	}
	// Fail fast, before the first (potentially long) measurement sweep: an
	// engine that can host none of the selected workloads aborts. One that
	// can host only some has the others skipped below, so
	// `-workload all -systems onefile` runs the map scenarios instead of
	// dying on the queue one.
	for _, engine := range splitList(systemsFlag) {
		var err error
		for _, name := range wls {
			if err = workload.Check(name, engine, cfg); err == nil {
				break
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	for _, name := range wls {
		sc, _ := workload.Lookup(name)
		systems := workload.Engines(name)
		if systemsFlag != "" {
			systems = splitList(systemsFlag)
		}
		fmt.Printf("\n## workload %s (%s)\n", name, sc.Doc)
		// The p50/p99 columns, in latency mode.
		lat := func(p50, p99 any) string {
			if !cfg.Latency {
				return ""
			}
			return fmt.Sprintf(" %10v %10v", p50, p99)
		}
		fmt.Printf("%-12s %8s %14s%s%s  %s\n", "system", "threads", "txn/s", statHead, lat("p50", "p99"), "audit")
		for _, engine := range systems {
			if err := workload.Check(name, engine, cfg); err != nil {
				fmt.Fprintf(os.Stderr, "# skipping %s on %s: %v\n", name, engine, err)
				continue
			}
			for _, th := range threads {
				cfg := cfg
				cfg.Threads = th
				res, err := workload.Run(name, engine, cfg)
				if err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(2)
				}
				_, stats := metrics.Columns(res.Stats, 10)
				fmt.Printf("%-12s %8d %14.0f%s%s  %s\n", res.System, res.Threads, res.Throughput, stats, lat(res.P50, res.P99), res.AuxString())
			}
		}
	}
}

// statHead heads the engine-counter columns, one per printed txengine.Stats
// field.
var statHead, _ = metrics.Columns(txengine.Stats{}, 10)

func mustSystem(name string, kind txengine.MapKind, wl bench.Workload, cfg txengine.Config) *bench.System {
	sys, err := bench.NewSystem(name, kind, wl, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	return sys
}

// runLatency prints Figure 10 at th threads: per panel, each mode's ns per
// transaction (or per op group without one), th·1e9/throughput of one run.
func runLatency(fig string, th int, ratios [][3]int, scale float64, dur time.Duration, ecfg txengine.Config) {
	// (b) payloads on NVM, persistence off: the same engine as (c), with
	// free write-back (epoch system idle) but NVM store latency charged.
	noPersist := ecfg
	noPersist.Latencies = pnvm.Latencies{Write: ecfg.Latencies.Write}
	noPersist.EpochLen = time.Hour
	series := []struct {
		panel, mode, engine string
		cfg                 txengine.Config
	}{
		// (a) DRAM: Original vs TxOff vs TxOn on the transient Medley list.
		{"10a", "Original", "original", txengine.Config{}},
		{"10a", "TxOff", "medley", txengine.Config{}},
		{"10a", "TxOn", "medley", txengine.Config{}},
		{"10b", "TxOff", "txmontage", noPersist},
		{"10b", "TxOn", "txmontage", noPersist},
		// (c) full persistence on.
		{"10c", "TxOff", "txmontage", ecfg},
		{"10c", "TxOn", "txmontage", ecfg},
	}
	fmt.Printf("\n## Figure 10 (skiplist latency at %d threads, ns/txn)\n", th)
	fmt.Printf("%-10s %-10s %-10s %12s\n", "panel", "mode", "ratio", "ns/txn")
	for _, r := range ratios {
		wl := bench.PaperWorkload(r[0], r[1], r[2], scale)
		for _, s := range series {
			if fig != "10" && fig != s.panel {
				continue
			}
			sys := mustSystem(s.engine, txengine.KindSkip, wl, s.cfg)
			res := bench.RunThroughput(sys, wl, th, dur, s.mode == "TxOn")
			sys.Close()
			fmt.Printf("%-10s %-10s %-10s %12.0f\n", s.panel, s.mode, wl.Ratio(), float64(th)*1e9/res.Throughput)
		}
	}
}
