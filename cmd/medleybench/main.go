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
// are the reproduction target (see EXPERIMENTS.md).
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
	threads := parseThreads(*threadsFlag)
	opt := bench.Options{Latencies: pnvm.DefaultLatencies(), EpochLen: *epochLen, Shards: *devices}
	fmt.Printf("# host: GOMAXPROCS=%d; scale=%.2f; dur=%v\n", runtime.GOMAXPROCS(0), *scale, *dur)

	if *wlFlag != "" {
		if *zipfS != 0 && *zipfS <= 1 {
			fmt.Fprintln(os.Stderr, "bad -zipf: the skew exponent must be > 1.0 (or 0 for the default)")
			os.Exit(2)
		}
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
			Dur: *dur, Warmup: *warmup, Scale: *scale,
			Latencies: pnvm.DefaultLatencies(), EpochLen: *epochLen,
			Shards: *devices, ZipfS: *zipfS, ReadPct: rp,
			Accounts: *accounts, Latency: *lat, NoHints: *noHints,
			Snapshot: *snapshot,
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
					sys := mustSystem(name, kind, wl, opt)
					res := bench.RunThroughput(sys, wl, th, *dur)
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
		runLatency(*figure, ratios, *scale, *dur, opt)
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
		r[i] = v
	}
	return [][3]int{r}
}

func parseThreads(threadsFlag string) []int {
	if threadsFlag == "" {
		return bench.DefaultThreadSweep()
	}
	var threads []int
	for _, p := range splitList(threadsFlag) {
		v, err := strconv.Atoi(p)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bad -threads:", err)
			os.Exit(2)
		}
		threads = append(threads, v)
	}
	return threads
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
	wls := splitList(wlFlag)
	if wlFlag == "all" {
		wls = workload.Names()
	}
	// Fail fast on bad selections, before the first (potentially long)
	// measurement sweep runs: unknown names always abort, as does an engine
	// that can host none of the selected workloads. An engine capable of
	// only some of several selected workloads has the incapable pairs
	// skipped with a notice, so `-workload all -systems onefile` runs the
	// map scenarios instead of dying on the queue one.
	for _, name := range wls {
		if _, ok := workload.Lookup(name); !ok {
			fmt.Fprintf(os.Stderr, "unknown workload %q (have %s)\n", name, strings.Join(workload.Names(), ", "))
			os.Exit(2)
		}
	}
	if systemsFlag != "" {
		for _, engine := range splitList(systemsFlag) {
			b, ok := txengine.Lookup(engine)
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown engine %q (see -list)\n", engine)
				os.Exit(2)
			}
			var firstErr error
			capable := 0
			for _, name := range wls {
				sc, _ := workload.Lookup(name)
				err := sc.CanRun(b)
				if err == nil && cfg.Snapshot && !b.Caps.Has(txengine.CapSnapshot) {
					err = fmt.Errorf("engine %q cannot serve -snapshot reads (needs CapSnapshot)", engine)
				}
				if err == nil {
					capable++
				} else if firstErr == nil {
					firstErr = err
				}
			}
			if capable == 0 {
				fmt.Fprintln(os.Stderr, firstErr)
				os.Exit(2)
			}
		}
	}
	for _, name := range wls {
		sc, _ := workload.Lookup(name)
		systems := workload.Engines(name)
		if systemsFlag != "" {
			systems = nil
			for _, engine := range splitList(systemsFlag) {
				b, _ := txengine.Lookup(engine)
				if err := sc.CanRun(b); err != nil {
					fmt.Fprintf(os.Stderr, "# skipping %s on %s: %v\n", name, engine, err)
					continue
				}
				if cfg.Snapshot && !b.Caps.Has(txengine.CapSnapshot) {
					fmt.Fprintf(os.Stderr, "# skipping %s on %s: engine cannot serve -snapshot reads (needs CapSnapshot)\n", name, engine)
					continue
				}
				systems = append(systems, engine)
			}
		} else if cfg.Snapshot {
			kept := systems[:0]
			for _, engine := range systems {
				if b, _ := txengine.Lookup(engine); b.Caps.Has(txengine.CapSnapshot) {
					kept = append(kept, engine)
				} else {
					fmt.Fprintf(os.Stderr, "# skipping %s on %s: engine cannot serve -snapshot reads (needs CapSnapshot)\n", name, engine)
				}
			}
			systems = kept
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

func mustSystem(name string, kind txengine.MapKind, wl bench.Workload, opt bench.Options) bench.System {
	sys, err := bench.NewSystem(name, kind, wl, opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	return sys
}

func runLatency(fig string, ratios [][3]int, scale float64, dur time.Duration, opt bench.Options) {
	// The paper measures at 40 threads (half the hyperthreads); use half of
	// GOMAXPROCS here.
	th := runtime.GOMAXPROCS(0) / 2
	if th < 1 {
		th = 1
	}
	fmt.Printf("\n## Figure 10 (skiplist latency at %d threads, ns/txn)\n", th)
	fmt.Printf("%-10s %-10s %-10s %12s\n", "panel", "mode", "ratio", "ns/txn")
	for _, r := range ratios {
		wl := bench.PaperWorkload(r[0], r[1], r[2], scale)
		if fig == "10" || fig == "10a" {
			// (a) DRAM: Original vs TxOff vs TxOn on the transient Medley list.
			o := mustSystem("original", txengine.KindSkip, wl, bench.Options{})
			res := bench.RunLatency(o, wl, bench.ModeOriginal, th, dur)
			fmt.Printf("%-10s %-10s %-10s %12.0f\n", "10a", "Original", wl.Ratio(), res.NsPerTx)
			o.Close()
			for _, mode := range []bench.LatencyMode{bench.ModeTxOff, bench.ModeTxOn} {
				sys := mustSystem("medley", txengine.KindSkip, wl, bench.Options{})
				res := bench.RunLatency(sys, wl, mode, th, dur)
				fmt.Printf("%-10s %-10s %-10s %12.0f\n", "10a", mode, wl.Ratio(), res.NsPerTx)
				sys.Close()
			}
		}
		if fig == "10" || fig == "10b" {
			// (b) payloads on NVM, persistence off: montage maps with free
			// write-back (epoch system idle) but NVM store latency charged.
			noPersist := bench.Options{Latencies: pnvm.Latencies{Write: opt.Latencies.Write}, EpochLen: time.Hour}
			for _, mode := range []bench.LatencyMode{bench.ModeTxOff, bench.ModeTxOn} {
				sys := mustSystem("txmontage", txengine.KindSkip, wl, noPersist)
				res := bench.RunLatency(sys, wl, mode, th, dur)
				fmt.Printf("%-10s %-10s %-10s %12.0f\n", "10b", mode, wl.Ratio(), res.NsPerTx)
				sys.Close()
			}
		}
		if fig == "10" || fig == "10c" {
			// (c) full persistence on.
			for _, mode := range []bench.LatencyMode{bench.ModeTxOff, bench.ModeTxOn} {
				sys := mustSystem("txmontage", txengine.KindSkip, wl, opt)
				res := bench.RunLatency(sys, wl, mode, th, dur)
				fmt.Printf("%-10s %-10s %-10s %12.0f\n", "10c", mode, wl.Ratio(), res.NsPerTx)
				sys.Close()
			}
		}
	}
}
