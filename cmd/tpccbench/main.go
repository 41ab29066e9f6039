// Command tpccbench regenerates Figure 9 of the Medley paper: throughput of
// the TPC-C newOrder + payment mix (1:1) over transactional tables,
// comparing backends resolved by name through the internal/txengine
// registry. The default series is the paper's — Medley, txMontage, OneFile,
// TDSL — plus the boosted lock-based map; -systems selects any row-capable
// subset. (LFTT cannot run TPC-C: it supports only static transactions, as
// the paper notes; asking for it fails with an explanation.)
//
// Examples:
//
//	tpccbench -dur 3s -warehouses 4 -threads 1,2,4,8,16
//	tpccbench -systems medley,boost
//	tpccbench -list
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"medley/internal/bench"
	"medley/internal/metrics"
	"medley/internal/pnvm"
	"medley/internal/tpcc"
	"medley/internal/txengine"
)

func main() {
	warehouses := flag.Int("warehouses", 2, "number of warehouses")
	systemsFlag := flag.String("systems", "", "comma-separated engine names (default: "+strings.Join(tpcc.DefaultEngines(), ",")+")")
	list := flag.Bool("list", false, "list registered engines and exit")
	threadsFlag := flag.String("threads", "", "comma-separated thread counts (default: host sweep)")
	dur := flag.Duration("dur", 2*time.Second, "measurement duration per point")
	epochLen := flag.Duration("epoch", 10*time.Millisecond, "txMontage epoch length")
	devices := flag.Int("devices", 1, "device count of txmontage; other engines ignore it")
	flag.Parse()

	if *list {
		for _, b := range txengine.Builders() {
			note := ""
			if !b.Caps.Has(txengine.CapDynamicTx | txengine.CapRowMaps) {
				note = " (cannot run TPC-C)"
			}
			fmt.Printf("%-10s %s%s\n", b.Key, b.Doc, note)
		}
		return
	}

	systems := tpcc.DefaultEngines()
	if *systemsFlag != "" {
		systems = nil
		for _, p := range strings.Split(*systemsFlag, ",") {
			if p = strings.TrimSpace(p); p != "" {
				systems = append(systems, p)
			}
		}
	}
	// Fail fast on bad selections, before any measurement sweep runs.
	for _, name := range systems {
		if err := tpcc.CanRun(name); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}

	threads, err := bench.ParseThreads(*threadsFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bad -threads:", err)
		os.Exit(2)
	}
	if *warehouses < 1 {
		fmt.Fprintln(os.Stderr, "bad -warehouses: want at least 1")
		os.Exit(2)
	}
	if *dur <= 0 {
		fmt.Fprintln(os.Stderr, "bad -dur: want a positive duration")
		os.Exit(2)
	}

	cfg := tpcc.DefaultConfig(*warehouses)
	ecfg := txengine.Config{Latencies: pnvm.DefaultLatencies(), EpochLen: *epochLen, Shards: *devices}
	fmt.Printf("# host: GOMAXPROCS=%d; warehouses=%d; dur=%v\n", runtime.GOMAXPROCS(0), *warehouses, *dur)
	fmt.Printf("\n## Figure 9 (TPC-C newOrder:payment 1:1)\n")
	head, _ := metrics.Columns(txengine.Stats{}, 10)
	fmt.Printf("%-12s %8s %14s%s\n", "system", "threads", "txn/s", head)

	for _, name := range systems {
		for _, th := range threads {
			st, err := tpcc.NewStore(name, ecfg)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			tpcc.Load(st, cfg)
			res := tpcc.Run(st, cfg, th, *dur)
			st.Close()
			_, row := metrics.Columns(res.Stats, 10)
			fmt.Printf("%-12s %8d %14.0f%s\n", res.System, res.Threads, res.Throughput, row)
		}
	}
}
