// Command txserver serves one transactional uint64 map over the internal/
// server wire protocol (length-prefixed binary frames carrying Get, Put, and
// multi-op Txn batches with pre-declared footprints). Any registry engine
// with dynamic transactions can back it; the default is medley, where the
// batch scheduler's footprint hints let transactions over two keys or more
// latch their keys up front.
//
// Each connection gets one goroutine and an engine session of its own (handed
// on to a later connection when it closes), and is served a burst at a time:
// one read takes what the client has pipelined (at most -queue requests, the
// server side of the client's pipelining window), one ordered pass over the
// engine answers it, one write returns the responses. A token-based
// admission controller sheds excess load with an explicit RETRY status
// instead of queueing toward collapse. On engines with a snapshot tier,
// read-only work — Gets and all-Read Txn batches — is served through the
// read fast lane: each contiguous run of reads in a burst is answered from
// one snapshot cut pinned by the connection's own session, no OCC, no
// admission tokens, no waiting for any other connection (-noreadlane reverts
// to the pure OCC path for A/B runs). SIGINT/SIGTERM triggers a graceful
// drain: in-flight requests finish, new ones are rejected with DRAINING,
// persistent engines sync a durable cut, and the process exits 0.
//
// Examples:
//
//	txserver                                   # medley on :7433
//	txserver -batch 32
//	txserver -engine txmontage -devices 4          # persistent over 4 devices: drain syncs
//	txserver -engine medley -addr 127.0.0.1:9000 -tokens 2
//	txserver -noreadlane                       # A/B control: OCC-only reads
//	txserver -pprof 127.0.0.1:6060             # profiling endpoints
//	txserver -idletimeout 30s -writetimeout 5s # cut dead/stalled connections
//	txserver -chaos 'server.frame.write=torn@every=40'   # fault injection
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // -pprof serves the standard profiling endpoints
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"medley/internal/chaos"
	"medley/internal/metrics"
	"medley/internal/pnvm"
	"medley/internal/server"
	"medley/internal/txengine"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:7433", "listen address")
	engine := flag.String("engine", "medley", "registry engine to host (needs dynamic transactions; see medleybench -list)")
	devices := flag.Int("devices", 1, "device count of txmontage; other engines ignore it")
	batch := flag.Int("batch", server.DefaultBatchMax, "max adjacent single-op requests coalesced into one hinted transaction (1: off)")
	tokens := flag.Int("tokens", 4*runtime.GOMAXPROCS(0), "admission tokens: concurrent executing batches")
	admitWait := flag.Duration("admitwait", server.DefaultAdmitWait, "how long a batch waits for admission before RETRY (negative: shed immediately)")
	queue := flag.Int("queue", server.DefaultQueueDepth, "most requests one connection is served per burst — one read, one pass over the engine, one write")
	grace := flag.Duration("grace", server.DefaultDrainGrace, "drain grace for in-flight requests")
	epochLen := flag.Duration("epoch", 10*time.Millisecond, "txMontage epoch length")
	noReadLane := flag.Bool("noreadlane", false, "disable the snapshot read fast lane (A/B control: every request runs OCC)")
	idleTimeout := flag.Duration("idletimeout", 0, "close connections idle longer than this between frames (0: never)")
	writeTimeout := flag.Duration("writetimeout", 0, "per-response write deadline (0: none)")
	chaosSpecs := flag.String("chaos", os.Getenv("MEDLEY_CHAOS"),
		"comma-separated fault specs to arm, name=kind[:arg][@after=N][@every=N][@times=N] (default: $MEDLEY_CHAOS)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (empty: off)")
	flag.Parse()

	eng, err := txengine.Build(*engine, txengine.Config{
		Latencies: pnvm.DefaultLatencies(), EpochLen: *epochLen,
		Shards: *devices,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	// Main owns the engine: it is closed below, after the drain completes and
	// the final stats are printed.
	// Arm any requested fault points before serving; a crash spec takes the
	// engine's device fleet down with the process when the engine persists.
	if *chaosSpecs != "" {
		if p, ok := eng.(txengine.Persister); ok {
			devs := p.Devices()
			chaos.SetCrashAction(func() {
				for _, d := range devs {
					d.Crash()
				}
			})
		}
		if err := chaos.ArmSpecs(*chaosSpecs); err != nil {
			eng.Close()
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Printf("txserver: chaos armed: %s\n", *chaosSpecs)
	}
	s, err := server.New(eng, server.Options{
		BatchMax: *batch, Tokens: *tokens, AdmitWait: *admitWait,
		QueueDepth: *queue, DrainGrace: *grace,
		NoReadLane:  *noReadLane,
		IdleTimeout: *idleTimeout, WriteTimeout: *writeTimeout,
	})
	if err != nil {
		eng.Close()
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		eng.Close()
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	fmt.Printf("txserver: %s on %s (batch=%d tokens=%d readlane=%v)\n",
		eng.Name(), ln.Addr(), *batch, *tokens, s.ReadLaneEnabled())
	if *pprofAddr != "" {
		go func() {
			// DefaultServeMux carries the pprof handlers via the blank import.
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "txserver: pprof:", err)
			}
		}()
		fmt.Printf("txserver: pprof on %s\n", *pprofAddr)
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		got := <-sig
		fmt.Printf("txserver: %v — draining\n", got)
		s.Drain()
	}()

	err = s.Serve(ln)
	// Serve returns as soon as the listener stops accepting — the drain
	// itself (in-flight requests, durable sync) may still be running in the
	// signal goroutine. Join it: Drain is idempotent and blocks until the
	// drain completes, so the report below and a zero exit really mean every
	// acknowledged commit is finished and durable.
	s.Drain()
	fmt.Println("txserver: engine", eng.Stats())
	fmt.Println("txserver: server", metrics.Format(s.Counters()))
	eng.Close()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println("txserver: drained clean")
}
