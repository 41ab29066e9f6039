// Package bench is the harness that regenerates the Medley paper's
// evaluation (Section 6): the transactional microbenchmark of Figures 7–8,
// the latency study of Figure 10, and the supporting machinery for the
// TPC-C study of Figure 9 (see package tpcc). Drive is the one closed-loop
// driver: the figures, package tpcc's Run and the scenarios of package
// workload all measure through it.
//
// Methodology follows Section 6.1: structures are preloaded with
// Preload key-value pairs drawn from a KeySpace of uniformly random 8-byte
// keys; each thread then composes and executes transactions of 1–10
// operations, choosing get / insert / remove in a configured ratio (0:1:1,
// 2:1:1, or 18:1:1 in the paper).
package bench

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"medley/internal/metrics"
	"medley/internal/txengine"
)

// OpKind selects a map operation.
type OpKind uint8

const (
	Get OpKind = iota
	Insert
	Remove
)

// Op is one operation of a generated transaction.
type Op struct {
	Kind OpKind
	Key  uint64
	Val  uint64
}

// Workload describes the microbenchmark configuration.
type Workload struct {
	KeySpace uint64 // keys drawn uniformly from [0, KeySpace)
	Preload  int    // pairs inserted before measurement
	GetW     int    // get weight   (paper: 0, 2, or 18)
	InsW     int    // insert weight (paper: 1)
	RemW     int    // remove weight (paper: 1)
	MinOps   int    // min ops per transaction (paper: 1)
	MaxOps   int    // max ops per transaction (paper: 10)
}

// PaperWorkload returns the paper's configuration for a get:insert:remove
// ratio, at a scale factor (1.0 = the paper's 1M keyspace / 0.5M preload).
func PaperWorkload(getW, insW, remW int, scale float64) Workload {
	ks := uint64(float64(1_000_000) * scale)
	if ks < 16 {
		ks = 16
	}
	return Workload{
		KeySpace: ks,
		Preload:  int(ks / 2),
		GetW:     getW, InsW: insW, RemW: remW,
		MinOps: 1, MaxOps: 10,
	}
}

// Ratio returns "g:i:r" for reports.
func (w Workload) Ratio() string { return fmt.Sprintf("%d:%d:%d", w.GetW, w.InsW, w.RemW) }

// GenTx fills buf with a random transaction and returns it.
func (w Workload) GenTx(rng *rand.Rand, buf []Op) []Op {
	n := w.MinOps
	if w.MaxOps > w.MinOps {
		n += rng.IntN(w.MaxOps - w.MinOps + 1)
	}
	buf = buf[:0]
	total := w.GetW + w.InsW + w.RemW
	for i := 0; i < n; i++ {
		k := rng.Uint64N(w.KeySpace)
		r := rng.IntN(total)
		var kind OpKind
		switch {
		case r < w.GetW:
			kind = Get
		case r < w.GetW+w.InsW:
			kind = Insert
		default:
			kind = Remove
		}
		buf = append(buf, Op{Kind: kind, Key: k, Val: k + 1})
	}
	return buf
}

// Result is one measured closed-loop run: figures 7, 8 and 10, TPC-C and
// the composition scenarios of package workload all report one.
type Result struct {
	System     string
	Threads    int
	Txns       uint64 // transactions completed in the measured window
	Duration   time.Duration
	Throughput float64        // transactions per second
	Stats      txengine.Stats // engine stats delta over the measured window
	P50, P99   time.Duration  // per-transaction latency percentiles (Drive's lat)
}

// Drive runs threads closed-loop workers and measures them: the one driver
// of every in-process harness. Each worker is built by newWorker (its tx
// handle, its rng) and then calls the returned iteration until warmup+dur
// has elapsed; an iteration returns the number of transactions it completed.
// Workers start together behind a barrier.
//
// When warmup is positive, workers run for that long before measurement
// begins: ramp-up iterations are discarded from the count and the
// histograms. stats is read at the start of the measured window and again
// once every worker has stopped, so Result.Stats covers the same window as
// Txns. With lat set, each iteration's wall time is recorded, weighted by
// its transaction count, into Result.P50 and P99.
func Drive(threads int, dur, warmup time.Duration, lat bool, stats func() txengine.Stats, newWorker func(tid int) func() uint64) Result {
	if threads < 1 {
		panic(fmt.Sprintf("bench: Drive needs at least one thread, got %d", threads))
	}
	var stop, measuring atomic.Bool
	var total atomic.Uint64
	var wg, ready, start sync.WaitGroup
	wg.Add(threads)
	ready.Add(threads)
	start.Add(1)
	var hists []metrics.Hist
	if lat {
		hists = make([]metrics.Hist, threads)
	}
	for t := 0; t < threads; t++ {
		go func(tid int) {
			defer wg.Done()
			iter := newWorker(tid)
			ready.Done()
			start.Wait()
			n := uint64(0)
			for !stop.Load() {
				var t0 time.Time
				if lat {
					t0 = time.Now()
				}
				c := iter()
				// Warm-up iterations are discarded whole; one spanning the
				// boundary lands on whichever side it finished. The sample
				// is weighted by the iteration's transaction count, and an
				// empty iteration (a lost conflict) records none: the
				// percentiles are per transaction.
				if measuring.Load() {
					if lat && c > 0 {
						hists[tid].RecordN(time.Since(t0), c)
					}
					n += c
				}
			}
			total.Add(n)
		}(t)
	}
	ready.Wait()
	if warmup > 0 {
		start.Done()
		time.Sleep(warmup)
	}
	// t0 is taken no later than the measuring flip: a transaction that
	// finishes after the flip is counted, so the window has to cover it.
	t0 := time.Now()
	measuring.Store(true)
	base := stats()
	if warmup <= 0 {
		start.Done()
	}
	time.Sleep(dur)
	stop.Store(true)
	wg.Wait()
	el := time.Since(t0)
	res := Result{
		Threads: threads, Txns: total.Load(), Duration: el,
		Stats: stats().Delta(base),
	}
	res.Throughput = float64(res.Txns) / el.Seconds()
	if lat {
		var merged metrics.Hist
		for i := range hists {
			merged.Merge(&hists[i])
		}
		if merged.Count() > 0 {
			res.P50, res.P99 = merged.Percentile(0.50), merged.Percentile(0.99)
		}
	}
	return res
}

// RunThroughput preloads sys and drives threads workers over wl for dur.
// Each iteration generates one transaction and runs it with RunTx, or with
// RunOpsNoTx when tx is false (Figure 10's Original and TxOff modes). A
// Figure 10 point's ns per transaction is threads·1e9/Throughput.
func RunThroughput(sys *System, wl Workload, threads int, dur time.Duration, tx bool) Result {
	sys.Preload(wl)
	res := Drive(threads, dur, 0, false, sys.Stats, func(tid int) func() uint64 {
		w := sys.NewWorker(tid)
		run := w.RunOpsNoTx
		if tx {
			run = w.RunTx
		}
		rng := rand.New(rand.NewPCG(uint64(tid)+1, 0x9e3779b97f4a7c15))
		buf := make([]Op, 0, wl.MaxOps)
		return func() uint64 {
			run(wl.GenTx(rng, buf))
			return 1
		}
	})
	res.System = sys.Name()
	return res
}

// ParseThreads parses a -threads flag: comma-separated thread counts, each
// at least 1. The empty string is DefaultThreadSweep.
func ParseThreads(s string) ([]int, error) {
	if s == "" {
		return DefaultThreadSweep(), nil
	}
	var out []int
	for _, p := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, err
		}
		if n < 1 {
			return nil, fmt.Errorf("thread count %d is below 1", n)
		}
		out = append(out, n)
	}
	return out, nil
}

// DefaultThreadSweep returns the thread counts used for throughput figures,
// scaled to the host (the paper sweeps 1..80 on an 80-hyperthread box).
func DefaultThreadSweep() []int {
	max := runtime.GOMAXPROCS(0)
	sweep := []int{1, 2, 4, 8, 12, 16, 24, 32, 48, 64, 80}
	var out []int
	for _, t := range sweep {
		if t <= max {
			out = append(out, t)
		}
	}
	if len(out) == 0 || out[len(out)-1] != max {
		out = append(out, max)
	}
	return out
}
