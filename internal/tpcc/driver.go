package tpcc

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"medley/internal/txengine"
)

// Result is one measured TPC-C throughput point.
type Result struct {
	System     string
	Threads    int
	Txns       uint64
	Duration   time.Duration
	Throughput float64        // transactions per second (newOrder + payment)
	Stats      txengine.Stats // engine stats delta over the measured run
}

// Run drives the newOrder:payment 1:1 mix (Figure 9's methodology) with the
// given thread count for dur, and reports aggregate throughput. The store
// must already be loaded.
func Run(st Store, cfg Config, threads int, dur time.Duration) Result {
	base := st.Stats()
	var stop atomic.Bool
	var total atomic.Uint64
	var wg sync.WaitGroup
	var ready, start sync.WaitGroup
	ready.Add(threads)
	start.Add(1)
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			w := st.NewWorker(tid + 1)
			rng := rand.New(rand.NewPCG(uint64(tid)+1, 42))
			var histSeq uint64
			var keyBuf [4]uint64
			n := uint64(0)
			ready.Done()
			start.Wait()
			for !stop.Load() {
				var err error
				if rng.IntN(2) == 0 {
					err = w.RunTx(func(h Handle) error { return NewOrder(h, cfg, rng, tid) })
				} else {
					// Payment's keys are known before the transaction, so
					// draw first and hint them: on sharded engines the
					// cross-shard ones open their shards up front and
					// commit under key latches.
					a := DrawPayment(cfg, rng, tid, &histSeq)
					err = w.RunTxHinted(a.Keys(keyBuf[:0]), func(h Handle) error { return PaymentWith(h, a) })
				}
				if err == nil {
					n++
				}
			}
			total.Add(n)
		}(t)
	}
	ready.Wait()
	t0 := time.Now()
	start.Done()
	time.Sleep(dur)
	stop.Store(true)
	wg.Wait()
	el := time.Since(t0)
	txns := total.Load()
	return Result{
		System: st.Name(), Threads: threads, Txns: txns, Duration: el,
		Throughput: float64(txns) / el.Seconds(),
		Stats:      st.Stats().Delta(base),
	}
}
