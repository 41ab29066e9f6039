package tpcc

import (
	"math/rand/v2"
	"time"

	"medley/internal/bench"
)

// Run drives the newOrder:payment 1:1 mix (Figure 9's methodology) with the
// given thread count for dur through bench.Drive, and reports aggregate
// throughput of committed transactions: a rolled-back newOrder counts in
// neither Txns nor the engine's commits. The store must already be loaded.
func Run(st *Store, cfg Config, threads int, dur time.Duration) bench.Result {
	res := bench.Drive(threads, dur, 0, false, st.Stats, func(tid int) func() uint64 {
		w := st.NewWorker(tid + 1)
		rng := rand.New(rand.NewPCG(uint64(tid)+1, 42))
		var histSeq uint64
		var keyBuf [4]uint64
		return func() uint64 {
			var err error
			if rng.IntN(2) == 0 {
				err = w.RunTx(func(h Handle) error { return NewOrder(h, cfg, rng, tid) })
			} else {
				// Payment's keys are known before the transaction, so draw
				// first and hint them: on the Medley family they commit
				// under key latches.
				a := DrawPayment(cfg, rng, tid, &histSeq)
				err = w.RunTxHinted(a.Keys(keyBuf[:0]), func(h Handle) error { return PaymentWith(h, a) })
			}
			if err != nil {
				return 0
			}
			return 1
		}
	})
	res.System = st.Name()
	return res
}
