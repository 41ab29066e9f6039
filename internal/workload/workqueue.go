package workload

import (
	"fmt"
	"math/rand/v2"
	"sync/atomic"

	"medley/internal/txengine"
)

// workqueueScenario is the paper's motivating composition: a FIFO queue of
// pending jobs plus a map of job states, mutated together. Producers
// atomically enqueue a job and register its state; consumers atomically
// dequeue a job and mark it claimed. On engines without transactions
// (Original) the same operation pairs run back to back, so the run measures
// the untransformed baseline — and the post-run audit counts how often the
// composition was caught torn (a consumer observing a job before its state
// registration became visible).
var workqueueScenario = Scenario{
	Key: "workqueue",
	Doc: "transactional dequeue-and-claim over a queue + job-state map",
	CanRun: func(b txengine.Builder) error {
		if !b.Caps.Has(txengine.CapQueue) {
			return fmt.Errorf("workload: engine %q has no transactional queue: %w",
				b.Key, txengine.ErrUnsupported)
		}
		if !b.Caps.Has(txengine.CapTx|txengine.CapDynamicTx) && !b.Caps.Has(txengine.CapNoTx) {
			return fmt.Errorf("workload: engine %q can run neither the transactional nor the bare workqueue: %w",
				b.Key, txengine.ErrUnsupported)
		}
		return nil
	},
	run: runWorkqueue,
}

const jobPending = uint64(0)

func runWorkqueue(eng txengine.Engine, caps txengine.Caps, cfg Config) (Result, error) {
	q, err := eng.NewUintQueue()
	if err != nil {
		return Result{}, err
	}
	states, err := eng.NewUintMap(txengine.MapSpec{Kind: mapKind(caps), Buckets: 1 << 14})
	if err != nil {
		return Result{}, err
	}
	transactional := caps.Has(txengine.CapTx | txengine.CapDynamicTx)

	var produced, claimed, empty, violations atomic.Uint64

	// jobID packs the producing worker into the high bits so every worker
	// mints unique ids without coordination.
	jobID := func(tid int, n uint64) uint64 { return uint64(tid+1)<<40 | n }

	// Prefill a backlog so consumers find work immediately (worker id past
	// the measured range keeps its ids distinct).
	prefillTx := eng.NewWorker(cfg.threads())
	backlog := cfg.scaled(1024, 64)
	for n := 0; n < backlog; n++ {
		j := jobID(cfg.threads(), uint64(n))
		enq := func() {
			q.Enqueue(prefillTx, j)
			states.Insert(prefillTx, j, jobPending)
		}
		if transactional {
			if err := prefillTx.Run(func() error { enq(); return nil }); err != nil {
				return Result{}, err
			}
		} else {
			prefillTx.NoTx(enq)
		}
		produced.Add(1)
	}

	res := cfg.drive(eng, func(tid int) func() uint64 {
		tx := eng.NewWorker(tid)
		rng := rand.New(rand.NewPCG(cfg.seed(), uint64(tid)))
		var seq uint64
		claimer := uint64(tid) + 1
		return func() uint64 {
			if rng.IntN(2) == 0 { // produce
				seq++
				j := jobID(tid, seq)
				body := func() {
					q.Enqueue(tx, j)
					states.Insert(tx, j, jobPending)
				}
				if transactional {
					if tx.Run(func() error { body(); return nil }) != nil {
						return 0
					}
				} else {
					tx.NoTx(body)
				}
				produced.Add(1)
				return 1
			}
			// consume: dequeue a job and mark it claimed, atomically.
			var j, st uint64
			var got, known bool
			body := func() {
				j, got = q.Dequeue(tx)
				if !got {
					return
				}
				st, known = states.Get(tx, j)
				states.Put(tx, j, claimer)
			}
			if transactional {
				if tx.Run(func() error { body(); return nil }) != nil {
					return 0
				}
			} else {
				tx.NoTx(body)
			}
			if !got {
				empty.Add(1)
				return 1
			}
			if !known || st != jobPending {
				// The dequeued job's registration was not visible (or it was
				// already claimed): the queue+map composition was torn.
				violations.Add(1)
			}
			claimed.Add(1)
			return 1
		}
	})

	// Post-run audit: drain the queue; every job must be either claimed or
	// still pending in the backlog — none lost, none claimed twice.
	audit := eng.NewWorker(cfg.threads() + 1)
	leftover := uint64(0)
	for {
		j, ok := q.Dequeue(audit)
		if !ok {
			break
		}
		leftover++
		if st, known := states.Get(audit, j); !known || st != jobPending {
			violations.Add(1)
		}
	}
	res.Aux = []AuxCount{
		{"produced", produced.Load()},
		{"claimed", claimed.Load()},
		{"empty", empty.Load()},
		{"leftover", leftover},
	}
	diff := int64(produced.Load()) - int64(claimed.Load()) - int64(leftover)
	if diff > 0 {
		res.Aux = append(res.Aux, AuxCount{"lost", uint64(diff)})
	} else if diff < 0 {
		res.Aux = append(res.Aux, AuxCount{"dup", uint64(-diff)})
	}
	res.Aux = append(res.Aux, AuxCount{"violations", violations.Load()})
	return res, nil
}
