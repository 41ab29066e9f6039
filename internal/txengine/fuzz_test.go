package txengine

import (
	"errors"
	"math/rand/v2"
	"sync"
	"testing"

	"medley/internal/history"
)

// apply runs op on m through tx and returns it with m's answer.
func apply(m Map[uint64], tx Tx, op history.Op) history.Op {
	switch op.Kind {
	case history.Get:
		op.Val, op.Ok = m.Get(tx, op.Key)
	case history.Put:
		op.Val, op.Ok = m.Put(tx, op.Key, op.Arg)
	case history.Insert:
		op.Ok = m.Insert(tx, op.Key, op.Arg)
	case history.Remove:
		op.Val, op.Ok = m.Remove(tx, op.Key)
	}
	return op
}

// stampSince is the commit timestamp of the write tx has just made, if it
// published one: LastCommitTS moved from before.
func stampSince(tx Tx, before uint64) uint64 {
	if ts := LastCommitTS(tx); ts != before {
		return ts
	}
	return 0
}

// runOps runs ops as one transaction through tx, its body returning abort,
// and records it if it committed, with the answers of the attempt that did
// (blind: answers a static transaction does not give) and its commit stamp.
func runOps(rec *history.Recorder, proc int, m Map[uint64], tx Tx, ops []history.Op, blind bool, abort error) error {
	got := make([]history.Op, len(ops))
	before, inv := LastCommitTS(tx), rec.Invoke()
	err := tx.Run(func() error {
		for i, op := range ops {
			got[i] = apply(m, tx, op)
			got[i].Blind = blind
		}
		return abort
	})
	if err == nil {
		rec.Complete(history.Event{Proc: proc, Mode: history.Run, Ops: got, Invoke: inv, TS: stampSince(tx, before)})
	}
	return err
}

// single runs op standalone through tx and records it.
func single(rec *history.Recorder, proc int, m Map[uint64], tx Tx, op history.Op) {
	before, inv := LastCommitTS(tx), rec.Invoke()
	op = apply(m, tx, op)
	rec.Complete(history.Event{Proc: proc, Mode: history.Single, Ops: []history.Op{op}, Invoke: inv, TS: stampSince(tx, before)})
}

// snapshotOps reads keys at one snapshot cut through tx and records the reads
// with the cut.
func snapshotOps(rec *history.Recorder, proc int, m Map[uint64], tx Tx, keys []uint64) {
	ops := make([]history.Op, len(keys))
	inv := rec.Invoke()
	cut, _ := SnapshotReadBatch(tx, 1, func(int, uint64) {
		for i, k := range keys {
			ops[i] = apply(m, tx, history.Op{Kind: history.Get, Key: k})
		}
	})
	rec.Complete(history.Event{Proc: proc, Mode: history.Snapshot, Ops: ops, Invoke: inv, TS: cut})
}

// readAll records one transaction reading every key below n.
func readAll(rec *history.Recorder, proc int, m Map[uint64], tx Tx, n uint64) error {
	ops := make([]history.Op, n)
	for k := range n {
		ops[k] = history.Op{Kind: history.Get, Key: k}
	}
	return runOps(rec, proc, m, tx, ops, false, nil)
}

// TestFuzzConformance runs random transactions of one to four operations over
// eight keys, a tenth of them business-aborted, and standalone operations,
// from several workers on every registered engine, then a read of every key,
// and hands the history to the checker: every transaction strictly
// serializable, every standalone operation linearizable, every abort rolled
// back. Written values are unique. On an engine without transactions
// (Original) every operation is standalone; inside LFTT's static transactions
// answers are not part of the contract, effects are. Each engine runs two
// histories: a small one, which the whole-history search settles, and a large
// one, checked key by key.
func TestFuzzConformance(t *testing.T) {
	errBiz := errors.New("fuzz: deliberate abort")
	const keys = 8
	for _, b := range sweptBuilders() {
		t.Run(b.Key, func(t *testing.T) {
			for _, scope := range []struct {
				workers, iters int
				check          func([]history.Event) error
			}{{3, 40, history.Check}, {4, 600, history.CheckKeys}} {
				eng := buildForTest(t, b)
				m, err := eng.NewUintMap(testSpec(b.Caps))
				if err != nil {
					t.Fatal(err)
				}
				var rec history.Recorder
				var wg sync.WaitGroup
				for w := range scope.workers {
					wg.Add(1)
					go func() {
						defer wg.Done()
						tx := eng.NewWorker(w)
						rng := rand.New(rand.NewPCG(uint64(w)+1, 0xfeed))
						val := uint64(w+1) << 32
						for range scope.iters {
							ops := make([]history.Op, 1+rng.IntN(4))
							for i := range ops {
								val++
								ops[i] = history.Op{Kind: history.Kind(rng.IntN(4)), Key: rng.Uint64N(keys), Arg: val}
							}
							if !b.Caps.Has(CapTx) || rng.IntN(4) == 0 {
								for _, op := range ops {
									single(&rec, w, m, tx, op)
								}
								continue
							}
							var abort error
							if rng.IntN(10) == 0 {
								abort = errBiz
							}
							if err := runOps(&rec, w, m, tx, ops, !b.Caps.Has(CapDynamicTx), abort); !errors.Is(err, abort) {
								t.Errorf("Run = %v, want %v", err, abort)
								return
							}
						}
					}()
				}
				wg.Wait()
				tx := eng.NewWorker(scope.workers)
				for k := range uint64(keys) {
					single(&rec, scope.workers, m, tx, history.Op{Kind: history.Get, Key: k})
				}
				eng.Close()
				if err := scope.check(rec.Events()); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}
