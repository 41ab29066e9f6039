package txengine

import (
	"medley/internal/core"
	"medley/internal/structures/fskiplist"
	"medley/internal/structures/msqueue"
)

const originalCaps = CapNoTx | CapSkipMap | CapQueue

// originalEngine exposes the untransformed nonblocking structures — the
// Figure 10 "Original" baseline. It supports no transactions at all: Run
// panics, NoTx executes operations back to back, and Stats is permanently
// zero (there is nothing to instrument). Workers still carry sessions
// because the M&S queue's operations take one; used strictly outside
// transactions they elide all NBTC instrumentation, so the queue behaves
// as the plain Michael & Scott algorithm.
type originalEngine struct {
	mgr *core.TxManager
}

func newOriginalEngine(Config) (Engine, error) {
	return &originalEngine{mgr: core.NewTxManager()}, nil
}

func (e *originalEngine) Name() string { return "Original" }
func (e *originalEngine) Caps() Caps   { return originalCaps }
func (e *originalEngine) Stats() Stats { return Stats{} }
func (e *originalEngine) Close()       {}

func (e *originalEngine) NewUintMap(spec MapSpec) (Map[uint64], error) {
	if spec.Kind == KindHash {
		return nil, ErrUnsupported
	}
	return originalMap{sl: fskiplist.NewOriginal[uint64, uint64]()}, nil
}

func (e *originalEngine) NewRowMap(MapSpec) (Map[any], error) { return nil, ErrUnsupported }

func (e *originalEngine) NewUintQueue() (Queue[uint64], error) {
	return originalQueue{q: msqueue.New[uint64]()}, nil
}

func (e *originalEngine) NewWorker(int) Tx { return originalTx{s: e.mgr.Session()} }

type originalTx struct{ s *core.Session }

func (originalTx) Run(func() error) error { panic("txengine: Original supports no transactions") }
func (originalTx) RunRead(func())         { panic("txengine: Original supports no transactions") }
func (originalTx) NoTx(fn func())         { fn() }
func (originalTx) Abort() error           { panic("txengine: Original supports no transactions") }

type originalMap struct {
	sl *fskiplist.Original[uint64, uint64]
}

func (m originalMap) Get(_ Tx, k uint64) (uint64, bool)           { return m.sl.Get(k) }
func (m originalMap) Put(_ Tx, k uint64, v uint64) (uint64, bool) { return m.sl.Put(k, v) }
func (m originalMap) Insert(_ Tx, k uint64, v uint64) bool        { return m.sl.Insert(k, v) }
func (m originalMap) Remove(_ Tx, k uint64) (uint64, bool)        { return m.sl.Remove(k) }

// originalQueue is the M&S queue used non-transactionally: every operation
// runs outside a transaction, so the NBTC instrumentation is elided.
type originalQueue struct{ q *msqueue.Queue[uint64] }

func (a originalQueue) Enqueue(tx Tx, v uint64) { a.q.Enqueue(tx.(originalTx).s, v) }
func (a originalQueue) Dequeue(tx Tx) (uint64, bool) {
	return a.q.Dequeue(tx.(originalTx).s)
}
