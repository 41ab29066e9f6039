package txengine

import (
	"medley/internal/tdsl"
)

const tdslCaps = CapTx | CapDynamicTx | CapSkipMap | CapRowMaps

// tdslEngine drives TDSL-lite: blocking optimistic transactions with
// semantic read sets over hash-striped sequential skiplists. The partition
// granularity makes it skiplist-shaped (the paper's TDSL-skip); there is no
// separate hash variant.
type tdslEngine struct {
	tm      *tdsl.TM
	stripes int
	ct      counters
}

func newTDSLEngine(Config) (Engine, error) {
	return &tdslEngine{tm: tdsl.NewTM(), stripes: 512}, nil
}

func (e *tdslEngine) Name() string { return "TDSL" }
func (e *tdslEngine) Caps() Caps   { return tdslCaps }
func (e *tdslEngine) Stats() Stats { return e.ct.snapshot() }
func (e *tdslEngine) Close()       {}

func (e *tdslEngine) NewUintQueue() (Queue[uint64], error) { return nil, ErrUnsupported }

func (e *tdslEngine) stripesFor(spec MapSpec) int {
	if spec.Stripes > 0 {
		return spec.Stripes
	}
	return e.stripes
}

func (e *tdslEngine) NewUintMap(spec MapSpec) (Map[uint64], error) {
	if spec.Kind == KindHash {
		return nil, ErrUnsupported
	}
	return tdslMap[uint64]{m: tdsl.NewMap[uint64](e.stripesFor(spec))}, nil
}

func (e *tdslEngine) NewRowMap(spec MapSpec) (Map[any], error) {
	if spec.Kind == KindHash {
		return nil, ErrUnsupported
	}
	return tdslMap[any]{m: tdsl.NewMap[any](e.stripesFor(spec))}, nil
}

func (e *tdslEngine) NewWorker(int) Tx { return &tdslTx{tm: e.tm, ct: &e.ct} }

// tdslTx exposes the native tdsl.Tx of the current Run to the engine's
// maps; outside Run, cur is nil and map operations auto-commit one-shot
// transactions.
type tdslTx struct {
	tm      *tdsl.TM
	ct      *counters
	cur     *tdsl.Tx
	aborted bool // Abort doomed the current attempt
}

func (t *tdslTx) Run(fn func() error) error {
	return t.ct.countRun(func(body func() error) error {
		return t.tm.Run(func(tx *tdsl.Tx) error {
			t.cur, t.aborted = tx, false
			defer func() { t.cur = nil }()
			if err := body(); err != nil || !t.aborted {
				return err
			}
			return ErrBusinessAbort // fn called Abort and returned nil
		})
	}, fn)
}

func (t *tdslTx) RunRead(fn func()) { _ = t.Run(func() error { fn(); return nil }) }
func (t *tdslTx) NoTx(fn func()) {
	t.ct.fallbacks.Add(1)
	_ = t.Run(func() error { fn(); return nil })
}

// Abort relies on TDSL's write buffering: the transaction's writes are
// simply never committed once its attempt ends in ErrBusinessAbort.
func (t *tdslTx) Abort() error {
	t.aborted = t.cur != nil
	return ErrBusinessAbort
}

type tdslMap[V any] struct{ m *tdsl.Map[V] }

func (a tdslMap[V]) Get(tx Tx, k uint64) (v V, ok bool) {
	t := tx.(*tdslTx)
	if t.cur != nil {
		return a.m.Get(t.cur, k)
	}
	_ = t.Run(func() error { v, ok = a.m.Get(t.cur, k); return nil })
	return v, ok
}

func (a tdslMap[V]) Put(tx Tx, k uint64, v V) (old V, had bool) {
	t := tx.(*tdslTx)
	if t.cur != nil {
		return a.m.Put(t.cur, k, v)
	}
	_ = t.Run(func() error { old, had = a.m.Put(t.cur, k, v); return nil })
	return old, had
}

func (a tdslMap[V]) Insert(tx Tx, k uint64, v V) (ok bool) {
	t := tx.(*tdslTx)
	if t.cur != nil {
		return a.m.Insert(t.cur, k, v)
	}
	_ = t.Run(func() error { ok = a.m.Insert(t.cur, k, v); return nil })
	return ok
}

func (a tdslMap[V]) Remove(tx Tx, k uint64) (old V, had bool) {
	t := tx.(*tdslTx)
	if t.cur != nil {
		return a.m.Remove(t.cur, k)
	}
	_ = t.Run(func() error { old, had = a.m.Remove(t.cur, k); return nil })
	return old, had
}
