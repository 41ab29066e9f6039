package txengine

import (
	"fmt"

	"medley/internal/lftt"
)

const lfttCaps = CapTx | CapSkipMap

// lfttEngine drives the LFTT baseline. LFTT transactions are static — the
// full operation list must be known up front — so Run buffers the
// operations issued by fn and executes them as one atomic static
// transaction when fn returns. In-transaction reads therefore return zero
// values (no CapDynamicTx), which is why LFTT cannot run TPC-C, exactly as
// the paper notes.
type lfttEngine struct {
	ct counters
}

func newLFTTEngine(Config) (Engine, error) { return &lfttEngine{}, nil }

func (*lfttEngine) Name() string { return "LFTT" }
func (*lfttEngine) Caps() Caps   { return lfttCaps }
func (e *lfttEngine) Stats() Stats {
	return e.ct.snapshot()
}
func (*lfttEngine) Close() {}

func (*lfttEngine) NewUintMap(spec MapSpec) (Map[uint64], error) {
	if spec.Kind == KindHash {
		return nil, ErrUnsupported
	}
	return &lfttMap{sl: lftt.New()}, nil
}

func (*lfttEngine) NewRowMap(MapSpec) (Map[any], error) { return nil, ErrUnsupported }

func (*lfttEngine) NewUintQueue() (Queue[uint64], error) { return nil, ErrUnsupported }

// NewWorker seeds each worker's backoff jitter from tid so mutually
// conflicting workers don't retry in lockstep.
func (e *lfttEngine) NewWorker(tid int) Tx {
	return &lfttTx{ct: &e.ct, bo: backoff{rng: uint64(tid)*2654435769 + 0x9e3779b97f4a7c15}}
}

// lfttTx buffers one static transaction per Run. ExecuteTx re-executes the
// whole transaction after a conflict; randomized exponential backoff
// between attempts prevents livelock among mutually aborting transactions
// at high thread counts (the same discipline as core.Session.backoff).
type lfttTx struct {
	sl      *lftt.SkipList // the one map the buffered transaction targets
	ct      *counters
	buf     []lftt.Op
	inTx    bool
	aborted bool // Abort doomed the buffered transaction
	err     error
	bo      backoff
}

// Run counts its own stats: the retry loop re-executes the buffered static
// transaction, not fn, so the shared countRun wrapper would miss retries.
func (t *lfttTx) Run(fn func() error) error {
	t.inTx, t.aborted = true, false
	t.sl = nil
	t.err = nil
	t.buf = t.buf[:0]
	err := fn()
	t.inTx = false
	if err == nil && t.aborted {
		err = ErrBusinessAbort // fn called Abort and returned nil
	}
	if err != nil {
		t.ct.aborts.Add(1)
		return err // business abort: buffered ops are discarded, no retry
	}
	if t.err != nil {
		t.ct.aborts.Add(1)
		return t.err
	}
	if len(t.buf) == 0 {
		t.ct.commits.Add(1)
		return nil
	}
	for attempt := 0; ; attempt++ {
		if _, ok := t.sl.ExecuteTx(t.buf); ok {
			t.ct.commits.Add(1)
			return nil
		}
		t.ct.aborts.Add(1)
		t.ct.retries.Add(1)
		t.bo.wait(attempt)
	}
}

func (t *lfttTx) RunRead(fn func()) { _ = t.Run(func() error { fn(); return nil }) }
func (t *lfttTx) NoTx(fn func()) {
	t.ct.fallbacks.Add(1)
	_ = t.Run(func() error { fn(); return nil })
}
func (t *lfttTx) Abort() error {
	t.aborted = t.inTx
	return ErrBusinessAbort
}

// stage appends an operation to the worker's buffered transaction.
func (t *lfttTx) stage(sl *lftt.SkipList, ops ...lftt.Op) {
	if t.sl == nil {
		t.sl = sl
	} else if t.sl != sl {
		t.err = fmt.Errorf("lftt: a static transaction cannot span multiple maps: %w", ErrUnsupported)
		return
	}
	t.buf = append(t.buf, ops...)
}

// exec runs ops as one standalone static transaction, retried with backoff.
func (t *lfttTx) exec(sl *lftt.SkipList, ops ...lftt.Op) []lftt.OpResult {
	for attempt := 0; ; attempt++ {
		if res, ok := sl.ExecuteTx(ops); ok {
			return res
		}
		t.bo.wait(attempt)
	}
}

type lfttMap struct{ sl *lftt.SkipList }

func (m *lfttMap) Get(tx Tx, k uint64) (uint64, bool) {
	t := tx.(*lfttTx)
	if t.inTx {
		t.stage(m.sl, lftt.Op{Kind: lftt.OpGet, Key: k})
		return 0, false
	}
	return m.sl.Get(k)
}

// Put is remove+insert (LFTT inserts have set semantics: a plain insert on
// a present key is a no-op).
func (m *lfttMap) Put(tx Tx, k uint64, v uint64) (uint64, bool) {
	t := tx.(*lfttTx)
	ops := []lftt.Op{{Kind: lftt.OpRemove, Key: k}, {Kind: lftt.OpInsert, Key: k, Val: v}}
	if t.inTx {
		t.stage(m.sl, ops...)
		return 0, false
	}
	res := t.exec(m.sl, ops...)
	return res[0].Val, res[0].Ok
}

func (m *lfttMap) Insert(tx Tx, k uint64, v uint64) bool {
	t := tx.(*lfttTx)
	if t.inTx {
		t.stage(m.sl, lftt.Op{Kind: lftt.OpInsert, Key: k, Val: v})
		return false
	}
	return t.exec(m.sl, lftt.Op{Kind: lftt.OpInsert, Key: k, Val: v})[0].Ok
}

func (m *lfttMap) Remove(tx Tx, k uint64) (uint64, bool) {
	t := tx.(*lfttTx)
	if t.inTx {
		t.stage(m.sl, lftt.Op{Kind: lftt.OpRemove, Key: k})
		return 0, false
	}
	res := t.exec(m.sl, lftt.Op{Kind: lftt.OpRemove, Key: k})
	return res[0].Val, res[0].Ok
}
