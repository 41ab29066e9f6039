package txengine

import (
	"fmt"

	"medley/internal/metrics"
	"medley/internal/montage"
	"medley/internal/onefile"
	"medley/internal/pnvm"
)

const onefileCaps = CapTx | CapDynamicTx | CapHashMap | CapSkipMap | CapRowMaps

// onefileEngine drives OneFile-lite: writers serialized through one global
// sequence, optimistic readers. The persistent variant (POneFile) persists
// eagerly on the critical path; its uint64 maps (and row maps given a
// Config.RowCodec) stage real payload records, so POneFile state is
// recoverable after a crash. There is no uninstrumented mode — NoTx
// delegates to Run, as the baseline did in the paper's harness.
type onefileEngine struct {
	name  string
	st    *onefile.STM
	codec montage.Codec[any]
	cells metrics.Cells[Stats]
}

func newOneFileEngine(Config) (Engine, error) {
	return &onefileEngine{name: "OneFile", st: onefile.New()}, nil
}

func newPOneFileEngine(cfg Config) (Engine, error) {
	if len(cfg.Devices) > 1 {
		return nil, fmt.Errorf("txengine: ponefile is single-device (got %d devices)", len(cfg.Devices))
	}
	var dev *pnvm.Device
	if len(cfg.Devices) == 1 {
		dev = cfg.Devices[0]
	} else {
		dev = pnvm.New(cfg.Latencies)
	}
	return &onefileEngine{name: "POneFile", st: onefile.NewPersistent(dev), codec: cfg.RowCodec}, nil
}

func (e *onefileEngine) Name() string { return e.name }
func (e *onefileEngine) Caps() Caps   { return onefileCaps }
func (e *onefileEngine) Stats() Stats { return e.cells.Sum() }
func (e *onefileEngine) Close()       {}

// Devices implements Persister (nil for transient OneFile).
func (e *onefileEngine) Devices() []*pnvm.Device {
	if d := e.st.Device(); d != nil {
		return []*pnvm.Device{d}
	}
	return nil
}

// Sync implements Persister: POneFile persists eagerly, so everything
// committed is already durable.
func (e *onefileEngine) Sync() {}

// RecoverUintMap implements Persister: POneFile is a recovery domain of one
// device. The pipeline leaves the live records on media, adopted as the new
// map's bindings, and one transaction re-puts them to rebuild the DRAM
// index — so its commit retires and GCs every recovered record under one
// fresh commit record, and media ends at live keys + one marker.
func (e *onefileEngine) RecoverUintMap(dumps [][]pnvm.Record, spec MapSpec) (Map[uint64], error) {
	if e.st.Device() == nil {
		return nil, fmt.Errorf("txengine: %s is transient: %w", e.name, ErrUnsupported)
	}
	m := newOFMap(e, spec, montage.Uint64Codec().Enc)
	live, err := e.st.Recover(dumps, m.sid)
	if err != nil {
		return nil, fmt.Errorf("txengine: %s: %w", e.name, err)
	}
	dec := montage.Uint64Codec().Dec
	tx := e.NewWorker(-1)
	err = tx.Run(func() error {
		for _, r := range live {
			m.Put(tx, r.Key, dec(r.Val))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("txengine: %s rebuild: %w", e.name, err)
	}
	return m, nil
}

func (e *onefileEngine) NewUintMap(spec MapSpec) (Map[uint64], error) {
	return newOFMap(e, spec, montage.Uint64Codec().Enc), nil
}

func (e *onefileEngine) NewRowMap(spec MapSpec) (Map[any], error) {
	return newOFMap(e, spec, e.codec.Enc), nil
}

// newOFMap builds one OneFile map. On a persistent engine with a payload
// encoding (always for uint64 maps; Config.RowCodec for row maps) it gets a
// persistence structure id, and its mutators stage payload records.
func newOFMap[V any](e *onefileEngine, spec MapSpec, enc func(V) []byte) ofMap[V] {
	m := ofMap[V]{st: e.st}
	if e.st.Device() != nil && enc != nil {
		m.sid, m.enc = e.st.NewPersistSID(), enc
	}
	if spec.Kind == KindHash {
		h := onefile.NewHash[V](e.st, bucketsOr(spec, 1<<16))
		m.get, m.put, m.ins, m.rem = h.Get, h.Put, h.Insert, h.Remove
	} else {
		sl := onefile.NewSkipList[V](e.st)
		m.get, m.put, m.ins, m.rem = sl.Get, sl.Put, sl.Insert, sl.Remove
	}
	return m
}

func (e *onefileEngine) NewUintQueue() (Queue[uint64], error) { return nil, ErrUnsupported }

func (e *onefileEngine) NewWorker(int) Tx { return &onefileTx{st: e.st, ct: e.cells.New()} }

// onefileTx routes Run through the STM's serialized write path and RunRead
// through its optimistic sequence-validated read path. inTx/inRead track
// whether the worker is inside one of them, so standalone operations can
// auto-wrap themselves: mutators must hold the writer lock to log undo
// entries, and reads must seq-validate or they could observe uncommitted
// writes of an in-flight write transaction.
type onefileTx struct {
	st      *onefile.STM
	ct      *Stats
	inTx    bool
	inRead  bool
	aborted bool // Abort doomed the current Run
}

func (t *onefileTx) Run(fn func() error) error {
	t.inTx, t.aborted = true, false
	defer func() { t.inTx = false }()
	return t.ct.countRun(t.st.WriteTx, func() error {
		if err := fn(); err != nil || !t.aborted {
			return err
		}
		return ErrBusinessAbort // fn called Abort and returned nil: roll back
	})
}

func (t *onefileTx) RunRead(fn func()) {
	t.inRead = true
	defer func() { t.inRead = false }()
	t.ct.countRead(t.st.ReadTx, fn)
}

func (t *onefileTx) NoTx(fn func()) { t.ct.fallback(t.Run, fn) }
func (t *onefileTx) Abort() error {
	t.aborted = t.inTx
	return ErrBusinessAbort
}

// ofMap adapts one OneFile structure (hash or skiplist; both carry their
// STM internally). Operations called outside Run/RunRead wrap themselves in
// the appropriate transaction. Mutators of persistent maps stage payload
// records (see onefile.StagePersist) alongside the DRAM mutation.
type ofMap[V any] struct {
	get func(uint64) (V, bool)
	put func(uint64, V) (V, bool)
	ins func(uint64, V) bool
	rem func(uint64) (V, bool)

	st  *onefile.STM
	sid uint64         // persistence structure id
	enc func(V) []byte // payload encoding; nil: transient, nothing staged
}

func (m ofMap[V]) Get(tx Tx, k uint64) (v V, ok bool) {
	t := tx.(*onefileTx)
	if t.inTx || t.inRead {
		return m.get(k)
	}
	t.RunRead(func() { v, ok = m.get(k) })
	return v, ok
}

// mutable rejects mutation inside RunRead: the optimistic read loop would
// re-execute fn — and re-apply the write — on every snapshot retry.
func (t *onefileTx) mutable() {
	if t.inRead {
		panic("txengine: OneFile map mutation inside RunRead")
	}
}

func (m ofMap[V]) Put(tx Tx, k uint64, v V) (old V, had bool) {
	t := tx.(*onefileTx)
	t.mutable()
	if t.inTx {
		old, had = m.put(k, v)
		if m.enc != nil {
			m.st.StagePersist(m.sid, k, m.enc(v))
		}
		return old, had
	}
	_ = t.Run(func() error { old, had = m.Put(tx, k, v); return nil })
	return old, had
}

func (m ofMap[V]) Insert(tx Tx, k uint64, v V) (ok bool) {
	t := tx.(*onefileTx)
	t.mutable()
	if t.inTx {
		ok = m.ins(k, v)
		if ok && m.enc != nil {
			m.st.StagePersist(m.sid, k, m.enc(v))
		}
		return ok
	}
	_ = t.Run(func() error { ok = m.Insert(tx, k, v); return nil })
	return ok
}

func (m ofMap[V]) Remove(tx Tx, k uint64) (old V, had bool) {
	t := tx.(*onefileTx)
	t.mutable()
	if t.inTx {
		old, had = m.rem(k)
		if had && m.enc != nil {
			m.st.StagePersist(m.sid, k, nil)
		}
		return old, had
	}
	_ = t.Run(func() error { old, had = m.Remove(tx, k); return nil })
	return old, had
}
