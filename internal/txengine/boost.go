package txengine

import (
	"medley/internal/boost"
	"medley/internal/core"
	"medley/internal/metrics"
)

const boostCaps = CapTx | CapDynamicTx | CapNoTx | CapHashMap | CapRowMaps

// boostEngine wires transactional boosting (internal/boost) into the
// registry: lock-based maps made transactional by semantic per-key locks
// plus logged inverse operations, composed over Medley sessions. Blocking,
// unlike the other engines — a semantic-lock conflict aborts and retries
// the acquirer.
type boostEngine struct {
	mgr   *core.TxManager
	cells metrics.Cells[Stats]
}

// boostShards is a map's lock-shard count when its spec gives no hint.
const boostShards = 1024

func newBoostEngine(Config) (Engine, error) {
	return &boostEngine{mgr: core.NewTxManager()}, nil
}

func (e *boostEngine) Name() string { return "Boost" }
func (e *boostEngine) Caps() Caps   { return boostCaps }
func (e *boostEngine) Stats() Stats { return e.cells.Sum() }
func (e *boostEngine) Close()       {}

// NewUintQueue is unsupported: queue operations have no inverse, which is
// precisely the boosting limitation the paper leads with.
func (e *boostEngine) NewUintQueue() (Queue[uint64], error) { return nil, ErrUnsupported }

// lockShards derives a map's lock-shard count from the spec's sizing hint.
// Shards only bound the lock-table map sizes — every key already has its
// own logical lock — so a keyspace-sized hint (bench passes the full
// keyspace as Buckets) is capped rather than allocating millions of
// mutexes per construction.
func (e *boostEngine) lockShards(spec MapSpec) int {
	shards := bucketsOr(spec, boostShards)
	if shards > 1<<16 {
		shards = 1 << 16
	}
	return shards
}

func (e *boostEngine) NewUintMap(spec MapSpec) (Map[uint64], error) {
	if spec.Kind == KindSkip {
		return nil, ErrUnsupported // BoostedMap is unordered
	}
	return boostMap[uint64]{m: boost.NewMap[uint64](e.lockShards(spec))}, nil
}

func (e *boostEngine) NewRowMap(spec MapSpec) (Map[any], error) {
	if spec.Kind == KindSkip {
		return nil, ErrUnsupported
	}
	return boostMap[any]{m: boost.NewMap[any](e.lockShards(spec))}, nil
}

func (e *boostEngine) NewWorker(int) Tx { return &boostTx{s: e.mgr.Session(), ct: e.cells.New()} }

// boostTx layers attempt state over a Medley session. A semantic-lock
// conflict aborts the session's transaction immediately (boost.Do calls
// TxAbort), after which the remaining operations of fn must become no-ops —
// the session is outside a transaction and raw boosted calls would apply
// non-transactionally — and the whole attempt must be retried with fresh
// reads, whatever fn returned: any error it derived from the doomed
// attempt's reads is meaningless. A deliberate Abort also dooms the rest of
// the attempt but is never retried: Run returns ErrBusinessAbort whatever fn
// returns.
type boostTx struct {
	s          *core.Session
	ct         *Stats
	doomed     bool // current attempt is dead; remaining map ops no-op
	conflicted bool // doomed by a semantic-lock conflict: retry; else by Abort
}

func (t *boostTx) Run(fn func() error) error {
	// However the Run ends, a panic out of fn included, it leaves no
	// transaction open (so no semantic lock held) and the handle clean for
	// standalone operations, doomed cleared after a business abort.
	defer t.endRun()
	return t.ct.countRun(t.s.Run, func() error {
		t.doomed, t.conflicted = false, false
		err := fn()
		switch {
		case t.conflicted:
			return core.ErrTxAborted // lock conflict: retry with fresh reads
		case t.doomed && err == nil:
			return ErrBusinessAbort // fn called Abort and returned nil
		}
		return err
	})
}

// endRun is Run's deferred exit: after a commit or an error it finds no
// transaction to abort.
func (t *boostTx) endRun() {
	if t.s.InTx() {
		t.s.TxAbort()
	}
	t.doomed, t.conflicted = false, false
}

func (t *boostTx) RunRead(fn func()) { _ = t.Run(func() error { fn(); return nil }) }
func (t *boostTx) NoTx(fn func())    { fn() }

func (t *boostTx) Abort() error {
	if t.s.InTx() {
		t.s.TxAbort()
	}
	t.doomed = true
	return ErrBusinessAbort
}

// conflict marks the current attempt doomed by a semantic-lock conflict.
func (t *boostTx) conflict() {
	t.doomed = true
	t.conflicted = true
}

type boostMap[V any] struct{ m *boost.BoostedMap[V] }

func (a boostMap[V]) Get(tx Tx, k uint64) (V, bool) {
	t := tx.(*boostTx)
	if t.doomed {
		var zero V
		return zero, false
	}
	v, ok, err := a.m.Get(t.s, k)
	if err != nil {
		t.conflict()
		var zero V
		return zero, false
	}
	return v, ok
}

func (a boostMap[V]) Put(tx Tx, k uint64, v V) (V, bool) {
	t := tx.(*boostTx)
	if t.doomed {
		var zero V
		return zero, false
	}
	old, had, err := a.m.Upsert(t.s, k, v)
	if err != nil {
		t.conflict()
		var zero V
		return zero, false
	}
	return old, had
}

func (a boostMap[V]) Insert(tx Tx, k uint64, v V) bool {
	t := tx.(*boostTx)
	if t.doomed {
		return false
	}
	ok, err := a.m.InsertIfAbsent(t.s, k, v)
	if err != nil {
		t.conflict()
		return false
	}
	return ok
}

func (a boostMap[V]) Remove(tx Tx, k uint64) (V, bool) {
	t := tx.(*boostTx)
	if t.doomed {
		var zero V
		return zero, false
	}
	old, had, err := a.m.Remove(t.s, k)
	if err != nil {
		t.conflict()
		var zero V
		return zero, false
	}
	return old, had
}
