package txengine

import (
	"errors"
	"fmt"
	"sync"

	"medley/internal/core"
	"medley/internal/metrics"
	"medley/internal/montage"
	"medley/internal/pnvm"
	"medley/internal/structures/fskiplist"
	"medley/internal/structures/mhash"
	"medley/internal/structures/msqueue"
	"medley/internal/txmap"
)

const medleyCaps = CapTx | CapDynamicTx | CapNoTx | CapHashMap | CapSkipMap | CapRowMaps | CapQueue | CapSnapshot

// medleyEngine drives Medley transactional maps; with an epoch system
// attached it is txMontage (Medley + periodic persistence over the
// simulated NVM device).
type medleyEngine struct {
	name  string
	mgr   *core.TxManager
	es    *montage.EpochSys // non-nil for txMontage
	codec montage.Codec[any]
	adv   advancer  // the private background advancer, when Config.EpochLen asks for one
	snap  *snapTier // MVCC snapshot tier; nil when Config.snapOff (sharded sub-engines)
	cells metrics.Cells[Stats]
}

// advancer is an engine's background epoch advancer, started by the first map
// the engine builds or recovers rather than by the engine: devices reattached
// for recovery must carry no marker of the fresh clock, or a crash before
// recovery would cut them past their pre-crash frontier.
type advancer struct {
	once sync.Once
	run  func() (stop func()) // starts it; nil when the engine runs none
	stop func()
}

// start starts the advancer, the first time it is called before close.
func (a *advancer) start() {
	a.once.Do(func() {
		if a.run != nil {
			a.stop = a.run()
		}
	})
}

// close stops the advancer if it runs, and keeps it from starting later.
func (a *advancer) close() {
	a.once.Do(func() {})
	if a.stop != nil {
		a.stop()
		a.stop = nil
	}
}

func newMedleyEngine(cfg Config) (Engine, error) {
	e := &medleyEngine{name: "Medley", mgr: cfg.manager()}
	if !cfg.snapOff {
		e.snap = newSnapTier(nil)
	}
	return e, nil
}

func newTxMontageEngine(cfg Config) (Engine, error) {
	mgr := cfg.manager()
	if len(cfg.Devices) > 1 {
		return nil, fmt.Errorf("txengine: txmontage is single-device (got %d devices); use txmontage-sharded for multi-device persistence", len(cfg.Devices))
	}
	var dev *pnvm.Device
	if len(cfg.Devices) == 1 {
		dev = cfg.Devices[0]
	} else {
		dev = pnvm.New(cfg.Latencies)
	}
	var es *montage.EpochSys
	if cfg.clock != nil {
		// Shared clock: the clock's owner (the sharded coordinator) drives
		// the advance cadence for every system on it; starting a private
		// advancer here would flush this shard's batches at boundaries the
		// other shards never reach.
		es = montage.NewEpochSysShared(dev, cfg.clock)
	} else {
		es = montage.NewEpochSys(dev)
	}
	// On a shared manager every shard binds it to the same clock again,
	// which changes nothing.
	montage.Attach(mgr, es)
	e := &medleyEngine{name: "txMontage", mgr: mgr, es: es, codec: cfg.RowCodec}
	if !cfg.snapOff {
		// Anchor commit timestamps to the same clock that orders epoch cuts.
		e.snap = newSnapTier(es.Clock())
	}
	if cfg.EpochLen > 0 && cfg.clock == nil {
		e.adv.run = func() func() {
			return montage.StartAdvancer(es.Clock(), []*montage.EpochSys{es}, cfg.EpochLen)
		}
	}
	return e, nil
}

func (e *medleyEngine) Name() string { return e.name }
func (e *medleyEngine) Caps() Caps   { return medleyCaps }
func (e *medleyEngine) Stats() Stats { return e.cells.Sum() }

func (e *medleyEngine) Close() { e.adv.close() }

// EpochSys exposes the montage epoch system (nil for transient Medley), for
// recovery demos and persistence tests.
func (e *medleyEngine) EpochSys() *montage.EpochSys { return e.es }

// Devices implements Persister (nil for transient Medley).
func (e *medleyEngine) Devices() []*pnvm.Device {
	if e.es == nil {
		return nil
	}
	return []*pnvm.Device{e.es.Device()}
}

// Sync implements Persister: an epoch-boundary sync, after which everything
// committed so far is durable.
func (e *medleyEngine) Sync() {
	if e.es != nil {
		e.es.Sync()
	}
}

// RecoverUintMap implements Persister: a single-device txMontage is a
// recovery domain of one.
func (e *medleyEngine) RecoverUintMap(dumps [][]pnvm.Record, spec MapSpec) (Map[uint64], error) {
	if e.es == nil {
		return nil, fmt.Errorf("txengine: %s is transient: %w", e.name, ErrUnsupported)
	}
	rec, err := montage.Recover(e.es.Clock(), []*montage.EpochSys{e.es}, dumps)
	if err != nil {
		return nil, fmt.Errorf("txengine: %s: %w", e.name, err)
	}
	e.adv.start()
	return newSnapMap(montageUintMap(e.es, spec, rec.Live[0]), e.snap), nil
}

// montageUintMap builds one device's persistent uint64 map, its index
// rebuilt from live when the device is being recovered.
func montageUintMap(es *montage.EpochSys, spec MapSpec, live []pnvm.Record) txmapAdapter[uint64] {
	var m *montage.Map[uint64]
	if spec.Kind == KindHash {
		m = montage.NewHashMap(es, montage.Uint64Codec(), bucketsOr(spec, 1<<16))
	} else {
		m = montage.NewSkipMap(es, montage.Uint64Codec())
	}
	m.Rebuild(live)
	return txmapAdapter[uint64]{m}
}

func (e *medleyEngine) NewUintMap(spec MapSpec) (Map[uint64], error) {
	var inner txmapAdapter[uint64]
	switch {
	case e.es != nil:
		inner = montageUintMap(e.es, spec, nil)
	case spec.Kind == KindHash:
		inner = txmapAdapter[uint64]{mhash.NewUint64[uint64](bucketsOr(spec, 1<<16))}
	default:
		inner = txmapAdapter[uint64]{fskiplist.New[uint64, uint64]()}
	}
	e.adv.start()
	return newSnapMap(inner, e.snap), nil
}

func (e *medleyEngine) NewRowMap(spec MapSpec) (Map[any], error) {
	var inner txmapAdapter[any]
	switch {
	case e.es != nil && (e.codec.Enc == nil || e.codec.Dec == nil):
		return nil, fmt.Errorf("txengine: txmontage row maps need Config.RowCodec")
	case e.es != nil && spec.Kind == KindHash:
		inner = txmapAdapter[any]{montage.NewHashMap(e.es, e.codec, bucketsOr(spec, 1<<16))}
	case e.es != nil:
		inner = txmapAdapter[any]{montage.NewSkipMap(e.es, e.codec)}
	case spec.Kind == KindHash:
		inner = txmapAdapter[any]{mhash.NewUint64[any](bucketsOr(spec, 1<<16))}
	default:
		inner = txmapAdapter[any]{fskiplist.New[uint64, any]()}
	}
	e.adv.start()
	return newSnapMap(inner, e.snap), nil
}

// NewUintQueue returns an NBTC-transformed Michael & Scott queue. The queue
// itself is transient even under txMontage: the paper's queue carries no
// payload persistence, and composition with persistent maps stays atomic.
func (e *medleyEngine) NewUintQueue() (Queue[uint64], error) {
	return msQueueAdapter{q: msqueue.New[uint64]()}, nil
}

func (e *medleyEngine) NewWorker(int) Tx {
	s := e.mgr.Session()
	t := &sessionTx{s: s, ct: e.cells.New()}
	t.snap.ses, t.snap.end = s, s.TxEnd
	if e.snap != nil {
		t.snap.tier = e.snap
		t.snap.slot = e.snap.newSlot()
	}
	return t
}

func bucketsOr(spec MapSpec, def int) int {
	if spec.Buckets > 0 {
		return spec.Buckets
	}
	return def
}

// sessionTx adapts a core.Session to the Tx interface. Medley operations
// are usable both inside and outside transactions, so NoTx is genuinely
// uninstrumented.
type sessionTx struct {
	s       *core.Session
	ct      *Stats
	snap    snapAgent
	bo      backoff
	aborted bool // Abort doomed the current attempt
}

// Run is core.Session.Run with version stamping folded into the commit (once
// the snapshot tier is on, a successful commit publishes the attempt's
// buffered writes at one drawn timestamp; before, nothing is buffered and the
// commit is a TxEnd with the worker's slot marked — see snapAgent.commit; an
// attempt whose commit met the tier's start waits it out before the retry)
// and with the attempts counted in the loop, so a Run allocates nothing in
// this layer.
func (t *sessionTx) Run(fn func() error) error {
	for attempt := 0; ; attempt++ {
		t.snap.beginAttempt()
		t.aborted = false
		t.s.TxBegin()
		err := fn()
		if err == nil {
			switch {
			case t.aborted: // fn called Abort and returned nil
				err = ErrBusinessAbort
			case !t.s.InTx(): // an operation of fn aborted it
				err = core.ErrTxAborted
			default:
				err = t.snap.commit()
			}
		}
		if t.s.InTx() {
			// fn failed, or the commit met the snapshot tier's start.
			t.s.TxAbort()
		}
		if err == nil || !errors.Is(err, core.ErrTxAborted) {
			t.ct.countAttempts(attempt+1, err)
			return err
		}
		t.bo.wait(attempt)
	}
}

// SnapshotRead implements SnapshotReader (snapAgent.snapshot).
func (t *sessionTx) SnapshotRead(fn func()) bool {
	_, ok := t.snap.snapshot(t.ct, t.s.InTx(), 1, func(int, uint64) { fn() })
	return ok
}

// SnapshotReadBatch implements SnapshotBatchReader (snapAgent.snapshot).
func (t *sessionTx) SnapshotReadBatch(n int, each func(int, uint64)) (uint64, bool) {
	return t.snap.snapshot(t.ct, t.s.InTx(), n, each)
}

// snapAgent / snapBuffering implement the snapTxn seam for snapMap: writes
// are buffered whenever a transaction is open on the session.
func (t *sessionTx) snapAgent() *snapAgent { return &t.snap }
func (t *sessionTx) snapBuffering() bool   { return t.s.InTx() }

func (t *sessionTx) RunRead(fn func()) {
	_ = t.Run(func() error { fn(); return nil })
}

func (t *sessionTx) NoTx(fn func()) { fn() }

func (t *sessionTx) Abort() error {
	if t.s.InTx() {
		t.s.TxAbort()
	}
	t.aborted = true
	return ErrBusinessAbort
}

// txmapAdapter lifts a session-based txmap.Map (the Medley structures and the
// montage persistent maps) to an engine Map, its Range included.
type txmapAdapter[V any] struct {
	m interface {
		txmap.Map[V]
		Range(f func(uint64, V) bool)
	}
}

func (a txmapAdapter[V]) Range(f func(uint64, V) bool) { a.m.Range(f) }

func (a txmapAdapter[V]) Get(tx Tx, k uint64) (V, bool) { return a.m.Get(tx.(*sessionTx).s, k) }
func (a txmapAdapter[V]) Put(tx Tx, k uint64, v V) (V, bool) {
	return a.m.Put(tx.(*sessionTx).s, k, v)
}
func (a txmapAdapter[V]) Insert(tx Tx, k uint64, v V) bool {
	return a.m.Insert(tx.(*sessionTx).s, k, v)
}
func (a txmapAdapter[V]) Remove(tx Tx, k uint64) (V, bool) { return a.m.Remove(tx.(*sessionTx).s, k) }

// msQueueAdapter lifts the session-based M&S queue to an engine Queue.
// Queues carry no version chains, so queue operations inside a snapshot
// panic like writes do.
type msQueueAdapter struct{ q *msqueue.Queue[uint64] }

func (a msQueueAdapter) Enqueue(tx Tx, v uint64) {
	t := tx.(*sessionTx)
	if t.snap.rt != 0 {
		panic("txengine: queue operation inside SnapshotRead (queues are unversioned)")
	}
	a.q.Enqueue(t.s, v)
}
func (a msQueueAdapter) Dequeue(tx Tx) (uint64, bool) {
	t := tx.(*sessionTx)
	if t.snap.rt != 0 {
		panic("txengine: queue operation inside SnapshotRead (queues are unversioned)")
	}
	return a.q.Dequeue(t.s)
}
