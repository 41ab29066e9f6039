package txengine

import (
	"cmp"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

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

// medleyEngine drives Medley transactional maps; with epoch systems attached
// it is txMontage (Medley + periodic persistence over simulated NVM devices).
// Every map it builds is one index, whatever the device count.
//
// # Devices
//
// txMontage runs over a device count taken from Config: one epoch system per
// device, all on the engine's one montage.EpochClock, to which the one
// TxManager is attached. Each map is one montage.Map index that writes and
// retires a key's payloads on the device the key routes to (montage.DeviceOf),
// so reads never route and a transaction over keys on several devices is one
// MCNS descriptor pinned to one epoch, exactly as over one device. The
// advancer and Sync advance all devices together (montage.AdvanceTogether), so
// they reach the same durable frontier; recovery cuts the domain at the
// minimum of the per-device frontiers (montage.Recover) and rebuilds each
// map's one index from every device's live set, so state one device persisted
// ahead of the others is discarded and no transaction is recovered torn.
// Medley, with nothing to persist, has no devices and ignores the count.
type medleyEngine struct {
	name  string
	mgr   *core.TxManager
	clock *montage.EpochClock // txMontage: the one clock of es; nil for Medley
	es    []*montage.EpochSys // txMontage: one per device, on clock; nil for Medley
	codec montage.Codec[any]
	adv   advancer    // the background advancer, when Config.EpochLen asks for one
	snap  *snapTier   // the engine's one MVCC snapshot tier
	latch *latchTable // declared keys' latches
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

// newMedleyEngine builds Medley, or txMontage when persist is set: over
// Config.Shards devices, or as many as Config.Devices supplies (in order, for
// recovery), or one, each with an epoch system of its own on one epoch clock.
func newMedleyEngine(cfg Config, persist bool) (Engine, error) {
	e := &medleyEngine{name: "Medley", mgr: core.NewTxManager(), latch: new(latchTable)}
	if persist {
		n := cmp.Or(cfg.Shards, len(cfg.Devices), 1)
		if len(cfg.Devices) > 0 && len(cfg.Devices) != n {
			return nil, fmt.Errorf("txengine: txmontage wants %d devices: got %d", n, len(cfg.Devices))
		}
		e.name, e.codec, e.clock = "txMontage", cfg.RowCodec, montage.NewEpochClock()
		for i := 0; i < n; i++ {
			dev := pnvm.New(cfg.Latencies)
			if len(cfg.Devices) > 0 {
				dev = cfg.Devices[i]
			}
			e.es = append(e.es, montage.NewEpochSysShared(dev, e.clock))
		}
		// Attach binds the manager to the clock, which every device shares.
		montage.Attach(e.mgr, e.es[0])
		if cfg.EpochLen > 0 {
			e.adv.run = func() func() { return montage.StartAdvancer(e.clock, e.es, cfg.EpochLen) }
		}
	}
	// On txMontage commit timestamps are anchored to the clock that orders
	// epoch cuts.
	e.snap = newSnapTier(e.clock)
	return e, nil
}

func (e *medleyEngine) Name() string { return e.name }
func (e *medleyEngine) Caps() Caps   { return medleyCaps }
func (e *medleyEngine) Stats() Stats { return e.cells.Sum() }

func (e *medleyEngine) Close() { e.adv.close() }

// Devices implements Persister: every device in routing order, or nil for
// transient Medley.
func (e *medleyEngine) Devices() []*pnvm.Device {
	if e.es == nil {
		return nil
	}
	devs := make([]*pnvm.Device, len(e.es))
	for i, es := range e.es {
		devs[i] = es.Device()
	}
	return devs
}

// Sync implements Persister: two advances of every device together, after
// which each transaction committed before the call is durable on all of its
// devices at one boundary.
func (e *medleyEngine) Sync() {
	if e.es != nil {
		montage.SyncTogether(e.clock, e.es)
	}
}

// RecoverUintMap implements Persister: the map's one index is rebuilt from
// every device's live records at the domain's cut. It takes one dump per
// device, in device order: the device count the state was written under.
func (e *medleyEngine) RecoverUintMap(dumps [][]pnvm.Record, spec MapSpec) (Map[uint64], error) {
	if e.es == nil {
		return nil, fmt.Errorf("txengine: %s is transient: %w", e.name, ErrUnsupported)
	}
	rec, err := montage.Recover(e.clock, e.es, dumps)
	if err != nil {
		return nil, fmt.Errorf("txengine: %s: %w", e.name, err)
	}
	m := newMontageMap(e.es, montage.Uint64Codec(), spec)
	m.Rebuild(rec.Live...)
	e.adv.start()
	return newSnapMap[uint64](txmapAdapter[uint64]{m}, e.snap), nil
}

// newMontageMap builds one persistent map over the devices of es.
func newMontageMap[V any](es []*montage.EpochSys, codec montage.Codec[V], spec MapSpec) *montage.Map[V] {
	if spec.Kind == KindHash {
		return montage.NewHashMap(es, codec, bucketsOr(spec, 1<<16))
	}
	return montage.NewSkipMap(es, codec)
}

func (e *medleyEngine) NewUintMap(spec MapSpec) (Map[uint64], error) {
	var m rangeMap[uint64]
	switch {
	case e.es != nil:
		m = txmapAdapter[uint64]{newMontageMap(e.es, montage.Uint64Codec(), spec)}
	case spec.Kind == KindHash:
		m = txmapAdapter[uint64]{mhash.NewUint64[uint64](bucketsOr(spec, 1<<16))}
	default:
		m = txmapAdapter[uint64]{fskiplist.New[uint64, uint64]()}
	}
	e.adv.start()
	return newSnapMap(m, e.snap), nil
}

func (e *medleyEngine) NewRowMap(spec MapSpec) (Map[any], error) {
	var m rangeMap[any]
	switch {
	case e.es != nil && (e.codec.Enc == nil || e.codec.Dec == nil):
		return nil, fmt.Errorf("txengine: txmontage row maps need Config.RowCodec")
	case e.es != nil:
		m = txmapAdapter[any]{newMontageMap(e.es, e.codec, spec)}
	case spec.Kind == KindHash:
		m = txmapAdapter[any]{mhash.NewUint64[any](bucketsOr(spec, 1<<16))}
	default:
		m = txmapAdapter[any]{fskiplist.New[uint64, any]()}
	}
	e.adv.start()
	return newSnapMap(m, e.snap), nil
}

// NewUintQueue returns an NBTC-transformed Michael & Scott queue. The queue
// itself is transient even under txMontage: the paper's queue carries no
// payload persistence, and composition with persistent maps stays atomic.
func (e *medleyEngine) NewUintQueue() (Queue[uint64], error) {
	return msQueueAdapter{q: msqueue.New[uint64]()}, nil
}

func (e *medleyEngine) NewWorker(int) Tx {
	s := e.mgr.Session()
	t := &sessionTx{s: s, ct: e.cells.New(), latch: e.latch}
	t.snap.ses, t.snap.end = s, s.TxEnd
	t.snap.tier, t.snap.slot = e.snap, e.snap.newSlot()
	return t
}

func bucketsOr(spec MapSpec, def int) int {
	if spec.Buckets > 0 {
		return spec.Buckets
	}
	return def
}

// sessionTx adapts a core.Session to the Tx interface: the worker handle of
// every Medley-family engine. Medley operations are usable both inside and
// outside transactions, so NoTx is genuinely uninstrumented.
type sessionTx struct {
	s       *core.Session
	ct      *Stats
	snap    snapAgent
	bo      backoff
	aborted bool // Abort doomed the current attempt
	inRun   bool // inside Run, where HintKeys does nothing

	// Declared keys.
	latch   *latchTable
	decl    declaration // staged by HintKeys for the next Run
	latched []uint64    // the hashes whose stripes the current attempt holds
}

// declaration is the key set HintKeys stages for a worker's next Run, as
// the keys' latch hashes: ascending (so in stripe order) and deduplicated,
// and emptied once it grows past latchMaxKeys (over).
type declaration struct {
	pending, over bool
	keys          []uint64
}

// add stages key k.
func (d *declaration) add(k uint64) {
	if !d.pending {
		*d = declaration{pending: true, keys: d.keys[:0]}
	}
	if !d.over {
		// Hundreds of latches cost more than the conflicts they would
		// queue: an oversized declaration runs unlatched.
		d.keys = insertKey(d.keys, latchHash(k))
		if d.over = len(d.keys) > latchMaxKeys; d.over {
			d.keys = d.keys[:0]
		}
	}
}

// takeDeclaration consumes the staged declaration at the head of a Run and
// returns the hashes whose stripes the Run latches: the declared keys' when
// they are two to latchMaxKeys distinct keys, nil otherwise. A declaration
// of two keys or more counts one FootprintHit.
func (t *sessionTx) takeDeclaration() []uint64 {
	d := &t.decl
	if !d.pending {
		return nil
	}
	d.pending = false
	if !d.over && len(d.keys) < 2 {
		return nil
	}
	atomic.AddUint64(&t.ct.FootprintHits, 1)
	if d.over {
		return nil
	}
	return d.keys
}

// Run is core.Session.Run with version stamping folded into the commit (once
// the snapshot tier is on, a successful commit publishes the attempt's
// buffered writes at one drawn timestamp; before, nothing is buffered and the
// commit is a TxEnd with the worker's slot marked — see snapAgent.commit; an
// attempt whose commit met the tier's start waits it out before the retry),
// with a declaration's latches taken at the head of every attempt, and with
// the attempts counted in the loop, so a Run allocates nothing in this layer.
func (t *sessionTx) Run(fn func() error) error {
	latch := t.takeDeclaration()
	t.inRun = true
	// However the Run ends, a panic out of fn included, it leaves no
	// transaction open and no latch held. One defer outside the loop stays
	// open-coded: it allocates nothing.
	defer t.endRun()
	for attempt := 0; ; attempt++ {
		t.snap.beginAttempt()
		if latch != nil {
			// Latches first, holding nothing else (in stripe order: latch.go).
			if w := t.latch.acquireAll(latch); w > 0 {
				atomic.AddUint64(&t.ct.LatchWaits, uint64(w))
			}
			t.latched = latch
		}
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
		// The attempt's latches go; its transaction is still open if fn
		// failed or the commit met the snapshot tier's start.
		t.rollback()
		if err == nil || !errors.Is(err, core.ErrTxAborted) {
			t.ct.countAttempts(attempt+1, err)
			return err
		}
		t.bo.wait(attempt)
	}
}

// rollback aborts the attempt's transaction if it is open and releases the
// attempt's latches if it holds them.
func (t *sessionTx) rollback() {
	if t.s.InTx() {
		t.s.TxAbort()
	}
	if t.latched != nil {
		t.latch.releaseAll(t.latched)
		t.latched = nil
	}
}

// endRun is Run's deferred exit: after a commit or an error it finds nothing
// to roll back.
func (t *sessionTx) endRun() {
	t.rollback()
	t.inRun = false
}

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
