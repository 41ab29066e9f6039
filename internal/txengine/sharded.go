package txengine

import (
	"errors"
	"fmt"
	"math/bits"
	"sync/atomic"

	"medley/internal/core"
	"medley/internal/metrics"
	"medley/internal/montage"
	"medley/internal/pnvm"
)

// This file implements the sharded engine runtime: a registry-composable
// decorator that builds S instances of a base engine as the S partitions of
// ONE engine and hash-routes every map key to its owning shard. Shards
// partition data — S sub-maps behind each logical map, and on persistent
// bases S devices — not transactions: the instances share one TxManager, a
// worker has one session on it, and the decorator holds no lock on any shard.
// Every conflict, inside a shard or across shards, is resolved by the one
// optimistic (MCNS) machinery.
//
// So a transaction is one MCNS descriptor on one session, however many shards
// it touches, exactly as over several structures of an unsharded engine. The
// first shard an attempt reaches opens the transaction (TxBegin); a later one
// is only noted as touched, for the footprint and latch accounting. Every
// attempt — one shard or many, declared or not — ends in the same commit: the
// session's TxEnd, one status CAS, all-or-nothing even though concurrent
// traffic can invalidate a read up to the last moment (that aborts the
// transaction, which retries under the shared backoff like any conflict).
// This is all NBTC asks for: the transaction's linearizing CASes take effect
// together. What sharding buys is smaller sub-maps, per-shard devices, and
// the key latches' scheduling; the manager has no contended word to spread.
//
// A HintKeys/HintQueues declaration that spans several shards marks them all
// touched at the start of each attempt, and when it names at most latchMaxKeys
// keys takes those keys' latches (latch.go) first, so declared transactions
// with overlapping hot keys queue FIFO instead of aborting each other. Latches
// only schedule; atomicity never depends on them, which is why undeclared and
// oversized footprints simply run without, and why an operation that escapes
// its declaration just runs on the shard it needs.
//
// Every transactional base the decorator wraps is Medley-family: its worker
// handles are sessionTx, and the decorator drives the handle's core session
// directly (begin, commit, abort). Engines without transactions (Original)
// shard trivially, routing bare operations.
//
// # Sharded persistence (txmontage-sharded)
//
// Persistent bases compose too: every shard owns its own montage.EpochSys
// and pnvm.Device, but all of them share one montage.EpochClock, created
// here and passed down beside the manager (Config.clock), and the manager is
// attached to that clock. That is what makes durability shard-safe: a
// transaction pins ONE epoch, tags the payloads it writes on every device
// with it, and commits only if that epoch is still current (its single epoch
// validator) — a clock tick anywhere between its first operation and its
// commit aborts it, so no transaction is ever persisted across two recovery
// cuts and no lock is needed to say so. The coordinator — the engine's own
// advancer goroutine, or Sync — advances all shards together so every device
// reaches the same durable frontier. After a crash, recovery takes one dump
// per device, computes the domain's consistent cut (the minimum of the
// per-device durable frontiers), and rebuilds each shard at exactly that cut:
// state one device persisted ahead of the others is discarded, so a
// transaction is never recovered torn even when the crash lands between two
// shards' flushes.

// DefaultShards is the shard count used when Config.Shards is unset.
const DefaultShards = 4

type shardedEngine struct {
	name   string
	caps   Caps
	txCap  bool
	shards []Engine      // one base engine instance per shard, all on one TxManager
	nextQ  atomic.Uint64 // round-robin home-shard assignment for queues
	cells  metrics.Cells[Stats]
	latch  *latchTable // key latches for declared footprints; nil without CapTx
	snap   *snapTier   // the engine's single MVCC snapshot tier; nil without CapSnapshot

	// Persistence coordination (nil/empty when the base is transient): the
	// shared epoch clock, each shard's epoch system and device in shard
	// order, and the coordinator (the one background advancer that moves
	// every shard's epoch system forward together).
	clock *montage.EpochClock
	esys  []*montage.EpochSys
	devs  []*pnvm.Device
	adv   advancer
}

// epochSysProvider is the seam through which the decorator recognizes
// montage-backed bases and reaches their per-shard epoch systems.
type epochSysProvider interface{ EpochSys() *montage.EpochSys }

// newShardedEngine builds cfg.Shards instances of the named base engine, on
// one transaction manager, behind one sharded façade. Persistent
// (montage-backed) bases are built one device per shard on a shared epoch
// clock; cfg.Devices, when non-empty, supplies the per-shard devices (recovery
// reattachment) and must be index-aligned with the shard order.
func newShardedEngine(baseKey string, cfg Config) (Engine, error) {
	b, ok := Lookup(baseKey)
	if !ok {
		return nil, fmt.Errorf("txengine: sharded base %q not registered", baseKey)
	}
	n := cfg.Shards
	if n <= 0 {
		n = DefaultShards
	}
	if len(cfg.Devices) > 0 && len(cfg.Devices) != n {
		return nil, fmt.Errorf("txengine: sharded %s wants one device per shard: got %d devices for %d shards", baseKey, len(cfg.Devices), n)
	}
	clock := montage.NewEpochClock()
	sub := cfg
	sub.mgr, sub.clock = core.NewTxManager(), clock
	sub.EpochLen = 0 // the coordinator owns the advance cadence, not the shards
	// The decorator owns the one snapshot tier and wraps only its top-level
	// maps; sub-engines must not each run a private clock, or a cross-shard
	// transaction would stamp S unrelated timestamps.
	sub.snapOff = true
	e := &shardedEngine{caps: b.Caps, txCap: b.Caps.Has(CapTx)}
	for i := 0; i < n; i++ {
		c := sub
		if len(cfg.Devices) > 0 {
			c.Devices = cfg.Devices[i : i+1]
		} else {
			c.Devices = nil
		}
		shard, err := b.New(c)
		if err != nil {
			e.Close()
			return nil, fmt.Errorf("txengine: sharded %s shard %d: %w", baseKey, i, err)
		}
		e.shards = append(e.shards, shard)
	}
	e.name = fmt.Sprintf("%s-sh%d", e.shards[0].Name(), n)
	if e.txCap {
		e.latch = newLatchTable()
	}

	// Detect montage-backed shards: all of them share clock, so the engine
	// coordinates their epochs and implements the multi-device Persister.
	for _, sh := range e.shards {
		esp, ok := sh.(epochSysProvider)
		if !ok || esp.EpochSys() == nil {
			break
		}
		e.esys = append(e.esys, esp.EpochSys())
		e.devs = append(e.devs, esp.EpochSys().Device())
	}
	if len(e.esys) == len(e.shards) {
		e.clock = clock
		if cfg.EpochLen > 0 {
			e.adv.run = func() func() { return montage.StartAdvancer(clock, e.esys, cfg.EpochLen) }
		}
	} else {
		e.esys, e.devs = nil, nil
	}
	if e.txCap && e.caps.Has(CapSnapshot) && !cfg.snapOff {
		// One tier for the whole engine: every commit, over one shard or
		// several, draws exactly one timestamp from it. Anchored
		// to the shared epoch clock on persistent bases.
		e.snap = newSnapTier(e.clock)
	}
	return e, nil
}

func (e *shardedEngine) Name() string { return e.name }
func (e *shardedEngine) Caps() Caps   { return e.caps }

// NumShards reports the shard count (for tests and CLI reporting).
func (e *shardedEngine) NumShards() int { return len(e.shards) }

// Stats aggregates the decorator's own transaction accounting with every
// shard's engine stats (standalone-op accounting on bases that keep it).
func (e *shardedEngine) Stats() Stats {
	total := e.cells.Sum()
	for _, sh := range e.shards {
		total.Add(sh.Stats())
	}
	return total
}

func (e *shardedEngine) Close() {
	e.adv.close()
	for _, sh := range e.shards {
		sh.Close()
	}
}

// Devices implements Persister: every shard's device in shard order, or nil
// when the base engine is transient.
func (e *shardedEngine) Devices() []*pnvm.Device {
	if len(e.devs) == 0 {
		return nil
	}
	out := make([]*pnvm.Device, len(e.devs))
	copy(out, e.devs)
	return out
}

// Sync implements Persister: two coordinated advances move every shard past
// the current epoch together, so when Sync returns each transaction
// committed before the call is durable on all of its shards — one mutually
// consistent boundary, not S independent ones.
func (e *shardedEngine) Sync() {
	if e.clock == nil {
		return
	}
	montage.SyncTogether(e.clock, e.esys)
}

// RecoverUintMap implements Persister: merge S post-crash device dumps into
// one logical map. Every shard's index is rebuilt from its own device's live
// records at the *domain's* cut (not its device's possibly-further
// frontier), so a device that flushed ahead of the others contributes
// nothing beyond it. Requires one dump per shard, in shard order — i.e. the
// same shard count the state was written under.
func (e *shardedEngine) RecoverUintMap(dumps [][]pnvm.Record, spec MapSpec) (Map[uint64], error) {
	if e.clock == nil {
		return nil, fmt.Errorf("txengine: %s is transient: %w", e.name, ErrUnsupported)
	}
	rec, err := montage.Recover(e.clock, e.esys, dumps)
	if err != nil {
		return nil, fmt.Errorf("txengine: %s: %w", e.name, err)
	}
	sub, subSpec := make([]Map[uint64], len(e.shards)), e.subSpec(spec)
	for i, es := range e.esys {
		sub[i] = montageUintMap(es, subSpec, rec.Live[i])
	}
	e.adv.start()
	return newSnapMap(&shardedMap[uint64]{e: e, sub: sub}, e.snap), nil
}

// shardOf routes a key to its owning shard: Fibonacci hashing spreads
// sequential keys uniformly, and the multiply-high range reduction maps the
// hash onto [0, shards) without the integer division a modulo would cost on
// every operation. Worker handles additionally memoize recent routes
// (shardedTx.routeOf), so the repeated-key pattern inside one transaction
// (Get then Put of the same key) hashes once.
func (e *shardedEngine) shardOf(k uint64) int {
	h := k * 0x9e3779b97f4a7c15
	h ^= h >> 32
	hi, _ := bits.Mul64(h, uint64(len(e.shards)))
	return int(hi)
}

// subSpec divides a caller's sizing hints across the shards.
func (e *shardedEngine) subSpec(spec MapSpec) MapSpec {
	n := len(e.shards)
	if spec.Buckets > 0 {
		spec.Buckets = max(spec.Buckets/n, 16)
	}
	if spec.Stripes > 0 {
		spec.Stripes = max(spec.Stripes/n, 8)
	}
	return spec
}

func (e *shardedEngine) NewUintMap(spec MapSpec) (Map[uint64], error) {
	m, err := newShardedMap(e, spec, Engine.NewUintMap)
	if err != nil {
		return nil, err
	}
	e.adv.start()
	return newSnapMap(m, e.snap), nil
}

func (e *shardedEngine) NewRowMap(spec MapSpec) (Map[any], error) {
	if !e.caps.Has(CapRowMaps) {
		return nil, ErrUnsupported
	}
	m, err := newShardedMap(e, spec, Engine.NewRowMap)
	if err != nil {
		return nil, err
	}
	e.adv.start()
	return newSnapMap(m, e.snap), nil
}

// NewUintQueue places the queue wholly on one shard (queues have no keys to
// partition by, and FIFO order must survive), assigned round-robin so
// several queues spread load. Queue+map compositions still commit
// atomically through the cross-shard path.
func (e *shardedEngine) NewUintQueue() (Queue[uint64], error) {
	if !e.caps.Has(CapQueue) {
		return nil, ErrUnsupported
	}
	qid := e.nextQ.Add(1) - 1
	home := int(qid) % len(e.shards)
	q, err := e.shards[home].NewUintQueue()
	if err != nil {
		return nil, err
	}
	// The queue's latch key is synthesized from the top of the key space,
	// where real workload keys are vanishingly rare; a collision with a map
	// key is benign — the two just over-serialize through one latch.
	return &shardedQueue{e: e, home: home, lkey: ^uint64(0) - qid, q: q}, nil
}

func (e *shardedEngine) NewWorker(tid int) Tx {
	t := &shardedTx{e: e, ct: e.cells.New(), base: e.shards[0].NewWorker(tid), seen: make([]uint64, len(e.shards))}
	if e.txCap {
		// Every transactional base is Medley-family; one that is not fails
		// loudly here.
		st := t.base.(*sessionTx)
		t.ses = st.s
		t.snap.ses, t.snap.end = st.s, st.snap.end
	}
	if e.latch != nil {
		t.lw = newLatchWaiter()
	}
	if e.snap != nil {
		t.snap.tier = e.snap
		t.snap.slot = e.snap.newSlot()
	}
	return t
}

// routeMemoSize is the worker handle's direct-mapped key→shard memo size.
// Must be a power of two.
const routeMemoSize = 8

// shardedTx is the per-worker handle: the worker's one base handle, on which
// every shard's operations run, plus the state of the current attempt, the
// pending footprint declaration, and the route memo. Not goroutine-safe, like
// every Tx.
type shardedTx struct {
	e    *shardedEngine
	ct   *Stats        // the worker's counter cell on the decorator
	base Tx            // a handle of shard 0's engine: a session of the one manager, good on every shard
	ses  *core.Session // its core session (transactional bases only)

	inRun   bool
	aborted bool // Tx.Abort doomed the current Run
	multi   bool // the attempt spans a second shard
	// seen[s] == stamp iff the current attempt has touched shard s; stamp
	// counts attempts, so starting one clears the set without a loop.
	seen  []uint64
	stamp uint64

	// fp is the declared shard footprint, ascending, staged by
	// HintKeys/HintQueues before the Run. hintKeys is the declared latch key
	// set (ascending, deduplicated; emptied when the declaration overflows
	// latchMaxKeys), and latchKeys the set the current Run latches —
	// hintKeys, or nil when it runs without latches.
	fp           []int
	hintKeys     []uint64
	hintPending  bool // a declaration awaits the next Run
	hintOverflow bool
	declared     bool // the Run touches fp (latched, if latchKeys) at the start of every attempt
	escaped      bool // an operation of the Run touched a shard outside its declaration
	latchKeys    []uint64
	latchHeld    bool        // latchKeys currently acquired
	lw           latchWaiter // reusable wait token (one wait at a time)

	// Direct-mapped key→shard memo: repeated keys (Get then Put inside one
	// transaction, hot keys across iterations) skip the hash. memoS stores
	// shard+1 so the zero value means empty; uint16 covers MaxShards.
	memoK [routeMemoSize]uint64
	memoS [routeMemoSize]uint16

	snap snapAgent // MVCC snapshot state; tier nil when the engine has none
	bo   backoff
}

// snapAgent / snapBuffering implement the snapTxn seam for the top-level
// snapMaps: writes buffer while a (non-doomed) Run is open and publish at
// the logical transaction's single commit timestamp.
func (t *shardedTx) snapAgent() *snapAgent { return &t.snap }
func (t *shardedTx) snapBuffering() bool   { return t.inRun && !t.aborted }

// SnapshotRead implements SnapshotReader, exactly as on the unsharded
// engines (snapAgent.snapshot): the cut is tier-wide, so it is consistent
// across every shard — the seal cannot pass a cross-shard commit that is
// still mid-flight, because the whole transaction is one commit window on the
// shared tier.
func (t *shardedTx) SnapshotRead(fn func()) bool {
	_, ok := t.snap.snapshot(t.ct, t.inRun, 1, func(int, uint64) { fn() })
	return ok
}

// SnapshotReadBatch implements SnapshotBatchReader on the same tier-wide cut.
func (t *shardedTx) SnapshotReadBatch(n int, each func(int, uint64)) (uint64, bool) {
	return t.snap.snapshot(t.ct, t.inRun, n, each)
}

// routeOf is shardOf through the handle's memo.
func (t *shardedTx) routeOf(k uint64) int {
	i := k & (routeMemoSize - 1)
	if t.memoK[i] == k && t.memoS[i] != 0 {
		return int(t.memoS[i]) - 1
	}
	s := t.e.shardOf(k)
	t.memoK[i], t.memoS[i] = k, uint16(s+1)
	return s
}

// insertShard inserts s into an ascending shard set in place, returning the
// (possibly grown) slice. Shard sets are tiny — a handful of ints — so the
// linear scan beats any cleverness.
func insertShard(set []int, s int) []int {
	for i, v := range set {
		if v == s {
			return set
		}
		if v > s {
			set = append(set, 0)
			copy(set[i+1:], set[i:])
			set[i] = s
			return set
		}
	}
	return append(set, s)
}

// hintOpen starts or continues the pending declaration: the first
// HintKeys/HintQueues call after a Run resets the accumulated sets, later
// calls merge into them.
func (t *shardedTx) hintOpen() {
	if t.hintPending {
		return
	}
	t.hintPending = true
	t.fp = t.fp[:0]
	t.hintKeys = t.hintKeys[:0]
	t.hintOverflow = false
}

// hintKey merges one latch key into the pending declaration (sorted,
// deduplicated — done once here, at declaration time, not per attempt).
// Declarations beyond latchMaxKeys stay valid as shard pre-declarations but
// give up on latching: hundreds of latch handoffs cost more than the
// conflicts they would queue.
func (t *shardedTx) hintKey(k uint64) {
	if t.hintOverflow {
		return
	}
	t.hintKeys = insertKey(t.hintKeys, k)
	if len(t.hintKeys) > latchMaxKeys {
		t.hintOverflow = true
		t.hintKeys = t.hintKeys[:0]
	}
}

// HintKeys implements KeyHinter: route the declared keys and stage their
// shard set and the keys themselves for the next Run. Successive
// HintKeys/HintQueues calls accumulate until a Run consumes them.
func (t *shardedTx) HintKeys(keys ...uint64) {
	if t.inRun {
		return
	}
	t.hintOpen()
	for _, k := range keys {
		t.fp = insertShard(t.fp, t.routeOf(k))
		t.hintKey(k)
	}
}

// HintQueues implements QueueHinter: declare the queues' home shards and
// synthetic latch keys for the next Run, so same-queue traffic serializes
// through the queue latch.
func (t *shardedTx) HintQueues(qs ...Queue[uint64]) {
	if t.inRun {
		return
	}
	t.hintOpen()
	for _, q := range qs {
		sq, ok := q.(*shardedQueue)
		if !ok || sq.e != t.e {
			continue // foreign queue: nothing of ours to declare
		}
		t.fp = insertShard(t.fp, sq.home)
		t.hintKey(sq.lkey)
	}
}

// enter prepares shard s for one operation by this worker and returns the
// handle to run it on. Outside a transaction (or after Tx.Abort) the operation
// is standalone on the base engine; inside one, the shard's first touch is
// recorded.
func (t *shardedTx) enter(s int) Tx {
	if t.inRun && !t.aborted && t.seen[s] != t.stamp {
		// Every declared shard is touched since the attempt began.
		t.escaped = t.declared
		t.touch(s)
	}
	return t.base
}

// touch brings shard s into the current attempt: the first shard opens the
// attempt's transaction, the second makes it a cross-shard one.
func (t *shardedTx) touch(s int) {
	t.seen[s] = t.stamp
	if !t.ses.InTx() {
		t.ses.TxBegin()
		return
	}
	if !t.multi {
		t.multi = true
		if !t.latchHeld {
			atomic.AddUint64(&t.ct.LatchFallbacks, 1)
		}
	}
}

// rollback aborts the attempt's transaction, if one is open, and releases
// the attempt's latches. Idempotent.
func (t *shardedTx) rollback() {
	if t.ses.InTx() {
		t.ses.TxAbort()
	}
	if t.latchHeld {
		t.e.latch.releaseAll(t.latchKeys)
		t.latchHeld = false
	}
}

// attempt executes fn once. err is nil on commit, core.ErrTxAborted on
// conflict, and fn's own error otherwise.
//
// The transaction stamps ONE version: the timestamp is drawn before the
// session's single InPrep→InProg transition and published for every shard's
// writes together iff the verdict is commit. (Before the snapshot tier is on
// it stamps none, and a commit that meets the start returns
// core.ErrTxAborted with the transaction still open: the deferred rollback
// aborts it, and the retry waits for the start before its latches.)
func (t *shardedTx) attempt(fn func() error) error {
	t.inRun, t.aborted, t.multi = true, false, false
	t.stamp++
	t.snap.beginAttempt()
	// However the attempt ends, a panic out of fn included, nothing stays
	// open and no latch stays held; after a commit this finds nothing to abort.
	defer func() {
		t.rollback()
		t.inRun = false
	}()
	if t.declared {
		if t.latchKeys != nil {
			// Key latches first (ascending, FIFO — see latch.go).
			if w := t.e.latch.acquireAll(t.latchKeys, &t.lw); w > 0 {
				atomic.AddUint64(&t.ct.LatchWaits, uint64(w))
			}
			t.latchHeld = true
		}
		for _, s := range t.fp {
			t.touch(s)
		}
	}
	ferr := fn()
	if t.aborted && ferr == nil {
		return ErrBusinessAbort // fn called Abort and returned nil
	}
	if ferr != nil || !t.ses.InTx() { // failed, or touched nothing
		return ferr
	}
	return t.snap.commit()
}

// Run implements Tx. A pending HintKeys/HintQueues declaration that spans
// several shards touches exactly those shards at the start of every attempt
// (latched, when it names at most latchMaxKeys keys); otherwise shards are
// touched as the body reaches them. A declaration that covers the first
// attempt counts one FootprintHit, one that an operation escapes one
// FootprintMiss. Conflict aborts retry under the shared backoff.
func (t *shardedTx) Run(fn func() error) error {
	if !t.e.txCap {
		panic("txengine: " + t.e.name + " supports no transactions")
	}
	t.declared = t.hintPending && len(t.fp) > 1
	t.hintPending = false
	t.escaped = false
	t.latchKeys = nil
	if t.declared && !t.hintOverflow {
		t.latchKeys = t.hintKeys
	}
	for attempt := 0; ; attempt++ {
		err := t.attempt(fn)
		if attempt == 0 && t.declared {
			// Once per Run, whatever the outcome.
			if t.escaped {
				atomic.AddUint64(&t.ct.FootprintMisses, 1)
			} else {
				atomic.AddUint64(&t.ct.FootprintHits, 1)
			}
		}
		if err == nil || !errors.Is(err, core.ErrTxAborted) {
			t.ct.countAttempts(attempt+1, err)
			return err
		}
		t.bo.wait(attempt)
	}
}

func (t *shardedTx) RunRead(fn func()) {
	_ = t.Run(func() error { fn(); return nil })
}

func (t *shardedTx) NoTx(fn func()) {
	if t.e.caps.Has(CapNoTx) {
		fn() // ops route standalone through enter
		return
	}
	t.ct.fallback(t.Run, fn)
}

func (t *shardedTx) Abort() error {
	if t.inRun && !t.aborted {
		t.rollback()
		t.aborted = true
	}
	return ErrBusinessAbort
}

// shardedMap hash-partitions a transactional map across the engine's
// shards: one base map per shard, each holding only the keys routed to it.
type shardedMap[V any] struct {
	e   *shardedEngine
	sub []Map[V]
}

func newShardedMap[V any](e *shardedEngine, spec MapSpec, mk func(Engine, MapSpec) (Map[V], error)) (*shardedMap[V], error) {
	sub := e.subSpec(spec)
	m := &shardedMap[V]{e: e, sub: make([]Map[V], len(e.shards))}
	for i, sh := range e.shards {
		var err error
		if m.sub[i], err = mk(sh, sub); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// Range walks the sub-maps in shard order (rangeMap): each is a bare map of
// a Medley-family shard, which the snapshot tier only wraps on top.
func (m *shardedMap[V]) Range(f func(uint64, V) bool) {
	for _, sub := range m.sub {
		more := true
		sub.(rangeMap[V]).Range(func(k uint64, v V) bool {
			more = f(k, v)
			return more
		})
		if !more {
			return
		}
	}
}

func (m *shardedMap[V]) Get(tx Tx, k uint64) (V, bool) {
	t := tx.(*shardedTx)
	s := t.routeOf(k)
	return m.sub[s].Get(t.enter(s), k)
}

func (m *shardedMap[V]) Put(tx Tx, k uint64, v V) (V, bool) {
	t := tx.(*shardedTx)
	s := t.routeOf(k)
	return m.sub[s].Put(t.enter(s), k, v)
}

func (m *shardedMap[V]) Insert(tx Tx, k uint64, v V) bool {
	t := tx.(*shardedTx)
	s := t.routeOf(k)
	return m.sub[s].Insert(t.enter(s), k, v)
}

func (m *shardedMap[V]) Remove(tx Tx, k uint64) (V, bool) {
	t := tx.(*shardedTx)
	s := t.routeOf(k)
	return m.sub[s].Remove(t.enter(s), k)
}

// shardedQueue is a base queue resident on its home shard, reached through
// the same enter machinery so queue+map transactions stay atomic. lkey is
// the queue's synthetic latch key: declared via HintQueues it serializes
// latched same-queue traffic through one FIFO latch.
type shardedQueue struct {
	e    *shardedEngine
	home int
	lkey uint64
	q    Queue[uint64]
}

func (q *shardedQueue) Enqueue(tx Tx, v uint64) {
	t := tx.(*shardedTx)
	if t.snap.rt != 0 {
		panic("txengine: queue operation inside SnapshotRead (queues are unversioned)")
	}
	q.q.Enqueue(t.enter(q.home), v)
}

func (q *shardedQueue) Dequeue(tx Tx) (uint64, bool) {
	t := tx.(*shardedTx)
	if t.snap.rt != 0 {
		panic("txengine: queue operation inside SnapshotRead (queues are unversioned)")
	}
	return q.q.Dequeue(t.enter(q.home))
}
