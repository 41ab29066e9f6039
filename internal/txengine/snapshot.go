package txengine

// MVCC snapshot-read tier (CapSnapshot).
//
// Every read on a Medley-family engine used to run inside the OCC machinery:
// even a pure RunRead validates its loads at commit and can abort and restart
// under write contention. For read-mostly traffic that retry risk is the
// dominant cost. This file adds a versioned read path so a read-only
// transaction can pin a consistent cut and complete validation-free:
//
//   - Writers stamp every committed transaction with a timestamp drawn from a
//     per-engine logical clock (seeded from the shared montage.EpochClock on
//     persistent engines, so the version order is anchored to the same clock
//     that orders durability cuts). The draw happens after the transaction
//     body has installed all of its descriptor nodes and *before* the
//     InPrep→InProg status transition that makes the commit eligible — see
//     the ordering argument below.
//   - Committed values are published into per-key version chains held in a
//     sidecar next to each top-level map (snapMap). The chains are read-only
//     metadata for snapshot readers; the underlying engine map remains the
//     single source of truth for OCC transactions.
//   - SnapshotRead(fn) pins the current sealed watermark, runs fn with every
//     map Get served from the chains at that timestamp, and returns. No
//     validation, no abort, no restart — by construction, not by luck.
//
// Why the timestamp order is consistent with MCNS conflict order: a writer
// draws its timestamp after fn has installed every node and before TxEnd's
// InPrep→InProg CAS. A helper can only commit a transaction after it reaches
// InProg, and only the owner's TxEnd sets InProg (see core.Session.TxAbort),
// so draw(A) < resolve(A) always. If B depends on A (write-write or
// read-write on a key), B observed A's installed node, which A installed
// before draw(A) only if... more precisely: for ww/wr conflicts B's
// conflicting access happens after A resolved, hence after draw(A), hence
// draw(B) > draw(A); for an anti-dependency (A read, B overwrote), A's
// validation at TxEnd saw the key unchanged, so B's install — which precedes
// draw(B) — happened after A validated, which follows draw(A). Either way
// timestamps agree with the serialization order, so the set of transactions
// with ts <= any cut is prefix-closed and a chain read at that cut is a
// consistent snapshot.
//
// The sealed watermark: a drawn timestamp is not immediately readable —
// the transaction may still fail validation, and a slower writer may hold a
// smaller undrawn timestamp. Each worker slot advertises a lower bound
// (inflight) *before* drawing; the seal is min(clock, min over slots of
// inflight-1), CAS-maxed so it never regresses. A snapshot pins the seal, so
// it can never observe a timestamp that an in-flight commit could still
// publish beneath it (a torn cut). Version chains are pruned behind a GC
// floor = min(seal, oldest pinned snapshot), recomputed every few hundred
// publishes; readers advertise their pin with a store-recheck loop so the
// floor can never pass a live snapshot.

import (
	"sync"
	"sync/atomic"

	"medley/internal/montage"
	"medley/internal/pnvm"
)

// SnapshotReader is the optional Tx extension of engines with CapSnapshot.
// SnapshotRead runs fn as a read-only transaction against a consistent cut
// of the engine's committed history: every map Get inside fn observes the
// same commit-timestamp prefix, no validation runs, and the snapshot never
// aborts or restarts. Map writes and queue operations inside fn panic —
// snapshots are read-only by contract. The returned bool reports whether a
// snapshot was actually taken (always true on a CapSnapshot engine).
type SnapshotReader interface {
	SnapshotRead(fn func()) bool
}

// SnapshotRead runs fn as a validation-free snapshot transaction when tx's
// engine supports it (CapSnapshot) and reports whether it did; on every
// other engine it is a no-op returning false, so portable workload code can
// attempt a snapshot unconditionally and fall back to RunRead:
//
//	if !txengine.SnapshotRead(tx, probe) {
//		_ = tx.RunRead(probe)
//	}
func SnapshotRead(tx Tx, fn func()) bool {
	if s, ok := tx.(SnapshotReader); ok {
		return s.SnapshotRead(fn)
	}
	return false
}

// SnapshotBatchReader is the batched companion of SnapshotReader: one pinned
// cut serves n independent read-only closures, amortizing the pin, seal, and
// GC-floor bookkeeping over the batch. Each closure is its own logical
// snapshot transaction (n SnapshotReads in Stats); all of them observe the
// same commit-timestamp prefix, reported as cut. Implemented by the engines
// that implement SnapshotReader.
type SnapshotBatchReader interface {
	// SnapshotReadBatch pins one consistent cut and runs each(i, cut) for
	// i in [0, n). The returned cut is the pinned commit timestamp (compare
	// it against LastCommitTS to detect a cut trailing a handle's own
	// writes); ok is false — and nothing runs — on engines without the tier.
	SnapshotReadBatch(n int, each func(i int, cut uint64)) (cut uint64, ok bool)
}

// SnapshotReadBatch runs n read-only closures against one pinned snapshot
// cut when tx's engine supports it, and reports the cut plus whether the
// batch ran. The portable no-op contract matches SnapshotRead: on engines
// without CapSnapshot it returns (0, false) without invoking each, so
// callers fall back to per-closure OCC reads.
func SnapshotReadBatch(tx Tx, n int, each func(i int, cut uint64)) (uint64, bool) {
	if s, ok := tx.(SnapshotBatchReader); ok {
		return s.SnapshotReadBatch(n, each)
	}
	return 0, false
}

// LastCommitTS reports the commit timestamp of the most recent
// version-stamped write committed through tx — standalone or transactional —
// or 0 when the handle has written nothing (or the engine has no snapshot
// tier). A snapshot cut at or above this watermark is guaranteed to include
// every write the handle has completed, which is how a serving layer keeps
// read-your-writes while routing reads through snapshots: serve the read
// from any cut >= LastCommitTS, fall back to an OCC read when the available
// cut trails it (a writer elsewhere is still sealing).
func LastCommitTS(tx Tx) uint64 {
	if st, ok := tx.(snapTxn); ok {
		if a := st.snapAgent(); a.enabled() {
			return a.lastTS
		}
	}
	return 0
}

// snapGCPeriod is how many chain publishes elapse between GC-floor
// recomputations. The floor only ever advances, so a stale floor costs
// memory (longer chains), never correctness.
const snapGCPeriod = 256

// snapSlot is one worker's communication surface with the tier: inflight
// publishes a lower bound on the timestamp the worker may be about to draw
// (0 = no commit in flight), reading publishes the timestamp of the
// worker's pinned snapshot (0 = none). Padded so two hot slots never share
// a cache line.
type snapSlot struct {
	inflight atomic.Uint64
	reading  atomic.Uint64
	_        [112]byte
}

// snapTier is the per-engine clock + watermark state shared by every worker
// and every snapMap of one engine. A sharded engine owns exactly one tier —
// its sub-engines are built with version stamping disabled — so a
// cross-shard transaction (including a PR 6 shared-fate latch group)
// stamps exactly one timestamp for the whole group.
type snapTier struct {
	clock   atomic.Uint64 // last drawn commit timestamp
	sealed  atomic.Uint64 // highest timestamp safe for snapshots to read
	gcFloor atomic.Uint64 // chains may drop versions strictly below this
	pubs    atomic.Uint64 // publish counter driving floor recomputation
	mu      sync.Mutex    // guards slot registration
	slots   atomic.Pointer[[]*snapSlot]
}

// newSnapTier builds a tier. When the engine is montage-backed, ec anchors
// the timestamp base to the durable epoch clock (epoch << 16 leaves room
// for intra-epoch commit ordering without colliding with a later
// re-anchor); transient engines start at 1. Zero is reserved to mean "no
// timestamp" in slots.
func newSnapTier(ec *montage.EpochClock) *snapTier {
	t := &snapTier{}
	base := uint64(1)
	if ec != nil {
		base = ec.Current() << 16
	}
	t.clock.Store(base)
	t.sealed.Store(base)
	t.gcFloor.Store(base)
	empty := make([]*snapSlot, 0)
	t.slots.Store(&empty)
	return t
}

// newSlot registers a worker with the tier. Slots are copy-on-write so the
// hot paths (reseal, floor refresh) walk a plain slice with no lock.
func (t *snapTier) newSlot() *snapSlot {
	s := &snapSlot{}
	t.mu.Lock()
	old := *t.slots.Load()
	next := make([]*snapSlot, len(old)+1)
	copy(next, old)
	next[len(old)] = s
	t.slots.Store(&next)
	t.mu.Unlock()
	return s
}

// beginCommit opens a commit window for s and returns the drawn timestamp.
// The inflight lower bound is stored before the draw: any sealer that reads
// this slot as idle (0) must have read it before the store, hence loaded
// the clock before the draw, hence computed a seal below the drawn
// timestamp. That ordering is what makes the seal a torn-cut barrier.
func (t *snapTier) beginCommit(s *snapSlot) uint64 {
	s.inflight.Store(t.clock.Load())
	return t.clock.Add(1)
}

// endCommit closes the window (publishes, if any, must already be done) and
// advances the seal past everything no longer in flight.
func (t *snapTier) endCommit(s *snapSlot) {
	s.inflight.Store(0)
	t.reseal()
}

// reseal advances sealed to min(clock, min over busy slots of inflight-1).
// The clock is loaded before the slots: a commit that draws after our clock
// load either stored its inflight bound first (we see it and stay below) or
// we never see it at all and our limit is at most the pre-draw clock —
// below its timestamp either way. CAS-max keeps the seal monotone.
func (t *snapTier) reseal() {
	limit := t.clock.Load()
	for _, s := range *t.slots.Load() {
		if v := s.inflight.Load(); v != 0 && v-1 < limit {
			limit = v - 1
		}
	}
	for {
		cur := t.sealed.Load()
		if cur >= limit || t.sealed.CompareAndSwap(cur, limit) {
			return
		}
	}
}

// beginSnapshot pins a read timestamp for s and reports it plus whether the
// snapshot is stale (some committed-or-committing writer already drew past
// it — the cut is still consistent, just not the absolute newest). The
// store-recheck loop makes the pin race-free against GC: if the floor
// refresh missed our pin, its sealed load happened before our recheck, so
// the floor it computed is at most our pinned timestamp.
func (t *snapTier) beginSnapshot(s *snapSlot) (rt uint64, stale bool) {
	t.reseal()
	for {
		rt = t.sealed.Load()
		s.reading.Store(rt)
		if t.sealed.Load() == rt {
			break
		}
	}
	return rt, rt < t.clock.Load()
}

// endSnapshot releases the pin.
func (t *snapTier) endSnapshot(s *snapSlot) {
	s.reading.Store(0)
}

// refreshFloor recomputes the GC floor: the seal first, then every pinned
// snapshot (the order pairs with beginSnapshot's recheck loop). The floor
// is CAS-maxed; chains prune lazily against it on their next publish.
func (t *snapTier) refreshFloor() {
	floor := t.sealed.Load()
	for _, s := range *t.slots.Load() {
		if v := s.reading.Load(); v != 0 && v < floor {
			floor = v
		}
	}
	for {
		cur := t.gcFloor.Load()
		if cur >= floor || t.gcFloor.CompareAndSwap(cur, floor) {
			return
		}
	}
}

// snapVersion is one committed state of one key. uval carries the value for
// uint maps (no boxing on the hot path); aval carries row-map values. next
// points at the next-older version; the chain is sorted by descending ts.
type snapVersion struct {
	ts   uint64
	uval uint64
	aval any
	del  bool
	next atomic.Pointer[snapVersion]
}

// chainHead anchors one key's version chain. Publishers serialize on mu;
// readers traverse head/next lock-free.
type chainHead struct {
	mu   sync.Mutex
	head atomic.Pointer[snapVersion]
}

// snapChains is the version sidecar of one top-level map.
type snapChains struct {
	tier *snapTier
	m    sync.Map // uint64 -> *chainHead
}

func (c *snapChains) headOf(k uint64) *chainHead {
	if h, ok := c.m.Load(k); ok {
		return h.(*chainHead)
	}
	h, _ := c.m.LoadOrStore(k, &chainHead{})
	return h.(*chainHead)
}

// publish installs the committed state (uval/aval/del) of key k at ts.
// Chains stay sorted by descending ts: the common case is a head insert
// (ts is the newest drawn), but a slower writer may publish beneath newer
// entries — snapshot pins below its timestamp are blocked by the seal, so
// late placement is invisible to readers that could be hurt by it.
func (c *snapChains) publish(k, ts, uval uint64, aval any, del bool) {
	h := c.headOf(k)
	v := &snapVersion{ts: ts, uval: uval, aval: aval, del: del}
	h.mu.Lock()
	if cur := h.head.Load(); cur == nil || cur.ts < ts {
		v.next.Store(cur)
		h.head.Store(v)
	} else {
		p := cur
		for {
			n := p.next.Load()
			if n == nil || n.ts < ts {
				v.next.Store(n)
				p.next.Store(v)
				break
			}
			p = n
		}
	}
	c.truncate(h)
	h.mu.Unlock()
	if c.tier.pubs.Add(1)%snapGCPeriod == 0 {
		c.tier.refreshFloor()
	}
}

// truncate prunes, under h.mu, everything older than the newest version at
// or below the GC floor — that version is the one any live or future
// snapshot can still reach.
func (c *snapChains) truncate(h *chainHead) {
	floor := c.tier.gcFloor.Load()
	n := h.head.Load()
	for n != nil && n.ts > floor {
		n = n.next.Load()
	}
	if n != nil {
		n.next.Store(nil)
	}
}

// read returns key k's state at snapshot timestamp rt: the newest version
// with ts <= rt, or absent when there is none (the key did not exist at the
// cut) or it is a tombstone.
func (c *snapChains) read(k, rt uint64) (uint64, any, bool) {
	h, ok := c.m.Load(k)
	if !ok {
		return 0, nil, false
	}
	for n := h.(*chainHead).head.Load(); n != nil; n = n.next.Load() {
		if n.ts <= rt {
			if n.del {
				return 0, nil, false
			}
			return n.uval, n.aval, true
		}
	}
	return 0, nil, false
}

// seed installs recovered state at the tier's current seal. Recovery must
// seed every live record into the chains: a chain miss means "absent at the
// cut", so falling back to the inner map would tear against a concurrent
// first-post-recovery writer.
func (c *snapChains) seed(k, uval uint64, aval any) {
	c.publish(k, c.tier.sealed.Load(), uval, aval, false)
}

// pendingWrite is one buffered chain publication awaiting its transaction's
// commit timestamp.
type pendingWrite struct {
	ch   *snapChains
	k    uint64
	uval uint64
	aval any
	del  bool
}

// snapAgent is the per-worker snapshot state embedded in an engine's Tx
// handle. tier==nil means the engine has no snapshot tier (snapOff
// sub-engines, or engines without CapSnapshot) and every snapMap stays
// unwrapped, so the agent is never consulted.
type snapAgent struct {
	tier    *snapTier
	slot    *snapSlot
	rt      uint64 // nonzero while inside SnapshotRead: the pinned cut
	lastTS  uint64 // commit ts of the handle's newest published write (see LastCommitTS)
	pending []pendingWrite
}

func (a *snapAgent) enabled() bool { return a.tier != nil }

// reset drops buffered publications; called at the start of every attempt
// so an aborted or restarted attempt leaves nothing behind.
func (a *snapAgent) reset() {
	for i := range a.pending {
		a.pending[i].aval = nil
	}
	a.pending = a.pending[:0]
}

// denyWrite panics when called inside a snapshot — snapshots are read-only.
func (a *snapAgent) denyWrite() {
	if a.rt != 0 {
		panic("txengine: write inside SnapshotRead (snapshot transactions are read-only)")
	}
}

// note records one committed-write-to-be. Inside a transaction the write is
// buffered (deduplicated per key — only the final state of a key commits)
// and published at the transaction's single drawn timestamp. Outside a
// transaction (NoTx mode, standalone ops) the write is its own commit and
// publishes immediately under its own draw; the inner map applies first and
// the chain entry follows, so a standalone write is briefly invisible to
// brand-new snapshots — the same lag any concurrent reader already
// tolerates from an unsynchronized writer.
func (a *snapAgent) note(ch *snapChains, k, uval uint64, aval any, del, buffered bool) {
	if !buffered {
		ts := a.tier.beginCommit(a.slot)
		ch.publish(k, ts, uval, aval, del)
		a.lastTS = ts
		a.tier.endCommit(a.slot)
		return
	}
	for i := range a.pending {
		if p := &a.pending[i]; p.ch == ch && p.k == k {
			p.uval, p.aval, p.del = uval, aval, del
			return
		}
	}
	a.pending = append(a.pending, pendingWrite{ch: ch, k: k, uval: uval, aval: aval, del: del})
}

// publishAll flushes the buffer at the transaction's commit timestamp.
func (a *snapAgent) publishAll(ts uint64) {
	for i := range a.pending {
		p := &a.pending[i]
		p.ch.publish(p.k, ts, p.uval, p.aval, p.del)
		p.aval = nil
	}
	a.pending = a.pending[:0]
	a.lastTS = ts
}

// commit runs end — the transaction's one commit verdict — inside a commit
// window of the tier. The timestamp is drawn after fn installed every node
// and before end's InPrep→InProg transition, which is what keeps timestamp
// order consistent with conflict order; on success the buffered writes
// publish under it. Read-only transactions buffer nothing and skip the draw.
func (a *snapAgent) commit(end func() error) error {
	if len(a.pending) == 0 {
		return end()
	}
	ts := a.tier.beginCommit(a.slot)
	err := end()
	if err == nil {
		a.publishAll(ts)
	} else {
		a.reset()
	}
	a.tier.endCommit(a.slot)
	return err
}

// snapTxn is the internal seam a Tx handle implements to route snapMap
// operations: the agent, plus whether writes are currently buffered by an
// open transaction (vs standalone).
type snapTxn interface {
	snapAgent() *snapAgent
	snapBuffering() bool
}

// snapMap decorates a top-level engine map with the version sidecar. OCC
// reads and all writes pass straight through to the inner map; writes
// additionally note their committed state with the agent, and snapshot
// reads (agent.rt != 0) are served entirely from the chains.
type snapMap[V any] struct {
	inner Map[V]
	ch    *snapChains
	enc   func(V) (uint64, any)
	dec   func(uint64, any) V
}

// newSnapUintMap / newSnapRowMap attach the per-map snapshot sidecar to a
// top-level map when the engine carries the MVCC tier (tier nil: inner is
// returned bare). A map rebuilt by recovery passes its per-device live
// records, and every one is seeded into the chains (see seed).
func newSnapUintMap(inner Map[uint64], tier *snapTier, live [][]pnvm.Record) Map[uint64] {
	if tier == nil {
		return inner
	}
	ch := &snapChains{tier: tier}
	dec := montage.Uint64Codec().Dec
	for _, recs := range live {
		for _, r := range recs {
			ch.seed(r.Key, dec(r.Val), nil)
		}
	}
	return snapMap[uint64]{
		inner: inner,
		ch:    ch,
		enc:   func(v uint64) (uint64, any) { return v, nil },
		dec:   func(u uint64, _ any) uint64 { return u },
	}
}

func newSnapRowMap(inner Map[any], tier *snapTier) Map[any] {
	if tier == nil {
		return inner
	}
	return snapMap[any]{
		inner: inner,
		ch:    &snapChains{tier: tier},
		enc:   func(v any) (uint64, any) { return 0, v },
		dec:   func(_ uint64, a any) any { return a },
	}
}

func (m snapMap[V]) Get(tx Tx, k uint64) (V, bool) {
	a := tx.(snapTxn).snapAgent()
	if a.rt != 0 {
		u, av, ok := m.ch.read(k, a.rt)
		if !ok {
			var zero V
			return zero, false
		}
		return m.dec(u, av), true
	}
	return m.inner.Get(tx, k)
}

func (m snapMap[V]) Put(tx Tx, k uint64, v V) (V, bool) {
	st := tx.(snapTxn)
	a := st.snapAgent()
	a.denyWrite()
	prev, had := m.inner.Put(tx, k, v)
	u, av := m.enc(v)
	a.note(m.ch, k, u, av, false, st.snapBuffering())
	return prev, had
}

func (m snapMap[V]) Insert(tx Tx, k uint64, v V) bool {
	st := tx.(snapTxn)
	a := st.snapAgent()
	a.denyWrite()
	ok := m.inner.Insert(tx, k, v)
	if ok {
		u, av := m.enc(v)
		a.note(m.ch, k, u, av, false, st.snapBuffering())
	}
	return ok
}

func (m snapMap[V]) Remove(tx Tx, k uint64) (V, bool) {
	st := tx.(snapTxn)
	a := st.snapAgent()
	a.denyWrite()
	prev, had := m.inner.Remove(tx, k)
	if had {
		a.note(m.ch, k, 0, nil, true, st.snapBuffering())
	}
	return prev, had
}
