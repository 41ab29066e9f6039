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
//     per-engine logical clock (seeded from the montage.Domain's epoch clock on
//     persistent engines, so the version order is anchored to the same clock
//     that orders durability cuts). The draw happens after the transaction
//     body has installed all of its descriptor nodes and *before* the
//     InPrep→InProg status transition that makes the commit eligible — see
//     the ordering argument below.
//   - Committed values are published into a version table held next to each
//     top-level map (snapMap → snapTable): a fixed number of stripes, each an
//     open-addressed array of slots keyed by the uint64 key itself, a slot
//     pointing straight at the key's newest version and each version at the
//     next older one. The table is read-only history for snapshot readers;
//     the underlying engine map remains the single source of truth for OCC
//     transactions.
//   - SnapshotRead(fn) pins the current sealed watermark, runs fn with every
//     map Get served from the table at that timestamp, and returns. No
//     validation, no abort, no restart — by construction, not by luck.
//   - None of this runs until something reads a snapshot: the tier starts on
//     the engine's first one (see "The start" below). Before that a commit
//     draws nothing, buffers nothing and publishes nothing.
//
// Why the timestamp order is consistent with MCNS conflict order: a writer
// draws its timestamp after fn has installed every node and before TxEnd's
// InPrep→InProg CAS. A helper can only commit a transaction after it reaches
// InProg, and only the owner's TxEnd sets InProg (see core.Session.TxAbort),
// so draw(A) < resolve(A) always. If B depends on A (write-write or
// write-read on a key), B's conflicting access saw A's node resolved — one
// met unresolved is first aborted (InPrep) or helped to its verdict (InProg),
// never read through — so it happens after resolve(A), hence after draw(A),
// and B draws only after its accesses: draw(B) > draw(A). For an
// anti-dependency (A read, B overwrote), A's validation at TxEnd saw the key
// unchanged, so B's install — which precedes draw(B) — happened after A
// validated, which follows draw(A). Either way timestamps agree with the
// serialization order, so the set of transactions with ts <= any cut is
// prefix-closed and a table read at that cut is a consistent snapshot. Once
// the tier is on, a standalone write runs as a transaction of one operation
// (snapMap.write), so the argument covers it too.
//
// The sealed watermark: a drawn timestamp is not immediately readable —
// the transaction may still fail validation, and a slower writer may hold a
// smaller undrawn timestamp. Each worker slot advertises a lower bound
// (inflight) *before* drawing; the seal is min(clock, min over slots of
// inflight-1), CAS-maxed so it never regresses. A snapshot pins the seal, so
// it can never observe a timestamp that an in-flight commit could still
// publish beneath it (a torn cut). Versions are reclaimed behind a GC
// floor = min(seal, oldest pinned snapshot); readers advertise their pin
// with a store-recheck loop so the floor can never pass a live snapshot.
// Reclamation rides the publish path, with no goroutine and no knob (see
// maintain): beyond one version per present key the table holds a sixteenth
// of its slots in versions awaiting a sweep, plus whatever a pinned snapshot
// is still entitled to read.
//
// The start. The tier starts once per engine, at its first snapshot, and
// never stops. Until then a committing worker only marks its slot
// (unpublished) for the length of its TxEnd — of its inner operation, for a
// standalone write — and re-reads the tier state after the mark. The first
// snapshot starts the tier under startMu:
//
//  1. state = starting: from here on no writer publishes until the tier is
//     on. A writer that meets the start waits on startMu, and only while it
//     holds nothing: a standalone write before its inner operation, a Run
//     attempt before it opens its transaction. A Run attempt meets it at its
//     commit: one that wrote with the tier not on buffered nothing, aborts
//     there and waits before its retry. A Run that writes nothing never
//     waits.
//  2. Wait until no slot is marked.
//  3. Draw the seed.
//  4. Scan every map registered with the tier (Range: each key as it stood at
//     some instant of the walk), publishing each present key at the seed.
//  5. Seal through the seed (one reseal: nothing else has drawn), state = on.
//
// Why the table at any cut c >= seed is the committed state at c. Take a key
// k that the scan read at instant s. A committed write to k that drew no
// timestamp is unpublished: its worker marked its slot, then read the state
// as off, so step 1 followed the mark (the stores and loads are sequentially
// consistent: a Dekker pair), step 2 saw it and waited for the clear, which
// follows the write; the write precedes s. Every other committed write
// reached the inner map once the tier was on — each write of a transaction
// read the state as on, and a standalone write is then a transaction — so it
// follows the scan and its version is in the table, above the seed
// (nothing else draws while the tier is starting). The seed — k's state at
// s, no version if k was absent — is therefore the result of every write
// that precedes s, and nothing lies below it. A reader at c takes the newest
// version at or below c: the newest write stamped at or below c if there is
// one (timestamps order conflicting commits), the seed if not. A scan that
// meets a transaction still InPrep aborts it, as any reader does; that
// attempt aborts at its commit anyway. Nothing reads below the seed: the seal
// passes it before the state opens and never goes back, and a snapshot pins
// the seal.

import (
	mbits "math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"medley/internal/chaos"
	"medley/internal/core"
	"medley/internal/montage"
	"medley/internal/structures/mhash"
	"medley/internal/txmap"
)

// The instants of the start protocol, in the order a committing worker or the
// starting snapshot passes them. A production run arms none of them; tests
// park a goroutine at each to enumerate the start's windows.
var (
	cpCommitPreMark = chaos.At("snapshot.commit.pre-mark") // tier off, slot not yet marked
	cpCommitMarked  = chaos.At("snapshot.commit.marked")   // slot marked, state not yet re-read
	cpCommitChecked = chaos.At("snapshot.commit.checked")  // re-read as off: TxEnd or the standalone inner op next
	cpCommitDone    = chaos.At("snapshot.commit.done")     // committed unpublished, the mark not yet cleared
	cpCommitWindow  = chaos.At("snapshot.commit.window")   // tier on: timestamp drawn, TxEnd next
	cpStartScan     = chaos.At("snapshot.start.scan")      // the start has seeded one more key
)

// SnapshotRead runs fn as a read-only transaction against a consistent cut
// of the engine's committed history when tx's engine supports it
// (CapSnapshot), and reports whether it did: every map Get inside fn
// observes the same commit-timestamp prefix, no validation runs, and the
// snapshot never aborts or restarts. Map writes and queue operations inside
// fn panic — snapshots are read-only by contract. On every other engine it
// is a no-op returning false, so portable workload code can attempt a
// snapshot unconditionally and fall back to RunRead:
//
//	if !txengine.SnapshotRead(tx, probe) {
//		_ = tx.RunRead(probe)
//	}
func SnapshotRead(tx Tx, fn func()) bool {
	t, ok := tx.(*sessionTx)
	if ok {
		t.snap.snapshot(t.ct, t.s.InTx(), 1, func(int, uint64) { fn() })
	}
	return ok
}

// SnapshotReadBatch is the batched companion of SnapshotRead: it pins one
// consistent cut and runs each(i, cut) for i in [0, n), amortizing the pin,
// seal, and GC-floor bookkeeping over the batch. Each closure is its own
// logical snapshot transaction (n SnapshotReads in Stats); all of them
// observe the same commit-timestamp prefix, returned as the cut (compare it
// against LastCommitTS to detect a cut trailing a handle's own writes). The
// portable no-op contract matches SnapshotRead: on engines without
// CapSnapshot it returns (0, false) without invoking each, so callers fall
// back to per-closure OCC reads.
func SnapshotReadBatch(tx Tx, n int, each func(i int, cut uint64)) (uint64, bool) {
	if t, ok := tx.(*sessionTx); ok {
		return t.snap.snapshot(t.ct, t.s.InTx(), n, each), true
	}
	return 0, false
}

// LastCommitTS reports the commit timestamp of the most recent
// version-stamped write committed through tx — standalone or transactional —
// or 0 when the handle has written nothing (or the engine has no snapshot
// tier). Until the engine's tier has started no write is stamped, so it
// returns 0 until then; every snapshot cut covers the writes made before the
// start. A snapshot cut at or above this watermark is guaranteed to include
// every write the handle has completed, which is how a serving layer keeps
// read-your-writes while routing reads through snapshots: serve the read
// from any cut >= LastCommitTS, fall back to an OCC read when the available
// cut trails it (a writer elsewhere is still sealing).
func LastCommitTS(tx Tx) uint64 {
	if t, ok := tx.(*sessionTx); ok {
		return t.snap.lastTS
	}
	return 0
}

// snapSlot is one worker's communication surface with the tier: inflight
// publishes a lower bound on the timestamp the worker may be about to draw
// (0 = no commit in flight), reading publishes the timestamp of the
// worker's pinned snapshot (0 = none), and unpublished marks a commit that
// publishes nothing (before the tier's start). Padded so two hot slots never
// share a cache line.
type snapSlot struct {
	inflight    atomic.Uint64
	reading     atomic.Uint64
	unpublished atomic.Bool
	_           [108]byte
}

// The tier's states, in the one order it passes them.
const (
	snapOff      uint32 = iota // nothing has read a snapshot: commits publish nothing
	snapStarting               // the first snapshot is seeding the tables: writers that meet it wait on startMu
	snapOn                     // started, for good
)

// snapTier is the per-engine clock + watermark state shared by every worker
// and every snapMap of one engine. An engine owns exactly one tier, which
// wraps each of its top-level maps, so a transaction over several maps
// stamps exactly one timestamp.
type snapTier struct {
	clock   atomic.Uint64 // last drawn commit timestamp
	sealed  atomic.Uint64 // highest timestamp safe for snapshots to read
	slots   atomic.Pointer[[]*snapSlot]
	state   atomic.Uint32
	mu      sync.Mutex   // guards slot registration
	startMu sync.Mutex   // held by the start (writers that meet it wait on it) and by a map joining the tier
	maps    []snapSource // every top-level map of the engine; guarded by startMu
}

// newSnapTier builds a tier. When the engine is montage-backed, dom anchors
// the timestamp base to its durable epoch clock (epoch << 16 leaves room
// for intra-epoch commit ordering without colliding with a later
// re-anchor); transient engines start at 1. Zero is reserved to mean "no
// timestamp" in slots.
func newSnapTier(dom *montage.Domain) *snapTier {
	t := &snapTier{}
	base := uint64(1)
	if dom != nil {
		base = dom.Current() << 16
	}
	t.clock.Store(base)
	t.sealed.Store(base)
	empty := make([]*snapSlot, 0)
	t.slots.Store(&empty)
	return t
}

// newSlot registers a worker with the tier. Slots are copy-on-write so the
// hot paths (reseal, floor refresh, the start's wait) walk a plain slice with
// no lock.
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

// snapSource is a top-level map as the tier's start sees it (snapMap.seed).
type snapSource interface {
	seed(ts uint64)
}

// register adds a new map to those the start scans. A map that joins a tier
// already on is seeded on the spot, at the seal: nothing can have written it
// yet, so its content is the committed state at every cut from there on.
func (t *snapTier) register(m snapSource) {
	t.startMu.Lock()
	defer t.startMu.Unlock()
	t.maps = append(t.maps, m)
	if t.state.Load() == snapOn {
		m.seed(t.sealed.Load())
	}
}

// start starts the tier, the first time a snapshot asks (see the header);
// later callers find it on, or wait on startMu for the start under way.
func (t *snapTier) start() {
	t.startMu.Lock()
	defer t.startMu.Unlock()
	if t.state.Load() == snapOn {
		return
	}
	t.state.Store(snapStarting)
	for i := 0; t.marked(); i++ {
		if i < 64 {
			runtime.Gosched()
		} else {
			time.Sleep(20 * time.Microsecond)
		}
	}
	seed := t.clock.Add(1)
	for _, m := range t.maps {
		m.seed(seed)
	}
	t.reseal() // no commit window is open: the seal reaches the seed
	t.state.Store(snapOn)
}

// marked reports whether some worker's slot marks an unpublished commit.
func (t *snapTier) marked() bool {
	for _, w := range *t.slots.Load() {
		if w.unpublished.Load() {
			return true
		}
	}
	return false
}

// waitStart returns once the start that the caller found under way is done:
// a writer that meets the start waits here, holding nothing.
func (t *snapTier) waitStart() {
	t.startMu.Lock()
	t.startMu.Unlock()
}

// beginCommit opens a commit window for s and returns the drawn timestamp.
// The inflight lower bound is stored before the draw: any sealer that reads
// this slot as idle (0) must have read it before the store, hence loaded
// the clock before the draw, hence computed a seal below the drawn
// timestamp. That ordering is what makes the seal a torn-cut barrier.
func (t *snapTier) beginCommit(s *snapSlot) uint64 {
	s.inflight.Store(t.clock.Load())
	ts := t.clock.Add(1)
	cpCommitWindow.Hit()
	return ts
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

// refreshFloor computes the GC floor for the sweep that asks: the seal first,
// then every pinned snapshot (the order pairs with beginSnapshot's recheck
// loop). Nothing is stored: every pin live at or after the seal load is at or
// above the result, so any floor ever computed stays safe to sweep against.
func (t *snapTier) refreshFloor() uint64 {
	floor := t.sealed.Load()
	for _, s := range *t.slots.Load() {
		if v := s.reading.Load(); v != 0 && v < floor {
			floor = v
		}
	}
	return floor
}

// snapVer is one committed state of one key. key, stamp and val never change
// once a slot or a newer version points at it; next does, when a slower
// writer threads itself beneath or a sweep cuts the tail. stamp is ts<<1 with
// the delete mark in bit 0: one compare orders a chain and a tombstone costs
// no field, so a uint map's version is 32 bytes (pinned by a test).
type snapVer[V any] struct {
	key   uint64
	stamp uint64
	val   V
	next  atomic.Pointer[snapVer[V]] // next older version
}

func (n *snapVer[V]) ts() uint64 { return n.stamp >> 1 }
func (n *snapVer[V]) del() bool  { return n.stamp&1 != 0 }

type snapSlots[V any] []atomic.Pointer[snapVer[V]]

// snapStripes is fixed, so a key's stripe never changes; a stripe's slot
// array starts at snapMinSlots. Both are powers of two.
const (
	snapStripes  = 64
	snapMinSlots = 8
)

// snapStripe is one open-addressed (linear probing) slot array behind an
// atomic pointer. Publishers serialize on mu, which also guards every other
// field; readers load the pointer and probe, taking no lock and writing
// nothing. 64 bytes, the last 8 padding, and first in the table: whether the
// allocator starts the table on a cache line or 8 bytes into one, behind its
// header, the fields of two stripes never share a line (pinned by a test).
type snapStripe[V any] struct {
	mu    sync.Mutex
	slots atomic.Pointer[snapSlots[V]]
	dirty []uint64 // one bit per slot: its chain holds something a sweep may reclaim
	used  int32    // non-empty slots, dead markers included: at most 3/4 of the array
	since int32    // publishes since the last sweep
	swept uint64   // the GC floor of the last sweep
	_     [8]byte
}

// snapTable is the version sidecar of one top-level map: the key itself
// picks the stripe and the slot, the slot holds the key's newest version, a
// miss means "absent at the cut". A publish allocates its version and
// nothing else, bar the array a full stripe moves into.
type snapTable[V any] struct {
	stripes [snapStripes]snapStripe[V]
	tier    *snapTier
	dead    snapVer[V] // &dead marks a slot whose key was swept: probes pass it, inserts reuse it
}

// publish installs the committed state (val, or a tombstone) of key k at ts.
// Chains stay sorted by descending ts: the common case is a new head (ts is
// the newest drawn), but a slower writer may publish beneath newer versions —
// snapshot pins below its timestamp are blocked by the seal, so late
// placement is invisible to readers that could be hurt by it. The same
// argument covers a key that lands in a slot a reader has already probed
// past, or in an array newer than the one the reader loaded: every version
// with ts <= sealed was fully published before the reader pinned, so all a
// miss can hide is timestamps above the cut.
func (t *snapTable[V]) publish(k, ts uint64, val V, del bool) {
	v := &snapVer[V]{key: k, stamp: ts << 1, val: val}
	if del {
		v.stamp |= 1
	}
	h := mhash.Mix64(k)
	s := &t.stripes[h%snapStripes]
	s.mu.Lock()
	defer s.mu.Unlock()
	slots := t.maintain(s)
	mask := uint64(len(slots) - 1)
	at := -1            // the slot v lands in
	var cur *snapVer[V] // the chain it lands on, if the key has one
probe:
	for i := h / snapStripes & mask; ; i = (i + 1) & mask {
		switch n := slots[i].Load(); {
		case n == nil:
			if at < 0 {
				at = int(i)
				s.used++
			}
			break probe
		case n == &t.dead:
			if at < 0 {
				at = int(i)
			}
		case n.key == k:
			at, cur = int(i), n
			break probe
		}
	}
	if cur == nil || cur.stamp < v.stamp {
		v.next.Store(cur)
		slots[at].Store(v)
	} else {
		for n := cur.next.Load(); n != nil && n.stamp > v.stamp; n = cur.next.Load() {
			cur = n
		}
		v.next.Store(cur.next.Load())
		cur.next.Store(v)
	}
	if cur != nil || del {
		s.dirty[at>>6] |= 1 << (at & 63)
	}
}

// maintain does, under s.mu, the housekeeping that is due before a publish
// and returns the array to publish into, with room for one more key. Every
// len/16 publishes it refreshes the GC floor and, if that moved, sweeps the
// dirty slots; a full scan at that rate would cost every publish several
// cache misses, and at a lower one removed keys sit in their slots long
// enough to double the array. When the array is 3/4 full (dead markers
// count) the live heads move into one that the keys present fill at most by
// half — larger, the same less its dead markers, or smaller — and the old
// array stays as it was for the readers still probing it. The move runs in
// the publisher's commit window, so it holds back the stripe's publishers and
// the seal for a time linear in keys/snapStripes — 0.2 ms at 8 k keys a
// stripe (a map of half a million keys; the benchmark rows that start the
// tier hold 64 Ki keys, 1 k a stripe), 4 ms at 80 k — at most once per len/4
// inserts; the stripe count must grow before maps do (ROADMAP).
func (t *snapTable[V]) maintain(s *snapStripe[V]) snapSlots[V] {
	var slots snapSlots[V]
	if p := s.slots.Load(); p != nil {
		slots = *p
	}
	if s.since++; int(s.since) >= max(len(slots)/16, snapMinSlots) {
		s.since = 0
		if floor := t.tier.refreshFloor(); floor != s.swept {
			s.swept = floor
			t.sweep(s, slots, floor)
		}
	}
	if (int(s.used)+1)*4 <= len(slots)*3 {
		return slots
	}
	live, present := 0, 0
	for i := range slots {
		if n := slots[i].Load(); n != nil && n != &t.dead {
			live++
			if !n.del() {
				present++
			}
		}
	}
	size := snapMinSlots
	for size < 2*(present+1) || size*3 < 4*(live+1) {
		size *= 2
	}
	next, dirty := make(snapSlots[V], size), make([]uint64, (size+63)/64)
	mask := uint64(size - 1)
	for i := range slots {
		if n := slots[i].Load(); n != nil && n != &t.dead {
			j := mhash.Mix64(n.key) / snapStripes & mask
			for next[j].Load() != nil {
				j = (j + 1) & mask
			}
			next[j].Store(n)
			if n.del() || n.next.Load() != nil {
				dirty[j>>6] |= 1 << (j & 63)
			}
		}
	}
	s.used, s.dirty = int32(live), dirty
	s.slots.Store(&next)
	return next
}

// sweep reclaims in place, under the stripe mutex, what no snapshot can
// reach. In a chain the newest version at or below the floor is the last one
// any live or future cut reads — nothing at or below the floor can still be
// published beneath it or pinned above it — so the tail behind it goes; if
// it is a tombstone it goes too, because a missing tail says "absent" just as
// well, and when that leaves nothing the slot becomes a dead marker. A slot
// stays dirty until its chain is one live version or gone.
func (t *snapTable[V]) sweep(s *snapStripe[V], slots snapSlots[V], floor uint64) {
	for w := range s.dirty {
		for bits := s.dirty[w]; bits != 0; bits &= bits - 1 {
			i := w<<6 | mbits.TrailingZeros64(bits)
			head := slots[i].Load()
			var newer *snapVer[V]
			n := head
			for n != nil && n.ts() > floor {
				newer, n = n, n.next.Load()
			}
			switch {
			case n == nil:
			case !n.del():
				n.next.Store(nil)
			case newer != nil:
				newer.next.Store(nil)
			default:
				head = nil
				slots[i].Store(&t.dead)
			}
			if head == nil || !head.del() && head.next.Load() == nil {
				s.dirty[w] &^= bits & -bits
			}
		}
	}
}

// read returns key k's state at snapshot timestamp rt: the newest version
// with ts <= rt, or absent when there is none (the key did not exist at the
// cut) or it is a tombstone. Any array the stripe has published answers every
// cut pinned before the array was loaded (see publish), so the one loaded
// here serves the whole probe through a concurrent move.
func (t *snapTable[V]) read(k, rt uint64) (val V, ok bool) {
	h := mhash.Mix64(k)
	p := t.stripes[h%snapStripes].slots.Load()
	if p == nil {
		return val, false
	}
	slots := *p
	mask := uint64(len(slots) - 1)
	for i := h / snapStripes & mask; ; i = (i + 1) & mask {
		n := slots[i].Load()
		if n == nil {
			return val, false
		}
		if n == &t.dead || n.key != k {
			continue
		}
		for ; n != nil; n = n.next.Load() {
			if n.ts() <= rt {
				return n.val, !n.del()
			}
		}
		return val, false
	}
}

// The worker's write buffer is shared by maps of both value types, so a value
// crosses it as a pair: a uint64 in uval, anything else (V is any, the row
// maps) in aval. Which half is V's is a property of the instantiation, not of
// the value — a row that happens to be a uint64 still travels in aval.
func snapSplit[V any](v V) (uint64, any) {
	if u, ok := any(&v).(*uint64); ok {
		return *u, nil
	}
	return 0, v
}

// publishRaw is publish from the write buffer.
func (t *snapTable[V]) publishRaw(k, ts, uval uint64, aval any, del bool) {
	var val V
	if u, ok := any(&val).(*uint64); ok {
		*u = uval
	} else {
		val, _ = aval.(V)
	}
	t.publish(k, ts, val, del)
}

// snapPublisher is what the write buffer needs of a table.
type snapPublisher interface {
	publishRaw(k, ts, uval uint64, aval any, del bool)
}

// pendingWrite is one buffered publication awaiting its transaction's commit
// timestamp.
type pendingWrite struct {
	tab  snapPublisher
	k    uint64
	uval uint64
	aval any
	del  bool
}

// snapAgent is the per-worker snapshot state embedded in a Medley-family Tx
// handle (sessionTx), and the commit of its transactions (commit).
type snapAgent struct {
	tier        *snapTier
	slot        *snapSlot
	ses         *core.Session // the worker's session
	end         func() error  // ses.TxEnd, bound once: a method value per commit would allocate
	rt          uint64        // nonzero while inside SnapshotRead: the pinned cut
	lastTS      uint64        // commit ts of the handle's newest published write (see LastCommitTS)
	unpublished bool          // the attempt wrote with the tier not on: its commit is marked, or aborts
	held        bool          // the last attempt's commit met the start: the next waits it out
	pending     []pendingWrite
	bo          backoff // between the attempts of a standalone write (snapMap.write)
}

// beginAttempt readies the agent for a Run attempt, before the attempt opens
// its transaction: one whose last attempt met the tier's start waits here for
// it to end, holding nothing, and whatever an earlier attempt left is dropped.
func (a *snapAgent) beginAttempt() {
	if a.held {
		a.held = false
		a.tier.waitStart()
	}
	a.reset()
}

// reset drops buffered publications, so an aborted or restarted attempt
// leaves nothing behind.
func (a *snapAgent) reset() {
	for i := range a.pending {
		a.pending[i].aval = nil
	}
	a.pending = a.pending[:0]
	a.unpublished = false
}

// snapshot is SnapshotRead and SnapshotReadBatch: one cut is pinned,
// each(i, cut) runs for i in [0, n) against it, n snapshot reads are counted
// in ct, and the cut is returned. It panics inside an open transaction (the
// snapshot would not see the transaction's own writes). The tier starts here,
// on the engine's first snapshot, and nowhere else.
func (a *snapAgent) snapshot(ct *Stats, inTx bool, n int, each func(i int, cut uint64)) uint64 {
	if inTx {
		panic("txengine: snapshot read inside an open transaction")
	}
	if a.tier.state.Load() != snapOn {
		a.tier.start()
	}
	rt, stale := a.tier.beginSnapshot(a.slot)
	a.rt = rt
	defer func() {
		a.rt = 0
		a.tier.endSnapshot(a.slot)
	}()
	for i := 0; i < n; i++ {
		each(i, rt)
	}
	ct.countSnapshotN(stale, uint64(n))
	return rt
}

// snapWrite is how one map write meets the tier, decided before the write
// reaches the inner map (beginWrite) and acted on after it (endWrite).
type snapWrite uint8

const (
	writeBuffered    snapWrite = iota // tier on, in a transaction: published at the commit's timestamp
	writeOne                          // tier on, standalone: run as a transaction of one operation
	writeUnpublished                  // tier not on, in a transaction: the attempt's commit is marked, or aborts
	writeMarked                       // tier off, standalone: the slot is marked around the inner op
)

// beginWrite readies one map write; buffered says a transaction is open. It
// panics inside a snapshot — snapshots are read-only. A standalone write with
// the tier off marks the slot here, before its inner op, and re-reads the
// state; one that finds a start under way, either time, waits it out here.
func (a *snapAgent) beginWrite(buffered bool) snapWrite {
	if a.rt != 0 {
		panic("txengine: write inside SnapshotRead (snapshot transactions are read-only)")
	}
	state := a.tier.state.Load()
	switch {
	case state == snapOn && buffered:
		return writeBuffered
	case state == snapOn:
		return writeOne
	case buffered:
		return writeUnpublished
	case state == snapOff && a.mark():
		return writeMarked
	}
	a.tier.waitStart()
	return writeOne
}

// endWrite finishes a write begun as w; applied says whether it changed the
// inner map (an Insert of a present key or a Remove of an absent one did
// not). Inside a transaction the committed state of a key is buffered —
// deduplicated, only a key's final state commits — and published at the
// transaction's single drawn timestamp.
func (a *snapAgent) endWrite(w snapWrite, tab snapPublisher, k, uval uint64, aval any, del, applied bool) {
	if w == writeMarked {
		a.unmark()
		return
	}
	if !applied {
		return
	}
	switch w {
	case writeUnpublished:
		a.unpublished = true
	case writeBuffered:
		for i := range a.pending {
			if p := &a.pending[i]; p.tab == tab && p.k == k {
				p.uval, p.aval, p.del = uval, aval, del
				return
			}
		}
		a.pending = append(a.pending, pendingWrite{tab: tab, k: k, uval: uval, aval: aval, del: del})
	}
}

// mark marks an unpublished commit in the worker's slot and re-reads the
// tier state: true, the tier is still off and its start will wait for the
// commit until unmark; false, a start is under way or done, the mark is gone
// again and the commit must not go ahead unpublished.
func (a *snapAgent) mark() bool {
	cpCommitPreMark.Hit()
	a.slot.unpublished.Store(true)
	cpCommitMarked.Hit()
	if a.tier.state.Load() == snapOff {
		cpCommitChecked.Hit()
		return true
	}
	a.slot.unpublished.Store(false)
	return false
}

// unmark ends a marked commit.
func (a *snapAgent) unmark() {
	cpCommitDone.Hit()
	a.slot.unpublished.Store(false)
}

// publishAll flushes the buffer at the transaction's commit timestamp.
func (a *snapAgent) publishAll(ts uint64) {
	for i := range a.pending {
		p := &a.pending[i]
		p.tab.publishRaw(p.k, ts, p.uval, p.aval, p.del)
		p.aval = nil
	}
	a.pending = a.pending[:0]
	a.lastTS = ts
}

// commit runs end — the transaction's one commit verdict. An attempt that
// wrote with the tier not on runs it marked if the tier is still off, and
// otherwise returns core.ErrTxAborted without running it: the caller aborts
// the open transaction, and the retry waits for the start at its head
// (beginAttempt). An attempt that wrote with the tier on runs end inside a
// commit window of the tier: the timestamp is drawn after fn installed every
// node and before end's InPrep→InProg transition, which is what keeps
// timestamp order consistent with conflict order, and on success the
// buffered writes publish under it. Read-only transactions buffer nothing and
// skip the draw.
func (a *snapAgent) commit() error {
	if a.unpublished {
		if !a.mark() {
			a.held = true
			return core.ErrTxAborted
		}
		err := a.end()
		a.unmark()
		return err
	}
	if len(a.pending) == 0 {
		return a.end()
	}
	ts := a.tier.beginCommit(a.slot)
	err := a.end()
	if err == nil {
		a.publishAll(ts)
	} else {
		a.reset()
	}
	a.tier.endCommit(a.slot)
	return err
}

// rangeMap is the session-level structure under a top-level map: a Medley
// structure or a montage persistent map, called with the worker's session.
// Range visits every present pair, each as it stood at some instant of the
// walk — not a linearizable snapshot of the map, which the tier's start does
// not need.
type rangeMap[V any] interface {
	txmap.Map[V]
	Range(f func(k uint64, v V) bool)
}

// snapMap is a top-level engine map: the session-level structure and its
// version sidecar. OCC reads and all writes pass straight through to the
// structure, with the worker's session; writes additionally meet the tier
// (write), and snapshot reads (agent.rt != 0) are served entirely from the
// table.
type snapMap[V any] struct {
	inner rangeMap[V]
	tab   *snapTable[V]
}

// newSnapMap attaches the snapshot sidecar to a structure, new or recovered
// alike, and registers it with the tier.
func newSnapMap[V any](inner rangeMap[V], tier *snapTier) Map[V] {
	m := snapMap[V]{inner: inner, tab: &snapTable[V]{tier: tier}}
	tier.register(m)
	return m
}

// seed is step 4 of the start for this map: every key present in the inner
// map is published at ts.
func (m snapMap[V]) seed(ts uint64) {
	m.inner.Range(func(k uint64, v V) bool {
		m.tab.publish(k, ts, v, false)
		cpStartScan.Hit()
		return true
	})
}

// snapOp is a map write as snapMap.write runs it.
type snapOp uint8

const (
	opPut snapOp = iota
	opInsert
	opRemove
)

// write is every write through the map: op on the inner map, met by the tier
// (beginWrite, endWrite). A standalone write on a tier that is on runs as a
// transaction of one operation on the worker's session, retried until it
// commits: it installs, draws and resolves as a Run does, so its timestamp
// orders it against every other writer of its key (see the header).
func (m snapMap[V]) write(tx Tx, op snapOp, k uint64, v V) (V, bool) {
	t := tx.(*sessionTx)
	a := &t.snap
	w := a.beginWrite(t.s.InTx())
	if w != writeOne {
		return m.apply(a, w, op, k, v)
	}
	for attempt := 0; ; attempt++ {
		a.reset()
		a.ses.TxBegin()
		prev, ok := m.apply(a, writeBuffered, op, k, v)
		if a.ses.InTx() && a.commit() == nil {
			return prev, ok
		}
		a.bo.wait(attempt)
	}
}

// apply runs op on the inner map, with the worker's session, and finishes it
// as a write begun as w.
func (m snapMap[V]) apply(a *snapAgent, w snapWrite, op snapOp, k uint64, v V) (prev V, ok bool) {
	switch op {
	case opPut:
		prev, ok = m.inner.Put(a.ses, k, v)
	case opInsert:
		ok = m.inner.Insert(a.ses, k, v)
	default:
		prev, ok = m.inner.Remove(a.ses, k)
	}
	u, av := snapSplit(v)
	a.endWrite(w, m.tab, k, u, av, op == opRemove, ok || op == opPut)
	return prev, ok
}

func (m snapMap[V]) Get(tx Tx, k uint64) (V, bool) {
	t := tx.(*sessionTx)
	if t.snap.rt != 0 {
		return m.tab.read(k, t.snap.rt)
	}
	return m.inner.Get(t.s, k)
}

func (m snapMap[V]) Put(tx Tx, k uint64, v V) (V, bool) { return m.write(tx, opPut, k, v) }

func (m snapMap[V]) Insert(tx Tx, k uint64, v V) bool {
	_, ok := m.write(tx, opInsert, k, v)
	return ok
}

func (m snapMap[V]) Remove(tx Tx, k uint64) (V, bool) {
	var none V
	return m.write(tx, opRemove, k, none)
}
