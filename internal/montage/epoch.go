// Package montage implements an nbMontage-style periodic-persistence system
// (Cai et al., DISC 2021) and its integration with Medley — the paper's
// txMontage (Section 4).
//
// Wall-clock time is divided into epochs. Semantically significant data
// ("payloads": key/value records) are written to (simulated) NVM as they are
// created, tagged with the creating operation's epoch; indices live in
// transient memory and are rebuilt on recovery. When the epoch advances from
// e to e+1, all payload activity of epoch e-1 is written back and fenced —
// off the application's critical path. A crash during epoch e therefore
// recovers the state as of the end of epoch e-2 (buffered durable strict
// serializability; Definitions 4–5 of the paper).
//
// The txMontage twist (Section 4.4) is one small hook: every Medley
// transaction pins the epoch it began in and folds "current epoch == pinned
// epoch" into MCNS read validation, so all operations of a transaction
// linearize in one epoch and are recovered (or lost) together — failure
// atomicity "almost for free".
//
// # Multi-device persistence
//
// The epoch *counter* and the per-device *batching* are separate concerns:
// an EpochClock carries the counter plus the pinned-session registry, and an
// EpochSys carries one device's pending batches. A single-device system owns
// a private clock (NewEpochSys); a multi-device domain shares one clock
// across S EpochSys instances (NewEpochSysShared), and each Map spans all of
// them with one index, writing a key's payloads on the device the key routes
// to (DeviceOf). Every transaction in the domain — wherever its keys'
// devices are — pins one epoch of the same monotonically advancing clock,
// tags every payload it writes with it, and commits only while that epoch
// is current (its one epoch validator), so no transaction is persisted
// across two recovery cuts and nothing locks the clock to say so. A
// coordinator advances all devices together
// (AdvanceTogether, or StartAdvancer's background loop). Each flush ends
// with a durable frontier marker on the device (pnvm.MarkerKey, tagged with
// the flushed epoch), so post-crash recovery can compute, per device, the
// highest epoch fully persisted there. Reclaim is nbMontage's rule — a payload
// retired in epoch e is freed once e is persisted — and in a domain persisted
// means on every device: Flush only queues what it found durably retired at
// or before the epoch it flushed, and AdvanceTogether frees the queues after
// the last device has fenced its marker, because until then a crash still
// cuts at the epoch before. Recovery itself is not montage's: the
// cut (the minimum of those frontiers), the live set at it and the media
// scrub are pnvm.RecoverDomain, shared with POneFile; Recover below adds only
// what is epoch-specific — it keeps advancers off the devices meanwhile and
// restarts the clock past the cut.
package montage

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"medley/internal/chaos"
	"medley/internal/core"
	"medley/internal/pnvm"
)

// Fault-injection points on the epoch flush/advance path. The flush points
// sit inside one device's Flush (batch write-backs, the window between batch
// durability and the frontier marker, and the marker's own volatile window);
// the advance points sit in AdvanceTogether, where a crash tears the domain
// between shards' flushes, or between two frees of the reclaim pass that
// follows them. All of these sites return nothing, so only crash/delay faults
// are meaningful.
var (
	cpFlushBatch          = chaos.At("txmontage.flush.batch")
	cpFlushPreMarker      = chaos.At("txmontage.flush.pre-marker")
	cpFlushMarkerVolatile = chaos.At("txmontage.flush.marker-volatile")
	cpAdvancePreFlush     = chaos.At("txmontage.advance.pre-flush")
	cpAdvanceMidShard     = chaos.At("txmontage.advance.mid-shard")
	cpAdvanceReclaim      = chaos.At("txmontage.advance.reclaim")
)

// firstEpoch leaves room for the e-2 recovery cut arithmetic.
const firstEpoch = 3

// EpochClock is the epoch counter plus the registry of sessions pinned to an
// epoch. One clock can be shared by several EpochSys instances (txMontage
// over several devices: one batch system per device, one clock): a transaction
// pins one epoch of it and validates "still current" once at commit, so it
// lands in the same epoch cut on every device it touches. Nothing locks the
// counter against commits — a tick between a transaction's operations, or
// between its last one and TxEnd, fails that validation and the transaction
// retries in the new epoch.
type EpochClock struct {
	epoch atomic.Uint64

	// advanceMu serializes whole advance sequences (tick + straggler wait
	// + flush) against each other. Without it, a Sync racing a background
	// advancer could durably write epoch E's frontier marker before epoch
	// E-1's batch finished write-back, falsifying the marker invariant
	// ("marker at E ⇒ complete through E") that recovery cuts rely on.
	advanceMu sync.Mutex

	mu     sync.Mutex
	active []*atomic.Uint64 // per-session pinned epoch (0 = none)
}

// NewEpochClock creates a clock at the first epoch.
func NewEpochClock() *EpochClock {
	c := &EpochClock{}
	c.epoch.Store(firstEpoch)
	return c
}

// Current returns the current epoch.
func (c *EpochClock) Current() uint64 { return c.epoch.Load() }

// Tick advances the epoch by one and returns the new value. It does not
// wait for stragglers or flush anything — see EpochSys.Advance and
// AdvanceTogether for the full advance protocols.
func (c *EpochClock) Tick() uint64 { return c.epoch.Add(1) }

// AdvanceTo raises the clock to at least epoch e. Recovery re-anchoring
// uses it so the fresh clock starts beyond every pre-crash epoch still on
// media — a new transaction must never share an epoch number with an old,
// already-flushed batch.
func (c *EpochClock) AdvanceTo(e uint64) {
	for {
		cur := c.epoch.Load()
		if cur >= e || c.epoch.CompareAndSwap(cur, e) {
			return
		}
	}
}

// register allocates an active-epoch slot for a session.
func (c *EpochClock) register() *atomic.Uint64 {
	slot := &atomic.Uint64{}
	c.mu.Lock()
	c.active = append(c.active, slot)
	c.mu.Unlock()
	return slot
}

// WaitNotPinnedBelow spins until no session is pinned to an epoch < bound.
func (c *EpochClock) WaitNotPinnedBelow(bound uint64) {
	for {
		c.mu.Lock()
		ok := true
		for _, slot := range c.active {
			if e := slot.Load(); e != 0 && e < bound {
				ok = false
				break
			}
		}
		c.mu.Unlock()
		if ok {
			return
		}
		runtime.Gosched()
	}
}

// EpochSys manages one device's pending persistence batches and its view of
// the (possibly shared) epoch clock. Create with NewEpochSys (private clock)
// or NewEpochSysShared, attach to a TxManager with Attach, and either run
// the background advancer (StartAdvancer) over every system of the clock or
// call Advance / AdvanceTogether by hand (tests).
type EpochSys struct {
	dev   *pnvm.Device
	clock *EpochClock

	// Record ids touched (created or retired) in an epoch, awaiting
	// write-back. Striped to keep op-path contention low.
	stripes [16]pendStripe

	// dead holds the ids Flush found durably retired at or before the epoch
	// it flushed. AdvanceTogether frees them once every device of the domain
	// carries that epoch's marker. Touched only under the clock's advanceMu.
	dead []uint64

	// lastMarker is the id of the newest durable frontier marker; each
	// flush deletes the one it supersedes (recovery takes the max, so only
	// the newest matters) to keep marker count O(1) instead of O(epochs).
	// Written only under the clock's advanceMu.
	lastMarker uint64
}

// pendSlots is the size of a stripe's ring of batches. Every epoch is flushed
// exactly once, two advances after it was current, and a session adds only to
// the epoch it is pinned to, which Flush's caller has waited out: at most
// three epochs hold ids at a time.
const pendSlots = 4

type pendStripe struct {
	mu sync.Mutex
	// pend[e % pendSlots] is epoch e's batch. Flush empties a slot and keeps
	// its array, so in steady state a batch grows into last round's capacity.
	pend [pendSlots][]uint64
}

// NewEpochSys creates an epoch system over the given device with a private
// clock.
func NewEpochSys(dev *pnvm.Device) *EpochSys {
	return NewEpochSysShared(dev, NewEpochClock())
}

// NewEpochSysShared creates an epoch system over the given device pinned to
// a shared clock. The caller owns the advance cadence: drive all systems of
// the clock together (AdvanceTogether, SyncTogether, or one StartAdvancer
// over all of them), never one system alone.
func NewEpochSysShared(dev *pnvm.Device, clock *EpochClock) *EpochSys {
	return &EpochSys{dev: dev, clock: clock}
}

// Device returns the underlying simulated NVM device.
func (es *EpochSys) Device() *pnvm.Device { return es.dev }

// Clock returns the epoch clock (private or shared).
func (es *EpochSys) Clock() *EpochClock { return es.clock }

// Current returns the current epoch.
func (es *EpochSys) Current() uint64 { return es.clock.Current() }

func (es *EpochSys) pendAdd(sid int, epoch, id uint64) {
	st := &es.stripes[sid%len(es.stripes)]
	st.mu.Lock()
	st.pend[epoch%pendSlots] = append(st.pend[epoch%pendSlots], id)
	st.mu.Unlock()
}

// PNew writes a fresh payload to NVM tagged with epoch, registering it for
// the epoch's persistence batch. Returns the payload id.
func (es *EpochSys) PNew(sid int, key uint64, val []byte, epoch uint64) uint64 {
	if key == pnvm.MarkerKey {
		panic("montage: payload key 2^64-1 is reserved for frontier markers")
	}
	id, err := es.dev.Write(key, val, epoch)
	if err != nil {
		panic("montage: device crashed during operation: " + err.Error())
	}
	es.pendAdd(sid, epoch, id)
	return id
}

// UnNew deletes a payload created by a transaction that aborted (it was
// never durable: the epoch validator guarantees its batch has not flushed).
func (es *EpochSys) UnNew(id uint64) { es.dev.Delete(id) }

// PRetire marks a payload retired as of epoch, registering the mark for the
// epoch's persistence batch. The mark is final: montage retires only after
// commit (Attach's end hook), so it carries no claim for an abort to lift it
// by.
func (es *EpochSys) PRetire(sid int, id, epoch uint64) {
	if err := es.dev.Retire(id, epoch, 0); err != nil {
		panic("montage: device crashed during operation: " + err.Error())
	}
	es.pendAdd(sid, epoch, id)
}

// Flush persists the given epoch's batch on this device — write-back of
// every pending record, a fence, and then a durable frontier marker
// asserting the device is complete through that epoch — and reports whether
// that marker is durable. Callers must ensure no session is still pinned at
// or below the epoch (WaitNotPinnedBelow). On a crashed device the flush is a
// no-op: the records (and the marker) are simply lost, which recovery's
// frontier arithmetic already models.
//
// Each write-back also tells whether its record is now durably retired. One
// retired at or before the flushed epoch is dead at every cut from this epoch
// on and joins es.dead. A record created in this epoch and retired in the next
// sits in this batch too, and its write-back here makes the later mark
// durable — but the cut may still fall on this epoch, where the record is
// live, so it waits for the next epoch's batch, which holds it again.
func (es *EpochSys) Flush(epoch uint64) bool {
	for i := range es.stripes {
		st := &es.stripes[i]
		st.mu.Lock()
		ids := st.pend[epoch%pendSlots]
		// Emptied in place: the next epoch to use this slot, and ids' array,
		// is not current until pendSlots-2 advances after this one returns.
		st.pend[epoch%pendSlots] = ids[:0]
		st.mu.Unlock()
		cpFlushBatch.Hit() // crash here loses this stripe's (and later stripes') write-backs
		for _, id := range ids {
			if retired, _ := es.dev.WriteBack(id); retired != 0 && retired <= epoch {
				es.dead = append(es.dead, id)
			}
		}
	}
	es.dev.Fence()
	cpFlushPreMarker.Hit() // crash here: batch durable, marker missing — epoch cut falls before it
	// The frontier marker is only meaningful if it becomes durable after
	// the batch: recovery treats a missing marker as "this epoch never
	// fully persisted here" and cuts before it.
	id, err := es.dev.Write(pnvm.MarkerKey, nil, epoch)
	if err != nil {
		if errors.Is(err, pnvm.ErrCrashed) {
			return false
		}
		panic("montage: frontier marker write failed: " + err.Error())
	}
	cpFlushMarkerVolatile.Hit() // crash here: marker written but never durable
	if _, ok := es.dev.WriteBack(id); !ok {
		return false // the device crashed under the marker and took it along
	}
	es.dev.Fence()
	// The new marker durably supersedes the previous one; drop it so
	// markers don't accumulate one per epoch. A crash between the
	// write-back above and this delete leaves both (harmless, recovery
	// takes the max); a crash *before* the write-back lost the new marker,
	// and then the delete must not erase the old one — pnvm.Device.Delete
	// is a no-op on crashed media, which covers exactly that window.
	if es.lastMarker != 0 {
		es.dev.Delete(es.lastMarker)
	}
	es.lastMarker = id
	return true
}

// reclaim frees the records Flush found dead: nbMontage's rule that a payload
// retired in epoch e is reclaimed once e is persisted. A free is not a media
// operation (the device counts none), and a crash between two frees leaves
// durably dead records behind for recovery's scrub.
func (es *EpochSys) reclaim() {
	for _, id := range es.dead {
		es.dev.Delete(id)
		cpAdvanceReclaim.Hit()
	}
	es.dead = es.dead[:0]
}

// Advance moves to the next epoch and persists (write-back + fence) the
// batch from two epochs ago, after waiting for straggler transactions still
// pinned to that epoch to finish (their commits are already impossible —
// the epoch validator fails — so the wait is short and bounded by abort
// processing). On a shared clock prefer AdvanceTogether, which flushes
// every device of the domain at the same boundary.
func (es *EpochSys) Advance() {
	AdvanceTogether(es.clock, []*EpochSys{es})
}

// Sync persists everything up to and including the current epoch: it
// advances twice so the current epoch's batch flushes, making all
// previously-committed transactions durable (the paper's wait-free sync,
// here a simple blocking call).
func (es *EpochSys) Sync() {
	es.Advance()
	es.Advance()
}

// AdvanceTogether advances a shared clock once and flushes the newly
// flushable batch on every system of the domain, so all devices reach the
// same epoch boundary before the advance returns. This is multi-device
// txMontage's coordinator step. Whole advance sequences are serialized per
// clock (a Sync racing the background coordinator must not interleave
// their flushes, or a frontier marker could outrun an older batch's
// write-back).
func AdvanceTogether(clock *EpochClock, systems []*EpochSys) {
	clock.advanceMu.Lock()
	defer clock.advanceMu.Unlock()
	e := clock.Tick()
	clock.WaitNotPinnedBelow(e - 1)
	cpAdvancePreFlush.Hit() // crash here: epoch ticked, nothing flushed
	persisted := true
	for _, es := range systems {
		persisted = es.Flush(e-2) && persisted
		// Fires between one shard's flush and the next, so a crash tears
		// the domain mid-advance: some devices carry this epoch's marker,
		// the rest don't, and recovery must cut at the minimum frontier.
		cpAdvanceMidShard.Hit()
	}
	// The cut is the minimum frontier over the devices. Until the last of
	// them has fenced its marker for e-2 a crash cuts at e-3, where a record
	// retired in e-2 is live, on whichever device it sits: no device frees
	// before every device has flushed.
	if persisted {
		for _, es := range systems {
			es.reclaim()
		}
	}
}

// SyncTogether is Sync for a shared-clock domain: after it returns, every
// transaction committed before the call is durable on its devices at one
// mutually consistent epoch boundary.
func SyncTogether(clock *EpochClock, systems []*EpochSys) {
	AdvanceTogether(clock, systems)
	AdvanceTogether(clock, systems)
}

// Recover runs the shared recovery pipeline (pnvm.RecoverDomain) over the
// reattached devices of a fresh domain; dumps must be index-aligned with
// systems. What montage adds is epoch-specific: advancement is blocked for
// the duration, so a background advancer already running on the rebuilt
// engine cannot interleave its flushes (and its marker deletes) with the
// scrub; each system adopts the fresh marker as the one its next flush
// supersedes; and the shared clock is raised past the cut, so no new
// transaction shares an epoch number with a pre-crash batch still on media.
func Recover(clock *EpochClock, systems []*EpochSys, dumps [][]pnvm.Record) (pnvm.Recovery, error) {
	clock.advanceMu.Lock()
	defer clock.advanceMu.Unlock()
	devs := make([]*pnvm.Device, len(systems))
	for i, es := range systems {
		devs[i] = es.dev
	}
	rec, err := pnvm.RecoverDomain(devs, dumps)
	if err != nil {
		return rec, err
	}
	for i, es := range systems {
		es.lastMarker = rec.Markers[i]
	}
	clock.AdvanceTo(rec.Cut + 2)
	return rec, nil
}

// StartAdvancer launches the one background epoch advancer of a clock: every
// period (nbMontage uses tens of milliseconds) it advances the clock and
// flushes all of its systems together. The returned stop halts it and
// returns once it has exited; call it once.
func StartAdvancer(clock *EpochClock, systems []*EpochSys, period time.Duration) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				AdvanceTogether(clock, systems)
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

// txCtx is the per-transaction epoch context stored in Session.TxData. It
// is embedded in the session's sessExt and reused across transactions —
// only the owning session's goroutine reads or writes its fields. Beside the
// pinned epoch it lists what the transaction's Map writes leave to its end:
// the payloads it created, which an abort deletes, and the payloads it
// superseded, which a commit marks retired at epoch. The lists keep their
// arrays from one transaction to the next, so this bookkeeping allocates
// nothing once they have grown.
type txCtx struct {
	epoch   uint64
	slot    *atomic.Uint64
	created []payloadRef
	retired []payloadRef
}

// payloadRef names a payload: its record id on the device of es.
type payloadRef struct {
	es  *EpochSys
	pid uint64
}

// txOf returns the epoch context of the session's open transaction. A Map
// written under a manager that Attach never saw has none, and without it
// nothing ties the transaction to one epoch: each write would take whatever
// epoch is current and no validator would notice a tick between two of them,
// so a crash could cut the transaction in two. That is a wiring error, so
// it panics.
func txOf(s *core.Session) *txCtx {
	ctx, ok := s.TxData.(*txCtx)
	if !ok {
		panic("montage: Map written in a transaction of a TxManager that montage.Attach never saw")
	}
	return ctx
}

// sessExt is the per-session epoch state cached in Session.Ext: the pinned
// epoch slot plus a reusable transaction context (payload lists included)
// and validator closure, so neither TxBegin nor a Map write's bookkeeping
// on the txMontage hot path allocates. The validator reads the atomic pinned slot rather than
// the (owner-only) ctx fields: helpers may evaluate a descriptor's
// validators concurrently with the owner, and while the descriptor can be
// finalized (InProg) the owner is still inside TxEnd, so the slot holds
// exactly the epoch that transaction pinned. A straggling helper that
// evaluates after the owner moved on gets an arbitrary verdict, but its
// status CAS then fails against the already-final descriptor — same as the
// pre-existing helper race.
type sessExt struct {
	slot      *atomic.Uint64
	ctx       txCtx
	validator func() bool
}

// Attach wires the epoch system into a TxManager, turning Medley
// transactions on attached structures into txMontage transactions: TxBegin
// pins the current epoch and registers the epoch validator; transaction end
// settles the transaction's payloads and releases the pin. What it binds the
// manager to is es's clock, not its device: maps on any EpochSys of that
// clock may run under the manager, and a transaction over several of them
// holds one pin and one validator (txMontage over several devices attaches
// its one manager this way). Every Map write must run under an attached
// manager (txOf).
//
// The end hook runs after the session's cleanups and undos. An aborted
// transaction's payloads were never durable (the validator kept their epoch
// current), so it deletes them. A committed one writes its retire marks,
// never earlier: a doomed transaction that raced with, and was aborted by,
// a payload's real retirer must not clobber the committed mark. Either way
// the pin is released last, so the marks join the epoch's batch before any
// advance may flush it.
func Attach(mgr *core.TxManager, es *EpochSys) {
	clock := es.clock
	extFor := func(s *core.Session) *sessExt {
		// Sessions are single-goroutine, so the cached ext needs no lock.
		if ext, ok := s.Ext.(*sessExt); ok {
			return ext
		}
		ext := &sessExt{slot: clock.register()}
		ext.ctx.slot = ext.slot
		ext.validator = func() bool { return clock.Current() == ext.slot.Load() }
		s.Ext = ext
		return ext
	}
	mgr.SetBeginHook(func(s *core.Session) {
		ext := extFor(s)
		e := clock.Current()
		ext.slot.Store(e)
		ext.ctx.epoch = e
		s.TxData = &ext.ctx
		s.Desc().AddValidator(ext.validator)
	})
	mgr.SetEndHook(func(s *core.Session, committed bool) {
		ctx, ok := s.TxData.(*txCtx)
		if !ok {
			return
		}
		if committed {
			for _, r := range ctx.retired {
				r.es.PRetire(s.ID(), r.pid, ctx.epoch)
			}
		} else {
			for _, r := range ctx.created {
				r.es.UnNew(r.pid)
			}
		}
		ctx.created, ctx.retired = ctx.created[:0], ctx.retired[:0]
		ctx.slot.Store(0)
	})
}

// PinnedEpoch returns the epoch the session's current transaction is pinned
// to, or 0 when the session is outside a transaction (or the manager has no
// epoch system attached).
func PinnedEpoch(s *core.Session) uint64 {
	if s != nil && s.InTx() {
		if ctx, ok := s.TxData.(*txCtx); ok {
			return ctx.epoch
		}
	}
	return 0
}
