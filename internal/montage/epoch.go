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
// atomicity "almost for free". Here the hook is the Domain itself, set as the
// core.Layer of the TxManager it is attached to (Attach).
//
// # Persistence domain
//
// A Domain is one epoch clock and the devices it persists: the counter, the
// registry of sessions pinned to an epoch and the lock that serializes
// advances. One device or several is only a count.
// Each Map spans every device of its domain with one index, writing a key's
// payloads on the device the key routes to (DeviceOf). Every transaction in
// the domain — wherever its keys' devices are — pins one epoch of the clock,
// tags every payload it writes with it, and commits only while that epoch is
// current, so no transaction is persisted across two recovery cuts and
// nothing locks the clock to say so. Advance (or StartAdvancer's background
// loop) ticks the clock and flushes every device at the same boundary. Each
// flush ends with a durable frontier marker on the device (pnvm.MarkerKey,
// tagged with the flushed epoch), so post-crash recovery can compute, per
// device, the highest epoch fully persisted there. Reclaim is nbMontage's rule
// — a payload retired in epoch e is freed once e is persisted — and persisted
// means on every device: a device's flush only queues what it found durably
// retired at or before the epoch it flushed, and Advance frees the queues
// after the last device has fenced its marker, because until then a crash
// still cuts at the epoch before. Recovery itself is not montage's: the cut
// (the minimum of those frontiers), the live set at it and the media scrub are
// pnvm.RecoverDomain, shared with POneFile; Domain.Recover adds only what is
// epoch-specific — it keeps advancers off the devices meanwhile and restarts
// the clock past the cut.
//
// # Batches
//
// As nbMontage keeps a buffer per thread, a session's pin keeps a batch of
// record ids per device and epoch for the flush, which only the session
// appends to, with no lock: the payloads its transactions created, and those
// their commits superseded. A flush takes its epoch's batches once no session
// is pinned at or below it. Begin stores the epoch it read, then reads the
// clock again and repins if it moved. These are sequentially consistent
// atomics, so an advance's scan of the pins either sees the pin and waits, or
// misses it, and then its tick came before the session's re-read, which
// repins: no session appends to a batch whose flush has begun.
//
// A commit's only media stores are its new payloads. The payloads it
// superseded go into its epoch's batch as ids, and that epoch's flush stores
// each one's retire mark in the same step that writes the record back
// (pnvm.Device.WriteBackAll). This changes no recovery outcome at any cut. A
// retire mark is volatile until a flush writes its record back, and a crash
// discards volatile marks, so a crash before that flush loses a mark stored
// at commit just as it loses one not yet stored. Nor would a mark stored at
// commit on a record created in the epoch before make any cut differ: the
// flush of that epoch writes the record back, but every cut it makes possible
// lies before the mark's epoch, where recovery lifts the mark. The flush's
// write-backs and reclaim's frees each take a device shard's lock once per
// shard a batch touches, not once per record.
package montage

import (
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"medley/internal/chaos"
	"medley/internal/core"
	"medley/internal/pnvm"
)

// Fault-injection points on the epoch flush/advance path. The flush points
// sit inside one device's flush (batch write-backs, the window between batch
// durability and the frontier marker, and the marker's own volatile window);
// the advance points sit in Domain.Advance, where a crash tears the domain
// between shards' flushes, or between two device shards' frees in the
// reclaim pass that follows them. All of these sites return nothing, so only
// crash/delay faults are meaningful.
var (
	cpBegin               = chaos.At("txmontage.begin") // between Begin's clock read and its pin store
	cpFlushBatch          = chaos.At("txmontage.flush.batch")
	cpFlushPreMarker      = chaos.At("txmontage.flush.pre-marker")
	cpFlushMarkerVolatile = chaos.At("txmontage.flush.marker-volatile")
	cpAdvancePreFlush     = chaos.At("txmontage.advance.pre-flush")
	cpAdvanceMidShard     = chaos.At("txmontage.advance.mid-shard")
	cpAdvanceReclaim      = chaos.At("txmontage.advance.reclaim")
)

// firstEpoch leaves room for the e-2 recovery cut arithmetic.
const firstEpoch = 3

// Domain is txMontage's persistence domain: one epoch clock, the sessions
// pinned to its epochs, and the devices it persists. Attach it to the
// TxManager its maps run under, and either run its background advancer
// (StartAdvancer) or call Advance and Sync by hand (tests).
//
// Nothing locks the clock against commits: a transaction pins one epoch and
// validates "still current" once at commit, so a tick between its operations,
// or between its last one and TxEnd, fails that validation and the
// transaction retries in the new epoch — on every device it touches at once.
type Domain struct {
	epoch atomic.Uint64

	// advanceMu serializes whole advance sequences (tick + straggler wait
	// + flush) against each other and against Recover. Without it, a Sync
	// racing a background advancer could durably write epoch E's frontier
	// marker before epoch E-1's batch finished write-back, falsifying the
	// marker invariant ("marker at E ⇒ complete through E") that recovery
	// cuts rely on.
	advanceMu sync.Mutex

	mu   sync.Mutex
	pins []*pin // every attached session's, from its first transaction on

	devs []*device // in routing order (DeviceOf)
}

// NewDomain creates a domain over one or more devices, in routing order, its
// clock at the first epoch.
func NewDomain(devs ...*pnvm.Device) *Domain {
	d := &Domain{devs: make([]*device, len(devs))}
	for i, dev := range devs {
		d.devs[i] = &device{dev: dev, i: i}
	}
	d.epoch.Store(firstEpoch)
	return d
}

// Current returns the current epoch.
func (d *Domain) Current() uint64 { return d.epoch.Load() }

// Devices returns the domain's devices in routing order.
func (d *Domain) Devices() []*pnvm.Device {
	devs := make([]*pnvm.Device, len(d.devs))
	for i, dv := range d.devs {
		devs[i] = dv.dev
	}
	return devs
}

// register allocates a session's pin.
func (d *Domain) register() *pin {
	p := &pin{pend: make([][pendSlots]batch, len(d.devs))}
	d.mu.Lock()
	d.pins = append(d.pins, p)
	d.mu.Unlock()
	return p
}

// waitNotPinnedBelow spins until no session is pinned to an epoch < bound,
// and returns the pins it last looked at.
func (d *Domain) waitNotPinnedBelow(bound uint64) []*pin {
	below := func(p *pin) bool { e := p.epoch.Load(); return e != 0 && e < bound }
	for {
		d.mu.Lock()
		pins := d.pins // append-only: what it held stays as it was
		d.mu.Unlock()
		if !slices.ContainsFunc(pins, below) {
			return pins
		}
		runtime.Gosched()
	}
}

// device is one device of a domain.
type device struct {
	dev *pnvm.Device
	i   int // its index in the domain's devices and in a pin's batches

	// dead holds the ids flush found durably retired at or before the epoch
	// it flushed. Advance frees them once every device of the domain carries
	// that epoch's marker. Touched only under the domain's advanceMu.
	dead []uint64

	// lastMarker is the id of the newest durable frontier marker; each
	// flush deletes the one it supersedes (recovery takes the max, so only
	// the newest matters) to keep marker count O(1) instead of O(epochs).
	// Written only under the domain's advanceMu.
	lastMarker uint64
}

// pendSlots is the size of a pin's ring of batches a device. Every epoch is
// flushed exactly once, two advances after it was current, and a session adds
// only to the epoch it is pinned to, which flush's caller has waited out: at
// most three epochs hold ids at a time.
const pendSlots = 4

// pNew writes a fresh payload on dv tagged with the pinned epoch, and puts it
// in that epoch's batch, or panics with the store's error. Returns the payload
// id. A batch keeps its arrays from round to round, so in steady state it
// grows into last round's capacity.
func (p *pin) pNew(dv *device, key uint64, val []byte) uint64 {
	if key == pnvm.MarkerKey {
		panic("montage: payload key 2^64-1 is reserved for frontier markers")
	}
	e := p.epoch.Load()
	id, err := dv.dev.Write(key, val, e)
	if err != nil {
		panic("montage: device crashed during operation: " + err.Error())
	}
	b := &p.pend[dv.i][e%pendSlots]
	b.created = append(b.created, id)
	return id
}

// flush persists the given epoch's batches on the device, every pin's — a
// write-back of the records each created, and of the records each superseded
// with their retire marks at the epoch, a fence, and then a durable frontier
// marker asserting the device is complete through that epoch — and reports
// whether that marker is durable. Callers must ensure no session is
// still pinned at or below the epoch (waitNotPinnedBelow, which gives the
// pins). On a crashed device the flush is a no-op: the records (and the
// marker) are simply lost, which recovery's frontier arithmetic already
// models.
//
// A superseded record is durably retired at the flushed epoch once its
// write-back returns, so it is dead at every cut from this epoch on and joins
// dv.dead. No created record carries a mark yet: its own supersession, if any,
// is in this batch's superseded list or a later epoch's.
func (dv *device) flush(epoch uint64, pins []*pin) bool {
	cpFlushBatch.Hit() // before each batch: crash here loses this one's write-backs and the rest
	dead := func(id, retired uint64) {
		if retired != 0 && retired <= epoch { // 0 on a crashed device: no mark was stored
			dv.dead = append(dv.dead, id)
		}
	}
	for _, p := range pins {
		b := &p.pend[dv.i][epoch%pendSlots]
		dv.dev.WriteBackAll(b.created, 0, nil)
		dv.dev.WriteBackAll(b.superseded, epoch, dead)
		// Emptied in place: the next epoch to use this slot, and its arrays,
		// is not current until pendSlots-2 advances after this one returns.
		b.created, b.superseded = b.created[:0], b.superseded[:0]
		cpFlushBatch.Hit()
	}
	dv.dev.Fence()
	cpFlushPreMarker.Hit() // crash here: batch durable, marker missing — epoch cut falls before it
	// The frontier marker is only meaningful if it becomes durable after
	// the batch: recovery treats a missing marker as "this epoch never
	// fully persisted here" and cuts before it.
	id, err := dv.dev.Write(pnvm.MarkerKey, nil, epoch)
	if err != nil {
		if errors.Is(err, pnvm.ErrCrashed) {
			return false
		}
		panic("montage: frontier marker write failed: " + err.Error())
	}
	cpFlushMarkerVolatile.Hit() // crash here: marker written but never durable
	if _, ok := dv.dev.WriteBack(id); !ok {
		return false // the device crashed under the marker and took it along
	}
	dv.dev.Fence()
	// The new marker durably supersedes the previous one; drop it so
	// markers don't accumulate one per epoch. A crash between the
	// write-back above and this delete leaves both (harmless, recovery
	// takes the max); a crash *before* the write-back lost the new marker,
	// and then the delete must not erase the old one — pnvm.Device.Delete
	// is a no-op on crashed media, which covers exactly that window.
	if dv.lastMarker != 0 {
		dv.dev.Delete(dv.lastMarker)
	}
	dv.lastMarker = id
	return true
}

// reclaim frees the records flush found dead: nbMontage's rule that a payload
// retired in epoch e is reclaimed once e is persisted. A free is not a media
// operation (the device counts none), and a crash between two groups of frees
// (txmontage.advance.reclaim) leaves durably dead records behind for
// recovery's scrub.
func (dv *device) reclaim() {
	dv.dev.DeleteAll(dv.dead, cpAdvanceReclaim)
	dv.dead = dv.dead[:0]
}

// Advance moves the clock to the next epoch and persists the batch from two
// epochs ago on every device (write-back, fence, frontier marker), so all
// devices reach the same epoch boundary before it returns. It first waits for
// straggler transactions still pinned to that epoch (their commits are
// already impossible — the epoch check fails — so the wait is short and
// bounded by abort processing); a transaction pinned to the epoch that was
// current does not hold it up. Whole advances are serialized (a Sync racing
// the background advancer must not interleave their flushes, or a frontier
// marker could outrun an older batch's write-back).
func (d *Domain) Advance() {
	d.advanceMu.Lock()
	defer d.advanceMu.Unlock()
	e := d.epoch.Add(1)
	pins := d.waitNotPinnedBelow(e - 1)
	cpAdvancePreFlush.Hit() // crash here: epoch ticked, nothing flushed
	persisted := true
	for _, dv := range d.devs {
		persisted = dv.flush(e-2, pins) && persisted
		// Fires between one device's flush and the next, so a crash tears
		// the domain mid-advance: some devices carry this epoch's marker,
		// the rest don't, and recovery must cut at the minimum frontier.
		cpAdvanceMidShard.Hit()
	}
	// The cut is the minimum frontier over the devices. Until the last of
	// them has fenced its marker for e-2 a crash cuts at e-3, where a record
	// retired in e-2 is live, on whichever device it sits: no device frees
	// before every device has flushed.
	if persisted {
		for _, dv := range d.devs {
			dv.reclaim()
		}
	}
}

// Sync persists everything up to and including the current epoch: it
// advances twice so the current epoch's batch flushes, and after it returns
// every transaction committed before the call is durable on its devices at
// one mutually consistent epoch boundary (the paper's wait-free sync, here a
// simple blocking call).
func (d *Domain) Sync() {
	d.Advance()
	d.Advance()
}

// Recover runs the shared recovery pipeline (pnvm.RecoverDomain) over the
// domain's reattached devices; dumps must be index-aligned with them. What
// montage adds is epoch-specific: advancement is blocked for the duration,
// so a background advancer already running on the rebuilt engine cannot
// interleave its flushes (and its marker deletes) with the scrub; each device
// adopts the fresh marker as the one its next flush supersedes; and the clock
// is raised past the cut, so no new transaction shares an epoch number with a
// pre-crash batch still on media.
func (d *Domain) Recover(dumps [][]pnvm.Record) (pnvm.Recovery, error) {
	d.advanceMu.Lock()
	defer d.advanceMu.Unlock()
	rec, err := pnvm.RecoverDomain(d.Devices(), dumps)
	if err != nil {
		return rec, err
	}
	for i, dv := range d.devs {
		dv.lastMarker = rec.Markers[i]
	}
	// Past every pre-crash epoch still on media. Only an advance moves the
	// clock otherwise, and it waits for the lock this holds.
	if d.epoch.Load() < rec.Cut+2 {
		d.epoch.Store(rec.Cut + 2)
	}
	return rec, nil
}

// StartAdvancer launches the domain's background epoch advancer: every period
// (nbMontage uses tens of milliseconds) it advances the domain. The returned
// stop halts it and returns once it has exited; call it once.
func (d *Domain) StartAdvancer(period time.Duration) (stop func()) {
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
				d.Advance()
			}
		}
	}()
	return func() {
		close(quit)
		<-done
	}
}

// pin is a session's epoch state, kept in its Session.Ext from one
// transaction to the next: the epoch its open transaction is pinned to, its
// batches, and what that transaction's Map writes leave to its end — the
// payloads it created, which an abort deletes, and the payloads it
// superseded, which a commit hands to the pinned epoch's batch — plus the
// buffer each write encodes its payload into before the device copies it.
// All keep their arrays, so this bookkeeping allocates nothing once grown.
// Only the session's goroutine touches them, but for a flush taking a batch.
type pin struct {
	// epoch is 0 between transactions. The owner writes it; advances and
	// helpers validating the owner's transaction read it.
	epoch atomic.Uint64
	// pend[i][e%pendSlots] is the session's batch on device i in epoch e,
	// for e's flush.
	pend       [][pendSlots]batch
	created    []payloadRef
	superseded []payloadRef
	buf        []byte
}

// batch is what a session did on one device in one epoch: the ids of the
// records it created, and of those its commits superseded, which the epoch's
// flush marks retired at it.
type batch struct{ created, superseded []uint64 }

// payloadRef names a payload: its record id on dv.
type payloadRef struct {
	dv  *device
	pid uint64
}

// pinOf returns the epoch state of the session's open transaction. A Map
// written under a manager that Attach never saw has none, and without it
// nothing ties the transaction to one epoch: each write would take whatever
// epoch is current and nothing would notice a tick between two of them, so a
// crash could cut the transaction in two. That is a wiring error, so it
// panics.
func pinOf(s *core.Session) *pin {
	p, ok := s.Ext.(*pin)
	if !ok {
		panic("montage: Map written in a transaction of a TxManager that montage.Attach never saw")
	}
	return p
}

// layer is a Domain as the core.Layer of the managers it is attached to.
type layer Domain

// Begin pins the transaction to the current epoch, rechecked (Batches).
func (l *layer) Begin(s *core.Session) {
	p, ok := s.Ext.(*pin)
	if !ok {
		// Sessions are single-goroutine, so the cached pin needs no lock.
		p = (*Domain)(l).register()
		s.Ext = p
	}
	for e := l.epoch.Load(); p.epoch.Load() != e; e = l.epoch.Load() {
		cpBegin.Hit()
		p.epoch.Store(e)
	}
}

// Valid is the epoch check: the transaction commits only in the epoch it
// pinned. It reads the owner's pin atomically: a helper may validate
// concurrently with the owner, and while the descriptor can be finalized
// (InProg) the owner is still inside TxEnd, so the pin holds exactly the
// epoch that transaction pinned. A straggling helper that validates after
// the owner moved on gets an arbitrary verdict, but its status CAS then
// fails against the already-final descriptor.
func (l *layer) Valid(s *core.Session) bool {
	return l.epoch.Load() == s.Ext.(*pin).epoch.Load()
}

// End settles the transaction's payloads and releases the pin. It runs after
// the session's cleanups and undos. An aborted transaction's payloads were
// never durable (the epoch check kept their epoch current), so it deletes
// them. A committed one puts the payloads it superseded in the pinned epoch's
// batch, whose flush marks them retired, never earlier: a doomed transaction
// that raced with, and was aborted by, a payload's real retirer must not
// clobber the committed mark. It stores nothing on a device (Batches). Either
// way the pin is released last, so the superseded ids join the epoch's batch
// before any advance may flush it.
func (l *layer) End(s *core.Session, committed bool) {
	p := s.Ext.(*pin)
	if committed {
		e := p.epoch.Load() % pendSlots
		for _, r := range p.superseded {
			b := &p.pend[r.dv.i][e]
			b.superseded = append(b.superseded, r.pid)
		}
	} else {
		for _, r := range p.created {
			r.dv.dev.Delete(r.pid) // never durable: the epoch check kept its batch from flushing
		}
	}
	p.created, p.superseded = p.created[:0], p.superseded[:0]
	p.epoch.Store(0)
}

// Attach layers the domain over mgr's transactions (core.TxManager.SetLayer),
// turning Medley transactions on its maps into txMontage transactions: each
// pins the current epoch at TxBegin, commits only while that epoch is
// current, and settles its payloads and releases its pin when it ends. A
// transaction over keys on several devices holds one pin and one check.
// Every Map write must run under an attached manager (pinOf).
func (d *Domain) Attach(mgr *core.TxManager) { mgr.SetLayer((*layer)(d)) }

// PinnedEpoch returns the epoch the session's current transaction is pinned
// to, or 0 when the session is outside a transaction (or its manager has no
// domain attached).
func PinnedEpoch(s *core.Session) uint64 {
	if s != nil && s.InTx() {
		if p, ok := s.Ext.(*pin); ok {
			return p.epoch.Load()
		}
	}
	return 0
}
