// Package onefile implements "OneFile-lite", a baseline STM modelled on
// OneFile (Ramalhete et al., DSN 2019), the nonblocking persistent STM the
// Medley paper compares against (Figures 7–9).
//
// OneFile's defining design choices, which this implementation reproduces:
//
//   - Transactions are serialized by a single global sequence: at most one
//     write transaction is active at a time, so writers gain nothing from
//     additional threads.
//   - Readers need no read set: they snapshot the global sequence, run
//     against the shared structure, and revalidate the sequence at the end
//     (retrying on interference). This makes read-mostly workloads fast at
//     low thread counts — exactly the regime where the paper observes
//     OneFile performing well.
//   - The persistent variant (POneFile) persists eagerly on the critical
//     path: it logs the transaction's writes to NVM, fences, applies them,
//     writes back every dirty line, and fences again before the transaction
//     returns — which is why it trails periodic persistence by orders of
//     magnitude. Persistence is failure-atomic at every instant via a
//     redo-log commit record: each committing transaction tags its payload
//     records and retirement marks with a fresh commit serial, makes them
//     durable, and only then writes back a reserved commit record carrying
//     that serial (under pnvm.MarkerKey). Recovery is the shared pipeline,
//     pnvm.RecoverDomain: the cut is the highest serial with a durable
//     commit record, and exactly the transactions at or below it survive —
//     payload records beyond the cut are torn (scrubbed off media),
//     retirement marks beyond it are lifted (the retiree stays live). A
//     crash at any point of the window therefore recovers either all of a
//     transaction's records or none, which the chaos crash-point sweep in
//     txengine's conformance suite proves point by point. Recover below
//     adds only the serial allocator's restart.
//
// Substitution note (documented in DESIGN.md): real OneFile achieves
// wait-freedom by publishing each transaction as a closure that all threads
// help apply through 128-bit-CAS'd words. Go has neither 128-bit CAS nor a
// practical way to re-execute arbitrary closures helpfully, so OneFile-lite
// serializes writers with a lock and keeps readers optimistic via a
// sequence lock. The progress guarantee differs; the throughput shape (no
// write scaling, cheap low-thread reads, huge eager-persistence penalty)
// is the property the evaluation depends on, and it is preserved.
package onefile

import (
	"sync"
	"sync/atomic"

	"medley/internal/chaos"
	"medley/internal/pnvm"
)

// Fault-injection points spanning POneFile's WriteTx persistence window, in
// protocol order. Crash faults at pre-log through mark-volatile land before
// the commit point (recovery must surface none of the transaction); crashes
// at post-mark or gc land after it (recovery must surface all of it).
var (
	cpPreLog       = chaos.At("ponefile.commit.pre-log")
	cpPayload      = chaos.At("ponefile.commit.payload")       // after each payload write-back
	cpRetire       = chaos.At("ponefile.commit.retire")        // after each retire write-back
	cpPreMark      = chaos.At("ponefile.commit.pre-mark")      // payloads+retires durable, no commit record
	cpMarkVolatile = chaos.At("ponefile.commit.mark-volatile") // commit record written, not yet written back
	cpPostMark     = chaos.At("ponefile.commit.post-mark")     // commit point passed
	cpGC           = chaos.At("ponefile.commit.gc")            // before dead-record GC
)

// STM is a OneFile-lite transaction manager. All structures attached to one
// STM instance commit through the same global sequence.
type STM struct {
	seq   atomic.Uint64 // even: stable; odd: writer applying
	wlock sync.Mutex

	// persistence (nil for the transient variant)
	dev *pnvm.Device

	// per-transaction undo log and dirty-line count, guarded by wlock.
	undo  []func()
	dirty int

	// staged payload updates of the current write transaction and the
	// (structure, key) → live-record index of the whole store, guarded by
	// wlock. Only structures that stage payloads (see StagePersist) are
	// recoverable; unstaged dirty lines still pay the simulated redo-log
	// cost. The index is namespaced per structure (sid) so one map's
	// update never retires another map's record for the same key.
	staged  []stagedKV
	keyIDs  map[persistKey]uint64
	nextSID atomic.Uint64

	// redo-log commit state, guarded by wlock: the serial of the newest
	// committed transaction (its commit record is durable) and the id of
	// that commit record, so GC can drop the superseded one.
	serial     uint64
	lastCommit uint64

	commits atomic.Uint64
	aborts  atomic.Uint64
}

type stagedKV struct {
	sid, key uint64
	val      []byte // nil: removal
}

type persistKey struct{ sid, key uint64 }

// New creates a transient OneFile-lite STM.
func New() *STM { return &STM{} }

// NewPersistent creates a POneFile-style STM that persists each write
// transaction eagerly through dev.
func NewPersistent(dev *pnvm.Device) *STM {
	return &STM{dev: dev, keyIDs: make(map[persistKey]uint64)}
}

// NewPersistSID allocates a structure id for one persistent structure's
// StagePersist calls.
func (st *STM) NewPersistSID() uint64 { return st.nextSID.Add(1) }

// ReadTx runs fn as an optimistic read-only transaction, retrying until it
// observes a quiescent sequence across its whole execution. fn must be pure
// reading (no writes to STM-managed state) and must tolerate concurrent
// mutation of the structures it traverses (all structure fields are
// atomics, so torn reads cannot occur).
func (st *STM) ReadTx(fn func()) {
	for {
		s1 := st.seq.Load()
		if s1%2 != 0 {
			continue // writer applying; spin
		}
		fn()
		if st.seq.Load() == s1 {
			st.commits.Add(1)
			return
		}
		st.aborts.Add(1)
	}
}

// WriteTx runs fn as a serialized write transaction. fn may read structures
// directly (it holds the writer lock, so it sees its own writes) and must
// route every mutation through the structure's tx-aware mutators, which
// register undo handlers via LogUndo. If fn returns an error the
// transaction rolls back and the error is returned; if fn panics it rolls
// back and the panic goes on.
func (st *STM) WriteTx(fn func() error) (err error) {
	st.wlock.Lock()
	st.undo = st.undo[:0]
	st.staged = st.staged[:0]
	st.dirty = 0
	st.seq.Add(1) // odd: readers hold off
	done := false
	defer func() {
		if !done {
			st.rollback()
		}
		st.wlock.Unlock()
	}()
	err = fn()
	if err == nil && st.dev != nil {
		err = st.persist()
	}
	done = true
	if err != nil {
		st.rollback()
		return err
	}
	st.seq.Add(1)
	st.commits.Add(1)
	return nil
}

// rollback undoes the write transaction in progress and lets readers back in.
func (st *STM) rollback() {
	for i := len(st.undo) - 1; i >= 0; i-- {
		st.undo[i]()
	}
	st.seq.Add(1)
	st.aborts.Add(1)
}

// persist makes the current write transaction durable, failure-atomically:
// payload records and retirement marks go to media tagged with a fresh
// commit serial, and the transaction commits on media exactly when the
// reserved commit record carrying that serial is written back. Recovery
// honors records and marks only up to the highest durable commit serial, so
// a crash anywhere in this window recovers all of the transaction or none.
// A media error (device crashed under us, or an injected fault) undoes the
// transaction's media effects and aborts it — POneFile never acknowledges a
// commit it could not persist.
func (st *STM) persist() error {
	// Dirty lines without a staged payload pay the simulated redo-log cost
	// only (transient bookkeeping records, dropped immediately).
	for i := len(st.staged); i < st.dirty; i++ {
		id, werr := st.dev.Write(0, nil, 0)
		if werr != nil {
			return werr
		}
		st.dev.WriteBack(id)
		st.dev.Delete(id)
	}
	if len(st.staged) == 0 {
		if st.dirty > 0 {
			st.dev.Fence()
		}
		return nil
	}
	st.collapseStaged()
	serial := st.serial + 1
	claim := st.seq.Load()
	if err := cpPreLog.Hit(); err != nil {
		return err
	}
	ids := make([]uint64, len(st.staged))
	var retired []uint64
	fail := func(err error) error {
		// Undo this serial's media effects so the transaction aborts
		// cleanly: its payload records deleted, its retire marks lifted.
		for _, id := range ids {
			if id != 0 {
				st.dev.Delete(id)
			}
		}
		for _, id := range retired {
			st.dev.UnRetire(id, claim)
		}
		return err
	}
	// (1) Payload records, tagged with the commit serial: written and
	// written back, but invisible to recovery until the commit record
	// carrying the same serial is durable.
	for i, p := range st.staged {
		if p.val == nil {
			continue
		}
		id, werr := st.dev.Write(p.key, p.val, serial)
		if werr != nil {
			return fail(werr)
		}
		st.dev.WriteBack(id)
		ids[i] = id
		if err := cpPayload.Hit(); err != nil {
			return fail(err)
		}
	}
	// (2) Retire every superseded or removed record, marked with the same
	// serial. The marks reach durability before the commit record, but
	// recovery honors a mark only when its serial is at or below the
	// durable commit cut — a crash here leaves the old version live, never
	// a torn half-transaction.
	for _, p := range st.staged {
		old, ok := st.keyIDs[persistKey{p.sid, p.key}]
		if !ok {
			continue
		}
		if rerr := st.dev.Retire(old, serial, claim); rerr != nil {
			return fail(rerr)
		}
		st.dev.WriteBack(old)
		retired = append(retired, old)
		if err := cpRetire.Hit(); err != nil {
			return fail(err)
		}
	}
	st.dev.Fence()
	if err := cpPreMark.Hit(); err != nil {
		return fail(err)
	}
	// (3) The commit record. The transaction is committed on media exactly
	// when this record's write-back lands.
	mid, werr := st.dev.Write(pnvm.MarkerKey, nil, serial)
	if werr != nil {
		return fail(werr)
	}
	if err := cpMarkVolatile.Hit(); err != nil {
		st.dev.Delete(mid)
		return fail(err)
	}
	st.dev.WriteBack(mid)
	st.dev.Fence()
	// ---- commit point: durable from here on; nothing below may fail. ----
	cpPostMark.Hit() // injected errors are ignored past the commit point
	for i, p := range st.staged {
		pk := persistKey{p.sid, p.key}
		if p.val == nil {
			delete(st.keyIDs, pk)
		} else {
			st.keyIDs[pk] = ids[i]
		}
	}
	st.serial = serial
	cpGC.Hit()
	// (4) GC: the retired records are durably dead and the previous commit
	// record is superseded (recovery takes the highest serial), so drop
	// both rather than accumulate one record per overwrite. A crash in
	// here just leaves them for recovery's scrub.
	for _, id := range retired {
		st.dev.Delete(id)
	}
	if st.lastCommit != 0 {
		st.dev.Delete(st.lastCommit)
	}
	st.lastCommit = mid
	return nil
}

// collapseStaged rewrites st.staged so each (sid, key) appears exactly once
// with its final value — a put-then-remove inside one transaction must
// persist nothing, and keyIDs is only consulted/updated per final state.
// Quadratic in the per-transaction staged count, which is small.
func (st *STM) collapseStaged() {
	if len(st.staged) < 2 {
		return
	}
	out := st.staged[:0]
outer:
	for i, p := range st.staged {
		for _, q := range st.staged[i+1:] {
			if q.sid == p.sid && q.key == p.key {
				continue outer // a later entry supersedes this one
			}
		}
		out = append(out, p)
	}
	st.staged = out
}

// StagePersist stages one payload update of the current write transaction:
// structure sid's key now binds to val (nil val: key removed). Durable iff
// the transaction commits; staged entries of aborted transactions are
// discarded. Must only be called from inside WriteTx's fn on a persistent
// STM, with a sid from NewPersistSID.
func (st *STM) StagePersist(sid, key uint64, val []byte) {
	if st.dev == nil {
		return
	}
	if key == pnvm.MarkerKey {
		panic("onefile: payload key collides with the reserved commit-record key")
	}
	st.staged = append(st.staged, stagedKV{sid: sid, key: key, val: val})
}

// LogUndo registers compensation for one mutation of the current write
// transaction. Must only be called from inside WriteTx's fn.
func (st *STM) LogUndo(f func()) {
	st.undo = append(st.undo, f)
	st.dirty++
}

// Stats returns commit/abort counters (reads + writes combined).
func (st *STM) Stats() (commits, aborts uint64) {
	return st.commits.Load(), st.aborts.Load()
}

// Device returns the simulated NVM device (nil for the transient variant).
func (st *STM) Device() *pnvm.Device { return st.dev }

// Recover reattaches a fresh persistent STM to its crashed-and-reopened
// device: the shared pipeline (pnvm.RecoverDomain) computes the durable
// commit cut from dumps — exactly one, this STM's device's — and scrubs the
// media down to the live records and one commit record at the cut. What
// POneFile adds, under the writer lock: the commit-serial allocator resumes
// at the cut, so post-recovery transactions always supersede pre-crash ones,
// and the live records are adopted as structure sid's bindings, so the
// transaction that rebuilds sid from them retires and GCs each one through
// the normal commit protocol instead of leaving a second copy beside it.
// Call once, before the STM serves transactions.
func (st *STM) Recover(dumps [][]pnvm.Record, sid uint64) ([]pnvm.Record, error) {
	st.wlock.Lock()
	defer st.wlock.Unlock()
	rec, err := pnvm.RecoverDomain([]*pnvm.Device{st.dev}, dumps)
	if err != nil {
		return nil, err
	}
	st.serial, st.lastCommit = rec.Cut, rec.Markers[0]
	for _, r := range rec.Live[0] {
		st.keyIDs[persistKey{sid, r.Key}] = r.ID
	}
	return rec.Live[0], nil
}
