package core

import (
	"sync/atomic"
	"unsafe"
)

// Status is the lifecycle state of a transaction descriptor (paper Fig. 4).
type Status uint32

const (
	// InPrep: the transaction is installing descriptors (initial state).
	InPrep Status = iota
	// InProg: the owner has called txEnd; the read and write sets are
	// frozen and the transaction is ready to be validated and committed
	// (possibly by a helper).
	InProg
	// Committed: all speculative writes take effect.
	Committed
	// Aborted: all speculative writes are discarded.
	Aborted
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case InPrep:
		return "InPrep"
	case InProg:
		return "InProg"
	case Committed:
		return "Committed"
	case Aborted:
		return "Aborted"
	}
	return "invalid"
}

// readRec is one read-set entry: the object's slot and the cell observed by
// the linearizing load.
type readRec struct {
	slot *unsafe.Pointer
	tag  unsafe.Pointer
}

// Desc is an MCNS transaction descriptor: the header that installed cells
// point at. It holds no set storage of its own. While the status is InPrep,
// readSet and writeSet alias scratch slices owned by the session
// (Session.rs/ws) and only the owner touches them; a helper that finds an
// InPrep descriptor aborts it and uninstalls the one cell it tripped over,
// without reading either set. A descriptor that other goroutines can reach —
// one that installed a cell — is frozen by its owner before the
// InPrep→InProg CAS: both slices are replaced by exact-size private copies,
// and from then on nobody writes them. Helpers read the sets and validators
// only after loading InProg or Committed from the status word, so that CAS
// orders the copies before every helper read, and a straggler sees this
// transaction's sets however often the scratch was refilled (see doc.go).
//
// One transaction has one descriptor and one session, however many
// structures it touches: every structure of a transaction shares the
// session's TxManager (paper Fig. 1).
//
// A descriptor that finished without ever being reachable (no install) is
// handed back to its session and reused by the next TxBegin; one that was
// reachable is never reused — the garbage collector supplies the ABA
// protection that the paper's per-thread serial numbers provide.
type Desc struct {
	status atomic.Uint32
	// frozen records that the sets are private copies and the scratch has
	// already gone back to the session. Owner-only.
	frozen     bool
	owner      *Session // the session whose TxBegin opened the transaction
	readSet    []readRec
	writeSet   []*unsafe.Pointer // the slot of every object installed into
	validators []func() bool
	// vBuf is inline storage for the one validator a layered system
	// registers per transaction (txMontage's epoch check); a second spills
	// to the heap.
	vBuf [1]func() bool
}

// Status returns the descriptor's current status.
func (d *Desc) Status() Status { return Status(d.status.Load()) }

// AddValidator registers an extra commit-time check evaluated (by the owner
// or by helpers) together with read-set validation; used by txMontage to
// fold the epoch check into MCNS commit (paper Section 4.4). Must be called
// before TxEnd, by the goroutine that owns the transaction: helpers read the
// validators, like the sets, only once the status is InProg.
func (d *Desc) AddValidator(f func() bool) {
	d.validators = append(d.validators, f)
}

// validate re-checks every read-set entry and extra validator (paper
// Fig. 6, validateReads). A read is valid if the object still holds the
// recorded cell, or holds a cell installed over it by this very descriptor
// (a later write by the same transaction).
func (d *Desc) validate() bool {
	for i := range d.readSet {
		r := &d.readSet[i]
		cur := atomic.LoadPointer(r.slot)
		if cur == r.tag {
			continue
		}
		if cur != nil {
			h := (*cellHeader)(cur)
			if h.owner() == d && atomic.LoadPointer(&h.prev) == r.tag {
				continue
			}
		}
		return false
	}
	for _, f := range d.validators {
		if !f() {
			return false
		}
	}
	return true
}

// tryFinalize gets a conflicting descriptor "out of the way" (paper Fig. 6):
// abort it if still InPrep, help it commit if InProg, then uninstall it from
// the object through which it was discovered. If the descriptor reached
// InProg its write set is frozen, so the helper additionally sweeps the
// whole write set to accelerate completion.
func (d *Desc) tryFinalize(slot *unsafe.Pointer, found unsafe.Pointer) {
	if atomic.LoadPointer(slot) != found {
		return // descriptor no longer responsible for this object
	}
	d.finalize(slot)
}

// finalize is tryFinalize past its responsibility check. Nothing makes the
// two atomic: a helper can be descheduled between them for as long as it
// likes, while the owner finishes this transaction and runs any number of
// later ones — which is why a reachable descriptor's sets are frozen and the
// descriptor itself is never reused (the stale-helper tests enter here).
func (d *Desc) finalize(slot *unsafe.Pointer) {
	st := d.Status()
	if st == InPrep {
		d.status.CompareAndSwap(uint32(InPrep), uint32(Aborted))
		st = d.Status()
	}
	sawInProg := st == InProg || st == Committed
	if st == InProg {
		if d.validate() {
			d.status.CompareAndSwap(uint32(InProg), uint32(Committed))
		} else {
			d.status.CompareAndSwap(uint32(InProg), uint32(Aborted))
		}
		st = d.Status()
	}
	committed := st == Committed
	if sawInProg {
		// Write set frozen (owner reached txEnd before finalization): safe
		// for a helper to sweep everything.
		d.sweep(committed)
	} else {
		// Never seen past InPrep: the write set is the owner's scratch —
		// still being appended to, or already refilled by a later
		// transaction — so only uninstall the cell we tripped over.
		uninstall(slot, d, committed)
	}
	if d.owner != nil {
		d.owner.stats().Helps.Add(1)
	}
}

// sweep uninstalls the descriptor from every write-set entry. Called by the
// owner on commit/abort, and by helpers once the write set is frozen.
func (d *Desc) sweep(committed bool) {
	for _, slot := range d.writeSet {
		uninstall(slot, d, committed)
	}
}

// uninstall takes d's cell, if slot holds one, out of the installed state:
// the one way a descriptor leaves an object, for the owner's sweep, a helper's
// sweep and a helper at the cell it tripped over alike. It loops because the
// owner may concurrently replace one installed cell with another (speculative
// new-value update); racing and stale callers all hold the same verdict.
func uninstall(slot *unsafe.Pointer, d *Desc, committed bool) {
	for {
		c := atomic.LoadPointer(slot)
		if c == nil || settle(slot, c, d, committed) {
			return
		}
	}
}

// settle is uninstall past its load of the slot (a caller can sleep between
// the two, as between tryFinalize and finalize); false means c was replaced.
// Committed, the cell becomes the real value in place, prev cleared before
// desc; aborted, the slot swings back to the cell the install replaced. Why
// that order, and why a late caller is harmless either way: doc.go.
func settle(slot *unsafe.Pointer, c unsafe.Pointer, d *Desc, committed bool) bool {
	h := (*cellHeader)(c)
	if h.owner() != d {
		return true
	}
	if !committed {
		return atomic.CompareAndSwapPointer(slot, c, atomic.LoadPointer(&h.prev))
	}
	atomic.StorePointer(&h.prev, nil)
	atomic.StorePointer(&h.desc, nil)
	return true
}
