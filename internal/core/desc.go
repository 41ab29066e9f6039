package core

import (
	"sync/atomic"
	"unsafe"

	"medley/internal/chaos"
)

// The MCNS instants at which a goroutine can be descheduled while another
// finishes the transaction, or reuses the descriptor, it holds (doc.go,
// "Where the tests stop a goroutine"). Each is one load of chaos's package
// gate while nothing is armed.
var (
	cpInstall   = chaos.At("core.install")               // install CAS made, the write-set append next
	cpEntry     = chaos.At("core.validate.entry")        // the read set's entries before it validated, this one's load next
	cpValidated = chaos.At("core.validated")             // read set validated, Layer.Valid next
	cpInProg    = chaos.At("core.inprog")                // the owner's InPrep→InProg CAS made, its verdict next
	cpFound     = chaos.At("core.tryfinalize.found")     // a helper holds the cell that names d, its count next
	cpCounted   = chaos.At("core.tryfinalize.counted")   // counted, the re-check next
	cpRechecked = chaos.At("core.tryfinalize.rechecked") // re-check passed, finalize next
	cpVerdict   = chaos.At("core.finalize.verdict")      // verdict taken, the sweep or the one uninstall next
	cpLoaded    = chaos.At("core.uninstall.loaded")      // slot loaded, settle next
	cpCleared   = chaos.At("core.settle.cleared")        // committed: prev cleared, desc next
	cpSwept     = chaos.At("core.finish.swept")          // the owner's sweep done, the count read next
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
// point at, and the read and write sets they are validated and swept by. A
// session runs transaction after transaction on one descriptor. Only the owner
// appends to the sets, and only while the status is InPrep; from InProg on
// they are frozen simply because nobody appends any more. Helpers read the
// sets only after loading InProg or Committed from the status word, so that
// CAS orders the appends before every helper read. A helper that meets an
// InPrep descriptor aborts it and uninstalls the one cell it tripped over,
// without reading either set.
//
// One transaction has one descriptor and one session, however many
// structures it touches: every structure of a transaction shares the
// session's TxManager (paper Fig. 1).
//
// The descriptor goes on to the owner's next transaction only if no helper is
// inside it when this one has finished (helpers, see doc.go); otherwise the
// owner leaves it to the helpers and takes a fresh one.
type Desc struct {
	status atomic.Uint32
	// helpers counts the goroutines inside tryFinalize on this descriptor:
	// the only ones other than the owner that dereference it.
	helpers  atomic.Int32
	owner    *Session // the session whose TxBegin opened the transaction
	readSet  []readRec
	writeSet []*unsafe.Pointer // the slot of every object installed into
}

// newDesc returns a blank descriptor for s whose sets take reads and writes
// entries without growing.
func newDesc(s *Session, reads, writes int) *Desc {
	return &Desc{owner: s, readSet: make([]readRec, 0, reads), writeSet: make([]*unsafe.Pointer, 0, writes)}
}

// Status returns the descriptor's current status.
func (d *Desc) Status() Status { return Status(d.status.Load()) }

// validate re-checks every read-set entry (paper Fig. 6, validateReads),
// then asks the owner's manager's layer, if it has one. A read is valid if
// the object still holds the recorded cell, or holds a cell installed over it
// by this very descriptor (a later write by the same transaction).
func (d *Desc) validate() bool {
	for i := range d.readSet {
		cpEntry.Hit()
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
	cpValidated.Hit()
	if l := d.owner.mgr.layer; l != nil {
		return l.Valid(d.owner)
	}
	return true
}

// decide takes an InProg descriptor to its verdict and returns it.
func (d *Desc) decide() Status {
	if d.validate() {
		d.status.CompareAndSwap(uint32(InProg), uint32(Committed))
	} else {
		d.status.CompareAndSwap(uint32(InProg), uint32(Aborted))
	}
	return d.Status()
}

// tryFinalize gets a conflicting descriptor "out of the way" (paper Fig. 6):
// abort it if still InPrep, help it commit if InProg, then uninstall it from
// the object through which it was discovered. It is the one place a
// goroutine other than the owner dereferences a descriptor, and it does so
// counted: it takes the count, re-checks that slot still holds found and that
// found still names d, and only then reads anything of d. A helper the owner
// did not count fails the re-check (doc.go).
func (d *Desc) tryFinalize(slot *unsafe.Pointer, found unsafe.Pointer) {
	cpFound.Hit()
	d.helpers.Add(1)
	cpCounted.Hit()
	if atomic.LoadPointer(slot) == found && (*cellHeader)(found).owner() == d {
		cpRechecked.Hit()
		d.finalize(slot)
	}
	d.helpers.Add(-1)
}

// finalize is tryFinalize past its re-check. A helper can be descheduled
// anywhere in it for as long as it likes, while the owner finishes this
// transaction: it is counted, so the owner does not reuse d meanwhile (the
// Explore tests stop one at each of its points).
func (d *Desc) finalize(slot *unsafe.Pointer) {
	st, sawInProg := d.verdict()
	cpVerdict.Hit()
	if sawInProg {
		// The owner reached TxEnd: the write set is complete, so sweep it all.
		d.sweep(st == Committed)
	} else {
		// Never seen past InPrep: the owner may still be appending to the
		// write set, so only uninstall the cell we tripped over.
		uninstall(slot, d, st == Committed)
	}
	atomic.AddUint64(&d.owner.st.Helps, 1)
}

// verdict is finalize's first half: it aborts d if still InPrep, decides it
// if InProg, and reports the final status and whether d had left InPrep
// before the helper aborted it.
func (d *Desc) verdict() (st Status, sawInProg bool) {
	st = d.Status()
	if st == InPrep {
		d.status.CompareAndSwap(uint32(InPrep), uint32(Aborted))
		st = d.Status()
	}
	sawInProg = st == InProg || st == Committed
	if st == InProg {
		st = d.decide()
	}
	return st, sawInProg
}

// reuse is called by the owner once d's transaction has finished and been
// swept, and returns the descriptor the session's next transaction runs on: d
// itself, blank, if no helper is inside it, else a fresh one with d's set
// capacities, d being left to its helpers and the collector. Why the count
// is read after the sweep: doc.go.
func (d *Desc) reuse() *Desc {
	if d.helpers.Load() != 0 {
		return newDesc(d.owner, cap(d.readSet), cap(d.writeSet))
	}
	clear(d.readSet)
	clear(d.writeSet)
	d.readSet, d.writeSet = d.readSet[:0], d.writeSet[:0]
	d.status.Store(uint32(InPrep))
	return d
}

// sweep uninstalls the descriptor from every write-set entry. Called by the
// owner on commit/abort, and by helpers once the owner has reached TxEnd.
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
		cpLoaded.Hit()
		if c == nil || settle(slot, c, d, committed) {
			return
		}
	}
}

// settle is uninstall past its load of the slot (a caller can sleep between
// the two); false means c was replaced.
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
	cpCleared.Hit()
	atomic.StorePointer(&h.desc, nil)
	return true
}
