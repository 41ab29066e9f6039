package core

import (
	"errors"
	"runtime"
	"sync/atomic"
	"time"
	"unsafe"
)

// Session is a per-goroutine handle onto a TxManager: the Go analogue of the
// paper's thread-local transaction state plus OpStarter. Each worker
// goroutine must use its own Session; a Session must not be shared between
// goroutines. All data-structure operations take a Session so that they can
// tell whether execution is currently inside a transaction (in which case
// NBTC instrumentation applies) or outside (in which case it is elided).
type Session struct {
	mgr  *TxManager
	id   int
	desc *Desc // non-nil while inside a transaction

	// inSpec tracks whether execution is inside the current operation's
	// speculation interval (Def. 3): set on a publication point or on
	// first contact with a value speculatively written by this
	// transaction; cleared by a successful linearizing CAS.
	inSpec bool

	cleanups []func() // post-critical work, run after commit
	undos    []func() // tNew compensation, run after abort

	// spare is the descriptor the next TxBegin runs on: the last one, unless
	// a helper was inside it when its transaction finished (Desc.reuse). It
	// belongs to this session alone, so with no helper about a transaction
	// allocates nothing for its descriptor or its sets once they have grown.
	spare *Desc

	// TxData is scratch space for layered systems (txMontage stores its
	// per-transaction epoch context here). Reset to nil at TxBegin.
	TxData any

	// Ext is a stable per-session extension slot for layered systems; it
	// survives across transactions (txMontage caches the session's epoch
	// pin here). Owned by whatever system the TxManager is attached to.
	Ext any

	rng uint64
	st  *Stats // the session's counter cell (TxManager.cells)

	// Every operation writes its session (inSpec, desc), so two cache lines
	// of padding keep sessions allocated back to back, one per worker, off
	// each other's lines and adjacent-line prefetch pairs.
	_ [128]byte
}

// ID returns the session's thread id within its TxManager.
func (s *Session) ID() int { return s.id }

// Manager returns the owning TxManager.
func (s *Session) Manager() *TxManager { return s.mgr }

// OpStart marks the beginning of a data-structure operation (the paper's
// OpStarter). It resets the speculation-interval flag: each operation's
// speculation interval starts fresh and is re-entered only on a publication
// point or on contact with a value speculatively written by an earlier
// operation of the same transaction.
func (s *Session) OpStart() { s.inSpec = false }

// InTx reports whether the session is currently inside a transaction. Data
// structures use this (like the paper's OpStarter) to elide instrumentation
// and to run cleanup immediately when called outside a transaction.
func (s *Session) InTx() bool { return s.desc != nil }

// Desc returns the current transaction's descriptor, or nil. Do not keep it
// past the end of the transaction: from then on it belongs to the session's
// next transaction, or to nobody.
func (s *Session) Desc() *Desc { return s.desc }

// TxBegin starts a new transaction (paper Fig. 5, txBegin). Transactions do
// not nest; calling TxBegin while a transaction is open panics, since that
// is a programming error rather than a recoverable condition.
func (s *Session) TxBegin() {
	if s.desc != nil {
		panic("medley: TxBegin inside an open transaction")
	}
	d := s.spare
	if d == nil {
		d = newDesc(s, 0, 0)
	}
	s.desc, s.spare = d, nil
	s.inSpec = false
	s.TxData = nil
	atomic.AddUint64(&s.st.Begins, 1)
	if h := s.mgr.beginHook; h != nil {
		h(s)
	}
}

// TxEnd attempts to commit the current transaction (paper Fig. 6, txEnd).
// It returns nil on commit and ErrTxAborted otherwise. Either way the
// transaction is finished when TxEnd returns: speculative writes are made
// visible or rolled back, and cleanups or undo handlers have run.
func (s *Session) TxEnd() error {
	d := s.desc
	if d == nil {
		panic("medley: TxEnd outside a transaction")
	}
	if d.status.CompareAndSwap(uint32(InPrep), uint32(InProg)) {
		d.decide()
	}
	return s.finish(d)
}

// TxAbort explicitly aborts the current transaction (paper Fig. 6, txAbort)
// and always returns ErrTxAborted, so that transaction bodies can write
// "return s.TxAbort()".
func (s *Session) TxAbort() error {
	d := s.desc
	if d == nil {
		panic("medley: TxAbort outside a transaction")
	}
	for {
		st := d.Status()
		if st == Committed || st == Aborted {
			break
		}
		d.status.CompareAndSwap(uint32(st), uint32(Aborted))
	}
	err := s.finish(d)
	if err == nil {
		// A helper can commit us only after we reached InProg, which
		// TxAbort never sets; reaching here would be a protocol bug.
		panic("medley: TxAbort observed a committed transaction")
	}
	return err
}

// finish completes a transaction whose status has been finalized (possibly
// by a helper): sweeps the write set, closes the session's transaction scope
// (its cleanups or undos, the manager's end hook), takes the descriptor for
// the next transaction if no helper is inside it, and counts the verdict.
func (s *Session) finish(d *Desc) error {
	committed := d.Status() == Committed
	d.sweep(committed)
	s.desc = nil
	s.inSpec = false
	if committed {
		for _, f := range s.cleanups {
			f()
		}
	} else {
		for i := len(s.undos) - 1; i >= 0; i-- {
			s.undos[i]()
		}
	}
	// Drop the closures (and the victims and payload ids they capture) now,
	// not when some later transaction overwrites the slots.
	clear(s.cleanups)
	clear(s.undos)
	s.cleanups, s.undos = s.cleanups[:0], s.undos[:0]
	// The end hook runs after cleanups and undos: txMontage releases the
	// session's epoch pin here, which guarantees that post-commit payload
	// retirements (and abort compensation) reach their epoch's persistence
	// batch before the epoch system may flush it.
	if h := s.mgr.endHook; h != nil {
		h(s, committed)
	}
	// Last, so that a helper has as long as possible to leave.
	s.spare = d.reuse()
	if committed {
		atomic.AddUint64(&s.st.Commits, 1)
		return nil
	}
	atomic.AddUint64(&s.st.Aborts, 1)
	return ErrTxAborted
}

// ValidateReads optionally checks mid-transaction that all recorded reads
// are still valid (paper Fig. 1, validateReads: the opacity escape hatch).
// If validation fails the transaction is aborted and ErrTxAborted returned.
func (s *Session) ValidateReads() error {
	d := s.desc
	if d == nil {
		panic("medley: ValidateReads outside a transaction")
	}
	if d.Status() == InPrep && d.validate() {
		return nil
	}
	return s.TxAbort()
}

// AddToReadSet registers the linearizing load of a read(-only) operation for
// commit-time validation (paper Fig. 1/Fig. 5, addToReadSet). o is the
// CASObj that was read and tag the ReadTag returned by NbtcLoad. Outside a
// transaction this is a no-op.
func (s *Session) AddToReadSet(o Obj, tag ReadTag) {
	d := s.desc
	if d == nil {
		return
	}
	d.readSet = append(d.readSet, readRec{slot: o.slot(), tag: unsafe.Pointer(tag)})
	atomic.AddUint64(&s.st.Reads, 1)
}

// AddToCleanups registers post-critical work (the paper's addToCleanups):
// deferred until after commit when inside a transaction, executed
// immediately otherwise.
func (s *Session) AddToCleanups(f func()) {
	if s.desc == nil {
		f()
		return
	}
	s.cleanups = append(s.cleanups, f)
}

// OnAbort registers compensation to run if the current transaction aborts
// (the undo side of the paper's tNew). Outside a transaction it is a no-op:
// there is nothing to compensate.
func (s *Session) OnAbort(f func()) {
	if s.desc == nil {
		return
	}
	s.undos = append(s.undos, f)
}

// TRetire schedules safe memory reclamation of a node after the current
// transaction commits (the paper's tRetire). Under Go's garbage collector
// reclamation itself is automatic, so the default behaviour simply drops the
// reference after commit; a TxManager RetireHook (used by the persistence
// layer to retire NVM payloads) can observe retirement.
func (s *Session) TRetire(x any) {
	hook := s.mgr.retireHook
	if hook == nil {
		return
	}
	if s.desc == nil {
		// Every retire issued from inside a cleanup lands here.
		hook(x)
		return
	}
	s.cleanups = append(s.cleanups, func() { hook(x) })
}

// Run executes fn as a transaction, retrying (with randomized exponential
// backoff) whenever the transaction aborts due to a conflict. If fn returns
// an error other than ErrTxAborted the transaction is aborted and the error
// is returned to the caller without retry — the idiom for business-logic
// aborts such as "insufficient funds".
func (s *Session) Run(fn func() error) error {
	for attempt := 0; ; attempt++ {
		s.TxBegin()
		err := fn()
		if err == nil {
			if s.desc == nil {
				// fn aborted explicitly but returned nil; treat as conflict.
				err = ErrTxAborted
			} else {
				err = s.TxEnd()
				if err == nil {
					return nil
				}
			}
		} else if s.desc != nil {
			s.TxAbort()
		}
		if !errors.Is(err, ErrTxAborted) {
			return err
		}
		s.backoff(attempt)
	}
}

// backoff applies bounded randomized exponential backoff between retries to
// avoid livelock among mutually aborting transactions (paper Section 3.1).
func (s *Session) backoff(attempt int) {
	if s.rng == 0 {
		s.rng = uint64(s.id)*2654435769 + 0x9e3779b97f4a7c15
	}
	Backoff(attempt, &s.rng)
}

// Backoff applies bounded randomized exponential backoff between optimistic
// retries: free first attempts, then Gosched, then jittered spins/sleeps.
// rng is caller-owned xorshift64 state (0 means unseeded) so independent
// retry loops don't share jitter streams. Exported for retry loops outside
// the session machinery (e.g. the txengine adapters of systems that manage
// their own re-execution).
func Backoff(attempt int, rng *uint64) {
	if attempt < 2 {
		return
	}
	if attempt < 6 {
		runtime.Gosched()
		return
	}
	shift := attempt
	if shift > 16 {
		shift = 16
	}
	// xorshift64 for jitter
	x := *rng
	if x == 0 {
		x = 0x9e3779b97f4a7c15
	}
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*rng = x
	spin := x % (1 << shift)
	if spin > 1<<14 {
		time.Sleep(time.Duration(spin>>4) * time.Nanosecond)
		return
	}
	for i := uint64(0); i < spin; i++ {
		runtime.Gosched()
	}
}
