package core

import "sync/atomic"

// This file implements shared-fate transaction groups: several open
// transactions — typically one per shard of a sharded engine, each on its
// own TxManager — linked so that they commit or abort as one atomic unit.
//
// The mechanism is the classic multi-word extension of the MCNS descriptor
// protocol: every linked descriptor delegates its status to one shared
// TxGroup word, so the single CAS that finalizes the group finalizes every
// member at once. Helpers that trip over any member's installed cell resolve
// the *group*: an InPrep group is aborted whole, an InProg group is
// validated across every member's read set (and extra validators) and then
// committed or aborted whole. There is no window in which one member is
// committed and a sibling is not — the property the sharded runtime's
// key-granular (latch-based) cross-shard commit relies on, where concurrent
// single-shard transactions may invalidate a sub-transaction's reads at any
// time and a per-shard commit sequence could otherwise tear.
//
// Validation soundness under racing finalizers follows the same monotonicity
// argument as the single-descriptor case, over the object's logical value
// (doc.go): val is immutable, and a cell pointer returns to a slot only when
// an install made directly over it aborts, which changes nothing logically —
// so once any member's read-set entry is logically invalid it stays invalid,
// and two verdicts can differ only by a spurious abort (one finalizer met a
// foreign install that later aborted). A finalizer that votes to commit saw
// every entry unchanged since its read, after every member's writes were
// installed; a committed cell's prev and desc are cleared only once the
// status is final, where a late verdict's CAS is a no-op.

// TxGroup links the descriptors of several open transactions into one
// shared-fate unit with a single status word. Like Desc, a group is used
// for exactly one (logical) transaction and never reused: helpers may hold
// references to a finalized group indefinitely, and reuse would let a
// straggler's status CAS corrupt an unrelated transaction.
type TxGroup struct {
	status  atomic.Uint32
	members []*Desc
	// mBuf backs members for groups of up to four (a cross-shard commit
	// over the default shard count), so linking makes one allocation.
	mBuf [4]*Desc
}

// LinkTxs links the currently open transactions of ss into a new shared-fate
// group and returns it. Every session must be inside a transaction that has
// not yet installed any speculative write (link immediately after TxBegin):
// the group pointer becomes visible to helpers through installed cells, so
// it must be in place before the first install.
//
// Once linked, the transactions must be finished either by CommitLinked or
// by aborting every member (Session.TxAbort; aborting one member aborts the
// group, but each session still needs its own TxAbort/finish to run its
// sweep, undos, and hooks).
func LinkTxs(ss []*Session) *TxGroup {
	g := &TxGroup{}
	g.members = g.mBuf[:0]
	for _, s := range ss {
		d := s.desc
		if d == nil {
			panic("medley: LinkTxs outside a transaction")
		}
		if d.group != nil {
			panic("medley: LinkTxs on an already linked transaction")
		}
		if len(d.writeSet) != 0 {
			panic("medley: LinkTxs after a speculative install")
		}
		d.group = g
		g.members = append(g.members, d)
	}
	return g
}

// CommitLinked atomically commits the linked transactions of ss: every
// member's sets are frozen, one status CAS publishes them all, validation
// covers every member's read set and validators, and one final CAS decides
// the fate of all of them. It then finishes each session (sweep,
// cleanups/undos, hooks) and returns nil if the group committed,
// ErrTxAborted otherwise. ss must be exactly the sessions passed to LinkTxs,
// each still inside its linked transaction.
func CommitLinked(ss []*Session) error {
	d0 := ss[0].desc
	if d0 == nil || d0.group == nil {
		panic("medley: CommitLinked outside a linked transaction")
	}
	g := d0.group
	// Every member is reachable through every other member's cells, so
	// every member freezes — all of them before the one CAS that lets
	// helpers read any of them.
	for _, s := range ss {
		s.freeze(s.desc)
	}
	if g.status.CompareAndSwap(uint32(InPrep), uint32(InProg)) {
		if d0.validateScope() {
			g.status.CompareAndSwap(uint32(InProg), uint32(Committed))
		} else {
			g.status.CompareAndSwap(uint32(InProg), uint32(Aborted))
		}
	}
	// Every member shares the final status, so every finish returns the
	// same verdict; the last one is as good as any.
	var err error
	for _, s := range ss {
		err = s.finish(s.desc)
	}
	return err
}

// statusWord returns the atomic word that holds this descriptor's status:
// its own for a solo transaction, the group's for a linked one. Every status
// read and transition goes through it, which is what gives linked
// descriptors their shared fate.
func (d *Desc) statusWord() *atomic.Uint32 {
	if d.group != nil {
		return &d.group.status
	}
	return &d.status
}

// validateScope validates everything the finalizing CAS would commit: the
// whole group for a linked descriptor, just d itself otherwise.
func (d *Desc) validateScope() bool {
	if g := d.group; g != nil {
		for _, m := range g.members {
			if !m.validate() {
				return false
			}
		}
		return true
	}
	return d.validate()
}

// sweepScope uninstalls the finalized descriptor(s) from their write sets:
// the whole group for a linked descriptor (helpers only call this once the
// group reached InProg, when every member's write set is frozen), just d
// otherwise.
func (d *Desc) sweepScope(committed bool) {
	if g := d.group; g != nil {
		for _, m := range g.members {
			m.sweep(committed)
		}
		return
	}
	d.sweep(committed)
}
