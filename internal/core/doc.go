// Package core implements NBTC (NonBlocking Transaction Composition) and
// Medley, following "Transactional Composition of Nonblocking Data
// Structures" (Cai, Wen, Scott; PPoPP 2023).
//
// The package provides:
//
//   - CASObj[T]: an augmented atomic word supporting both plain atomic
//     operations and the transactional NbtcLoad / NbtcCAS operations of
//     Section 3.1 of the paper.
//   - Desc: the M-compare-N-swap (MCNS) transaction descriptor of Section
//     3.2, with install / tryFinalize / validate / uninstall phases.
//   - TxManager and Session: transaction lifecycle management (txBegin,
//     txEnd, txAbort, validateReads), deferred cleanups, allocation undo,
//     and retry helpers.
//
// # Mapping from the paper's 128-bit CAS to Go
//
// The C++ implementation pairs every transactional 64-bit word with a 64-bit
// counter and uses x86 CMPXCHG16B to switch the pair between "real value"
// (even counter) and "descriptor installed" (odd counter). Go has no 128-bit
// CAS, but it has a garbage collector, which eliminates the ABA hazard the
// counter exists to prevent. We therefore represent the (value, descriptor)
// pair as a heap cell {desc, prev, val} reached through one atomic pointer,
// the object's slot. Cell identity subsumes {value, counter} equality, so
// read-set validation is one pointer comparison and no counter is kept.
//
// # Concurrency protocol
//
// A critical CAS installs a new cell that carries the owning descriptor, the
// speculative new value, and a pointer to the replaced cell, prev — which
// holds the overwritten value and validates reads that the same transaction
// later overwrote. That cell is all an install allocates: uninstalling is
// type-erased and allocates nothing. On commit the installed cell becomes the
// real value in place: prev is cleared, then desc, in that order so that a
// helper descheduled between the two cannot leave the overwritten cell pinned
// behind a cell that looks finished. On abort the slot swings back to prev
// with one CAS, since the install never took effect. val is immutable, and a
// desc that reads nil stays nil.
//
// So a cell pointer can come back to a slot, but only by the abort of an
// install made directly over it, which is no change of the object's logical
// value: a read-set entry that has become logically invalid stays invalid,
// and a CAS (plain, installing, uninstalling) that succeeds against a cell
// that left and came back succeeds against the value it meant. A cell that
// carried an aborted descriptor never comes back: nothing names it as prev.
//
// Conflicting threads that encounter an installed cell eagerly finalize the
// descriptor (abort if InPrep, help validate/commit if InProg) and uninstall
// the cell they tripped over; the owner sweeps its entire write set on commit
// or abort. Helpers never mutate a descriptor's sets or validators and read
// them only after loading InProg or Committed from the status word; a cell's
// words are written plainly before the CAS that publishes it and atomically
// after, so the protocol is free of data races by construction (next
// section). Eager contention management makes the system obstruction-free
// (paper Section 5.2).
//
// # What the paper guarantees and what the runtime adds
//
// The paper's guarantees hold per TxManager, and an engine — sharded or not —
// has exactly one: every structure a transaction may touch shares it (Fig. 1),
// and a worker has one Session, so a transaction is one descriptor on one
// session however many structures, shards or devices its operations land on.
// Within that scope the commit is nonblocking: one status CAS
// (InPrep→InProg→Committed) decides every write together, this package takes
// no lock at any point between TxBegin and the end of TxEnd, and a helper that
// finds a stalled owner's cell finishes the transaction for it (or aborts it
// while InPrep). A layered system adds to the verdict only through AddValidator
// (before TxEnd, by the owning goroutine): txMontage registers one epoch
// check per transaction, so "all of it in one epoch" is decided by the same
// validation as the reads, not by a lock around the commit.
//
// What blocks is the runtime's, and only by declaration: the sharded engines'
// key latches (txengine/latch.go) make transactions that declared overlapping
// footprints queue FIFO instead of aborting each other. They are taken before
// the transaction opens and released after it closes, so no descriptor is
// ever installed by a goroutine waiting on one; they only schedule, and
// atomicity and isolation never depend on them — undeclared transactions run
// on the same keys concurrently, under the paper's guarantees alone. (The
// MVCC sidecar's stripe mutex, txengine/snapshot.go, is the one lock a
// committer does take inside its commit window; it guards version publication,
// not the verdict. It exists only once the sidecar has started, on the
// engine's first snapshot read — until then a commit publishes nothing and
// takes no lock — and the start blocks that first snapshot for one scan of the
// engine's maps.)
//
// # Who owns the read and write sets
//
// The paper keeps one descriptor per thread and reuses it under a serial
// number, so txBegin allocates nothing. Here the garbage collector stands in
// for the serial number — a helper may hold a descriptor for as long as it
// likes — so what a transaction allocates is decided by who owns its sets:
//
//   - InPrep: the sets alias scratch slices of the Session (rs, ws), which
//     grow by append and persist across transactions. Only the owner touches
//     them. A helper that meets an InPrep descriptor aborts it and uninstalls
//     the single cell it found; it reads neither set.
//   - TxEnd: a descriptor another goroutine can reach — it installed a cell —
//     is frozen: both sets are replaced by exact-size private copies and the
//     scratch goes back to the session, cleared. Only then does the owner CAS
//     InPrep→InProg.
//   - InProg, Committed, Aborted-after-InProg: the sets are immutable.
//     Helpers validate the read set and sweep the write set.
//   - Aborted straight from InPrep (a helper's abort, TxAbort): helpers still
//     read no set; the owner sweeps and takes the scratch back unfrozen.
//
// Freeze-before-InProg is race-free because the InPrep→InProg CAS is the
// only edge after which a helper reads the sets, and the copies are written
// before it: the status word's release/acquire pairing that already ordered
// the owner's appends before helper reads now orders the copies. It is
// stale-helper-safe because tryFinalize's "is this cell still current" check
// and the rest of it are not atomic: a helper can pass the check, sleep
// through the owner's commit and any number of its later transactions, and
// resume. What it then holds is that old transaction's descriptor, whose
// sets name that transaction's objects and nothing else; the scratch the
// current transaction is filling is not reachable from it.
//
// # When a descriptor is recycled
//
// A descriptor that finishes without ever installing a cell — a read-only
// transaction, one whose every write failed before installing — was never
// visible to another goroutine. The session keeps it
// as its spare and the next TxBegin reuses it, so such a transaction
// allocates nothing. A descriptor that was ever reachable is never reused,
// whatever its outcome: that is the ABA guarantee the serial number gives
// the paper.
//
// Scratch and spare belong to one session, so what a transaction allocates
// is a function of what that transaction (and its predecessor on the
// session) did: header + read copy + write copy + one cell per install for
// a writer, zero for a reader. A sync.Pool, a free list shared between
// sessions, or epoch-deferred reuse would save the header too, but with a
// hit rate that depends on collector timing and scheduling — and bytes per
// operation is the benchmark's tightest bound (5 %), with deterministic
// budget tests on top (budget_test.go). A saving that cannot be measured
// the same way twice cannot be defended.
package core
