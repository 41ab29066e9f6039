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
// The paper's word holds its value inline, so a step of a list walk loads one
// line; a boxed value makes it slot → cell → node, two dependent misses more.
// A structure gets the one line back by handing the CAS that links a new node
// the cell inside that node (Cell, NbtcCASIn): the slot then points into the
// node itself. A cell so supplied must never have been published, so each
// node's cell goes to the one link that stays pointing at it (mlist).
//
// The paper also keeps one descriptor per thread and reuses it under a serial
// number, so that a helper holding an old transaction's descriptor can tell it
// has been reused. Here a count of the helpers inside a descriptor stands in
// for the serial number: the owner reuses its descriptor only when the count
// says no helper is inside it (below).
//
// # Concurrency protocol
//
// A critical CAS installs a new cell that carries the owning descriptor, the
// speculative new value, and a pointer to the replaced cell, prev — which
// holds the overwritten value and validates reads that the same transaction
// later overwrote. That cell is all an install allocates, and nothing when
// the caller supplies it: uninstalling is type-erased and allocates nothing.
// Every CAS writes the whole header of its cell before the CAS, since a
// supplied cell may still carry what a failed install wrote into it. On
// commit the installed cell becomes the real value in place: prev is cleared,
// then desc, in that order so that a helper descheduled between the two
// cannot leave the overwritten cell pinned behind a cell that looks finished.
// On abort the slot swings back to prev with one CAS, since the install never
// took effect. val is immutable once published, and a desc that reads nil
// stays nil.
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
// The paper's guarantees hold per TxManager, and an engine — on one device or
// several — has exactly one: every structure a transaction may touch shares
// it (Fig. 1), and a worker has one Session, so a transaction is one
// descriptor on one session however many structures or devices its
// operations land on.
// Within that scope the commit is nonblocking: one status CAS
// (InPrep→InProg→Committed) decides every write together, this package takes
// no lock at any point between TxBegin and the end of TxEnd, and a helper that
// finds a stalled owner's cell finishes the transaction for it (or aborts it
// while InPrep). A layered system adds to the verdict only through AddValidator
// (before TxEnd, by the owning goroutine): txMontage registers one epoch
// check per transaction, so "all of it in one epoch" is decided by the same
// validation as the reads, not by a lock around the commit.
//
// What blocks is the runtime's, and only by declaration: the Medley family's
// key latches (txengine/latch.go) make transactions that declared two to
// latchMaxKeys overlapping keys queue FIFO instead of aborting each other. They are taken before
// the transaction opens and released after it closes, so no descriptor is
// ever installed by a goroutine waiting on one; they only schedule, and
// atomicity and isolation never depend on them — undeclared transactions run
// on the same keys concurrently, under the paper's guarantees alone. (The
// MVCC sidecar's stripe mutex, txengine/snapshot.go, is the one lock a
// committer does take inside its commit window; it guards version publication,
// not the verdict. It exists only once the sidecar has started, on the
// engine's first snapshot read — until then a commit publishes nothing and
// takes no lock — and the start blocks that first snapshot for one scan of the
// engine's maps. A writer that meets the start waits for it too, once per
// engine, and never inside an open transaction: a standalone write before its
// inner operation, a transaction whose commit met the start before the TxBegin
// of its retry. A transaction that writes nothing never waits.)
//
// # Who owns the read and write sets
//
// The descriptor does: readSet and writeSet are its own arrays, and its
// session keeps it from one transaction to the next, sets, capacity and all.
//
//   - InPrep: only the owner touches the sets; it appends to them. A helper
//     that meets an InPrep descriptor aborts it and uninstalls the single cell
//     it found; it reads neither set.
//   - InProg, Committed, Aborted-after-InProg: nobody appends any more, so the
//     sets are frozen with no copy made. Helpers validate the read set and
//     sweep the write set, having loaded InProg or Committed from the status
//     word: the owner's InPrep→InProg CAS orders its appends before their reads.
//   - Aborted straight from InPrep (a helper's abort, TxAbort): helpers still
//     read no set; the owner sweeps.
//
// After its sweep the owner clears the sets, keeping their capacity, and the
// next transaction appends into the same arrays — but only if no helper is
// inside the descriptor (next section).
//
// # When a descriptor is reused
//
// A helper reaches a descriptor only through a cell that names it, and
// dereferences it only inside tryFinalize: validate, settle, NbtcLoad and
// NbtcCAS compare the pointer and read nothing behind it. tryFinalize
// increments the descriptor's helper count, re-checks that the slot still
// holds the cell it found and that the cell still names the descriptor, calls
// finalize only if both hold, then decrements. The owner, once it has swept
// and closed its transaction, reads the count. At zero it blanks the
// descriptor (sets cleared, status InPrep) and keeps it for its next
// transaction; otherwise it leaves the descriptor to its helpers and the
// collector and gives its next transaction a fresh one with the same set
// capacities. Why that is safe:
//
//   - After the owner's sweep no slot holds a cell that names the descriptor.
//     Committed cells have a nil desc, and a nil desc stays nil; aborted cells
//     have left their slots and never come back.
//   - So a helper that increments after the owner read zero fails its re-check
//     before it reads anything of the descriptor.
//   - A helper that increments before that read is seen, and the descriptor
//     is not reused.
//   - The helper increments and then loads the slot and the cell; the owner
//     sweeps and then loads the count. That is a Dekker pair, and Go's atomics
//     are sequentially consistent: one of the two sees the other's write.
//
// A helper that increments and fails its re-check may make the owner drop a
// descriptor nobody was going to touch; that costs a fresh descriptor, never
// safety. With no helper about, reuse is deterministic: what a transaction
// allocates is one cell per install that does not bring its own (installing
// a new list node allocates none), and nothing for its descriptor or sets
// once the session's arrays have grown to fit — it does not depend on
// collector timing or scheduling, which a sync.Pool, a free list shared
// between sessions, or epoch-deferred reuse would (bytes per operation is the
// benchmark's tightest bound, 5 %, with deterministic budget tests on top,
// budget_test.go).
package core
