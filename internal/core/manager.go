package core

import (
	"sync/atomic"

	"medley/internal/metrics"
)

// Stats counts transaction events. Each session bumps a cell of its own
// (metrics.Cells) with atomic adds — a helper bumps the owner's Helps, so the
// adds stay read-modify-writes — and TxManager.Stats sums the cells.
type Stats struct {
	Begins   uint64 // transactions started
	Commits  uint64 // transactions committed
	Aborts   uint64 // transactions aborted (conflict or explicit)
	Helps    uint64 // foreign descriptors finalized on this session's behalf
	Installs uint64 // critical CASes that installed a descriptor
	Reads    uint64 // read-set entries recorded
}

// TxManager owns transaction metadata shared among all Composable structures
// intended for use in the same transactions (paper Fig. 1). One TxManager
// instance must be shared by every structure touched by a given transaction;
// each worker goroutine obtains its own Session from it.
//
// Session allocation and stats aggregation are lock-free: an id draw and a
// push onto the counter cells, so neither workers spinning up at high thread
// counts nor concurrent Stats polling ever serialize on a manager mutex.
type TxManager struct {
	cells  metrics.Cells[Stats] // one per session
	nextID atomic.Int64

	layer Layer // SetLayer's; nil for plain Medley
}

// Layer is a system layered over a manager's transactions, as txMontage is
// over Medley (paper Section 4.4: every transaction pins the epoch it began
// in and commits only while that epoch is current). The manager calls it at
// the three points of a transaction's life where such a system has work.
type Layer interface {
	// Begin runs at TxBegin on the beginning session, with its
	// transaction open.
	Begin(s *Session)
	// Valid is the layer's part of the commit verdict, asked after the
	// read set validated, by the owner or by a helper that finalizes the
	// transaction; s is the owner's session either way. false aborts the
	// transaction.
	Valid(s *Session) bool
	// End runs when the transaction has finished, after its cleanups or
	// undos, with its verdict.
	End(s *Session, committed bool)
}

// NewTxManager creates an empty transaction manager.
func NewTxManager() *TxManager { return &TxManager{} }

// SetLayer layers l over every transaction of the manager. It must be set
// before any transactions run.
func (m *TxManager) SetLayer(l Layer) { m.layer = l }

// Session creates a new session bound to this manager. Sessions are not
// goroutine-safe; create one per worker goroutine. Allocation is lock-free
// (an atomic id draw plus a push onto the counter cells), so spawning workers
// never serializes on the manager.
func (m *TxManager) Session() *Session {
	return &Session{mgr: m, id: int(m.nextID.Add(1) - 1), st: m.cells.New()}
}

// NumSessions reports how many sessions have been created.
func (m *TxManager) NumSessions() int { return int(m.nextID.Load()) }

// Stats sums every session's counters without locking, concurrently with
// both session allocation and running transactions.
func (m *TxManager) Stats() Stats { return m.cells.Sum() }
