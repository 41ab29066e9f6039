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

	// beginHook, if set, runs at the start of every transaction on the
	// beginning session. Used by txMontage to pin the transaction's epoch
	// and register the epoch validator.
	beginHook func(*Session)
	// endHook, if set, runs when a transaction finishes (after the write
	// set is swept and the cleanups or undos have run), with the commit
	// outcome. Used by txMontage to settle the transaction's payloads and
	// release the session's epoch reservation.
	endHook func(*Session, bool)
	// retireHook, if set, observes TRetire'd nodes after commit. Used by
	// the persistence layer to retire NVM payloads.
	retireHook retirer
}

// retirer is the retire hook as the Cleaner of a TRetire inside a
// transaction: the record's first operand is the retired node.
type retirer func(any)

func (h retirer) Cleanup(_ *Session, x, _ any) { h(x) }

// NewTxManager creates an empty transaction manager.
func NewTxManager() *TxManager { return &TxManager{} }

// SetBeginHook installs a hook invoked at TxBegin. It must be set before any
// transactions run.
func (m *TxManager) SetBeginHook(h func(*Session)) { m.beginHook = h }

// SetEndHook installs a hook invoked when every transaction finishes, with
// its commit outcome. It must be set before any transactions run.
func (m *TxManager) SetEndHook(h func(*Session, bool)) { m.endHook = h }

// SetRetireHook installs a hook invoked for every TRetire'd node after its
// transaction commits. It must be set before any transactions run.
func (m *TxManager) SetRetireHook(h func(any)) { m.retireHook = h }

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
