// Package boost provides the transactional-boosting escape hatch mentioned
// in Section 3.1 of the Medley paper: the Composable base class "provides
// an API for transactional boosting, which can be used to incorporate
// lock-based operations into Medley transactions (at the cost, of course,
// of nonblocking progress)".
//
// Boosting (Herlihy & Koskinen, PPoPP 2008) makes operations on an existing
// thread-safe object transactional by (1) acquiring semantic locks that
// cover the operation's abstract footprint (e.g. one lock per key), held
// until the transaction ends, and (2) logging inverse operations that roll
// the object back if the transaction aborts. Two transactions conflict only
// if their footprints overlap, regardless of low-level memory conflicts.
//
// Deadlock is avoided by never blocking: a lock owned by another
// transaction aborts the acquirer (try-lock discipline), and Session.Run
// retries. Reentrant acquisition by the owning transaction is free.
//
// The package also ships BoostedMap, a boosted sharded mutex map — both a
// usable structure and the worked example of the API.
package boost

import (
	"sync"

	"medley/internal/core"
)

// LockTable is a table of semantic locks keyed by uint64 (typically a key
// hash). Locks are owned by transactions (sessions), not goroutines, and
// are released automatically when the owning transaction commits or aborts.
type LockTable struct {
	shards []lockShard
}

type lockShard struct {
	mu     sync.Mutex
	owners map[uint64]*core.Session
}

// NewLockTable creates a lock table with the given shard count (shards
// bound only the map sizes; each key has its own logical lock).
func NewLockTable(shards int) *LockTable {
	if shards < 1 {
		shards = 1
	}
	t := &LockTable{shards: make([]lockShard, shards)}
	for i := range t.shards {
		t.shards[i].owners = make(map[uint64]*core.Session)
	}
	return t
}

func (t *LockTable) shard(key uint64) *lockShard {
	return &t.shards[(key*0x9e3779b97f4a7c15>>32)%uint64(len(t.shards))]
}

// Acquire takes the semantic lock for key on behalf of s's current
// transaction. It returns false — without blocking — if another transaction
// owns the lock; the caller should abort and let Run retry. Outside a
// transaction the caller must pair Acquire with ReleaseNow.
func (t *LockTable) Acquire(s *core.Session, key uint64) bool {
	sh := t.shard(key)
	sh.mu.Lock()
	owner, held := sh.owners[key]
	if held && owner != s {
		sh.mu.Unlock()
		return false
	}
	first := !held
	if first {
		sh.owners[key] = s
	}
	sh.mu.Unlock()
	if first && s.InTx() {
		// Release exactly once at transaction end, whichever way it goes.
		// On abort, undo handlers registered later (the inverses) run
		// first, so the object is restored before the lock drops.
		release := core.Func(func() { t.ReleaseNow(s, key) })
		s.AddToCleanups(release, nil, nil)
		s.OnAbort(release, nil, nil)
	}
	return true
}

// ReleaseNow drops the semantic lock for key if s owns it. Transactions do
// not call this directly — Acquire schedules it — but non-transactional
// callers must.
func (t *LockTable) ReleaseNow(s *core.Session, key uint64) {
	sh := t.shard(key)
	sh.mu.Lock()
	if sh.owners[key] == s {
		delete(sh.owners, key)
	}
	sh.mu.Unlock()
}

// ErrLockConflict is returned by boosted operations that lost a semantic
// lock race; it unwraps to core.ErrTxAborted so Session.Run retries.
type lockConflictError struct{}

func (lockConflictError) Error() string { return "boost: semantic lock conflict" }
func (lockConflictError) Unwrap() error { return core.ErrTxAborted }

// ErrLockConflict reports a semantic-lock conflict (retryable).
var ErrLockConflict error = lockConflictError{}

// Do runs a boosted operation inside s's current transaction: it acquires
// the semantic lock for key, applies the operation immediately, and
// registers inverse to run if the transaction aborts (inverse may be nil
// for read-only operations). Outside a transaction the operation applies
// directly with the lock held only for the call.
func (t *LockTable) Do(s *core.Session, key uint64, apply func(), inverse func()) error {
	if !s.InTx() {
		for !t.Acquire(s, key) {
		}
		apply()
		t.ReleaseNow(s, key)
		return nil
	}
	if !t.Acquire(s, key) {
		s.TxAbort()
		return ErrLockConflict
	}
	apply()
	if inverse != nil {
		s.OnAbort(core.Func(inverse), nil, nil)
	}
	return nil
}

// BoostedMap is a plain sharded-mutex hash map made transactional through
// boosting. It demonstrates two things the paper points out: boosting
// composes lock-based code with Medley transactions, and it is blocking —
// a stalled transaction holding a semantic lock stalls conflicting
// transactions' progress (they abort and retry rather than helping).
type BoostedMap[V any] struct {
	locks *LockTable
	mu    sync.RWMutex
	data  map[uint64]V
}

// NewMap creates a boosted map.
func NewMap[V any](lockShards int) *BoostedMap[V] {
	return &BoostedMap[V]{
		locks: NewLockTable(lockShards),
		data:  make(map[uint64]V),
	}
}

func (m *BoostedMap[V]) read(k uint64) (V, bool) {
	m.mu.RLock()
	v, ok := m.data[k]
	m.mu.RUnlock()
	return v, ok
}

func (m *BoostedMap[V]) write(k uint64, v V) {
	m.mu.Lock()
	m.data[k] = v
	m.mu.Unlock()
}

func (m *BoostedMap[V]) del(k uint64) {
	m.mu.Lock()
	delete(m.data, k)
	m.mu.Unlock()
}

// Get returns the value bound to k, if any. The semantic lock pins the
// binding until commit (boosted readers are visible, unlike NBTC readers).
func (m *BoostedMap[V]) Get(s *core.Session, k uint64) (V, bool, error) {
	var v V
	var ok bool
	err := m.locks.Do(s, k, func() { v, ok = m.read(k) }, nil)
	return v, ok, err
}

// Upsert binds k to v and reports the previous binding, all under one
// semantic-lock acquisition; the inverse restores the binding on abort.
func (m *BoostedMap[V]) Upsert(s *core.Session, k uint64, v V) (V, bool, error) {
	var old V
	var had bool
	err := m.locks.Do(s, k,
		func() {
			old, had = m.read(k)
			m.write(k, v)
		},
		func() {
			if had {
				m.write(k, old)
			} else {
				m.del(k)
			}
		})
	return old, had, err
}

// InsertIfAbsent adds k→v only if absent, atomically under one
// semantic-lock acquisition; the inverse deletes it on abort.
func (m *BoostedMap[V]) InsertIfAbsent(s *core.Session, k uint64, v V) (bool, error) {
	inserted := false
	err := m.locks.Do(s, k,
		func() {
			if _, had := m.read(k); !had {
				m.write(k, v)
				inserted = true
			}
		},
		func() {
			if inserted {
				m.del(k)
			}
		})
	return inserted, err
}

// Put binds k to v; the inverse restores the previous binding on abort.
func (m *BoostedMap[V]) Put(s *core.Session, k uint64, v V) error {
	old, had := V(*new(V)), false
	return m.locks.Do(s, k,
		func() {
			old, had = m.read(k)
			m.write(k, v)
		},
		func() {
			if had {
				m.write(k, old)
			} else {
				m.del(k)
			}
		})
}

// Remove deletes k; the inverse re-inserts it on abort.
func (m *BoostedMap[V]) Remove(s *core.Session, k uint64) (V, bool, error) {
	var old V
	var had bool
	err := m.locks.Do(s, k,
		func() {
			old, had = m.read(k)
			if had {
				m.del(k)
			}
		},
		func() {
			if had {
				m.write(k, old)
			}
		})
	return old, had, err
}

// Len counts bindings (diagnostic).
func (m *BoostedMap[V]) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.data)
}
