// Package tdsl implements "TDSL-lite", a baseline modelled on the
// transactional data structure library of Spiegelman, Golan-Gueta & Keidar
// (PLDI 2016), which the Medley paper compares against in Figures 8–9.
//
// TDSL's defining properties, reproduced here:
//
//   - Transactions are (blocking) optimistic: reads record versions of
//     semantically critical state only — not every traversed node — so read
//     sets stay small compared to a general STM.
//   - Writes are buffered and applied at commit under locks, TL2-style:
//     lock the written stripes in canonical order and mark them locked,
//     validate recorded read versions, apply, bump versions, unlock.
//   - Because commit holds locks, the system is blocking, and its
//     scalability saturates once writer commits start queueing — the
//     behaviour the paper observes.
//
// Substitution note (README, "Substitutions"): the authors' TDSL attaches
// versioned locks to individual skiplist nodes. TDSL-lite coarsens that to
// hash-striped partitions, each holding an independent sequential skiplist
// guarded by one versioned lock. Read sets remain semantic ("the partition
// of key k was at version v"), commits remain short-lock TL2, and the
// blocking scalability profile is preserved with far less machinery.
package tdsl

import (
	"errors"
	"math/bits"
	"math/rand/v2"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"
)

// ErrAborted is returned by Tx.Commit when validation fails; callers retry.
var ErrAborted = errors.New("tdsl: transaction aborted")

// TM is the transaction manager: a global version clock shared by every
// structure participating in the same transactions.
type TM struct {
	clock atomic.Uint64
}

// NewTM creates a transaction manager.
func NewTM() *TM { return &TM{} }

// stripeHdr is the versioned lock of one partition. version is even when
// unlocked; a committing writer holds lock and keeps version odd from its
// validation until it publishes a fresh even value.
type stripeHdr struct {
	lock    sync.Mutex
	version atomic.Uint64
}

// Tx is one transaction. Not goroutine-safe.
type Tx struct {
	tm      *TM
	reads   []readRec
	writes  []writeRec
	pending map[pendKey]pendVal
	aborted bool
}

type readRec struct {
	hdr *stripeHdr
	ver uint64
}

type writeRec struct {
	hdr   *stripeHdr
	apply func()
}

type pendKey struct {
	m any
	k uint64
}

type pendVal struct {
	present bool
	val     any
}

// Begin starts a transaction.
func (tm *TM) Begin() *Tx {
	return &Tx{tm: tm, pending: make(map[pendKey]pendVal, 8)}
}

// Run executes fn as a transaction, retrying on conflict aborts. A non-nil
// error other than ErrAborted from fn aborts without retry and is returned.
func (tm *TM) Run(fn func(tx *Tx) error) error {
	for attempt := 0; ; attempt++ {
		tx := tm.Begin()
		err := fn(tx)
		if err == nil {
			err = tx.Commit()
			if err == nil {
				return nil
			}
		}
		if !errors.Is(err, ErrAborted) {
			return err
		}
		// Two committers that each read a stripe the other locked both abort;
		// a randomized, growing backoff keeps them from doing so in step.
		if attempt > 3 {
			for range 1 + rand.IntN(1<<min(attempt-3, 10)) {
				runtime.Gosched()
			}
		}
	}
}

// abort marks the transaction doomed; subsequent Commit fails fast.
func (tx *Tx) abort() error {
	tx.aborted = true
	return ErrAborted
}

// recordRead snapshots a stripe version, aborting on a locked or
// post-snapshot version (TL2 read rule).
func (tx *Tx) recordRead(h *stripeHdr, ver uint64) bool {
	if ver%2 != 0 {
		tx.abort()
		return false
	}
	tx.reads = append(tx.reads, readRec{hdr: h, ver: ver})
	return true
}

// Commit applies the transaction: lock written stripes in canonical order,
// validate read versions, apply buffered writes, publish fresh versions.
func (tx *Tx) Commit() error {
	if tx.aborted {
		return ErrAborted
	}
	locked := tx.lock()
	if !tx.validate(locked) {
		for _, h := range locked {
			h.version.Add(^uint64(0))
			h.lock.Unlock()
		}
		return tx.abort()
	}
	// Apply under odd versions, then publish fresh even versions.
	wv := tx.tm.clock.Add(2)
	for _, h := range locked {
		h.version.Store(wv | 1)
	}
	for _, w := range tx.writes {
		w.apply()
	}
	for _, h := range locked {
		h.version.Store(wv + 2)
		h.lock.Unlock()
	}
	return nil
}

// lock locks the written stripes in canonical order (no deadlock) and
// announces each with an odd version, so that two committers that each read
// what the other writes cannot both pass validation (write skew).
func (tx *Tx) lock() []*stripeHdr {
	stripes := make([]*stripeHdr, 0, len(tx.writes))
	for _, w := range tx.writes {
		stripes = append(stripes, w.hdr)
	}
	sort.Slice(stripes, func(i, j int) bool {
		return hdrPtr(stripes[i]) < hdrPtr(stripes[j])
	})
	locked := stripes[:0]
	for i, h := range stripes {
		if i > 0 && h == stripes[i-1] {
			continue
		}
		h.lock.Lock()
		h.version.Add(1)
		locked = append(locked, h)
	}
	return locked
}

// validate reports whether every read version still holds: unchanged, or, on
// a stripe tx locked, its own announcement over it.
func (tx *Tx) validate(locked []*stripeHdr) bool {
	for _, r := range tx.reads {
		if v := r.hdr.version.Load(); v != r.ver && (v != r.ver+1 || !slices.Contains(locked, r.hdr)) {
			return false
		}
	}
	return true
}

func hdrPtr(h *stripeHdr) uintptr { return uintptr(unsafe.Pointer(h)) }

// Map is a transactional ordered map from uint64 to V, partitioned into
// hash stripes each holding a sequential skiplist under a versioned lock.
type Map[V any] struct {
	stripes []mapStripe[V]
}

type mapStripe[V any] struct {
	stripeHdr
	sl seqSkip[V]
}

// NewMap creates a map with nstripes partitions.
func NewMap[V any](nstripes int) *Map[V] {
	if nstripes < 1 {
		nstripes = 1
	}
	m := &Map[V]{stripes: make([]mapStripe[V], nstripes)}
	for i := range m.stripes {
		m.stripes[i].sl.init()
	}
	return m
}

func (m *Map[V]) stripe(k uint64) *mapStripe[V] {
	return &m.stripes[mix64(k)%uint64(len(m.stripes))]
}

// Get returns the value bound to k as of the transaction's snapshot.
func (m *Map[V]) Get(tx *Tx, k uint64) (V, bool) {
	if p, ok := tx.pending[pendKey{m, k}]; ok {
		if !p.present {
			var zero V
			return zero, false
		}
		return p.val.(V), true
	}
	st := m.stripe(k)
	for {
		v1 := st.version.Load()
		if v1%2 != 0 {
			runtime.Gosched()
			continue
		}
		val, ok := st.sl.get(k)
		if st.version.Load() != v1 {
			continue
		}
		if !tx.recordRead(&st.stripeHdr, v1) {
			var zero V
			return zero, false
		}
		return val, ok
	}
}

// Put binds k to v at commit, returning the snapshot's previous binding.
func (m *Map[V]) Put(tx *Tx, k uint64, v V) (V, bool) {
	old, had := m.Get(tx, k)
	st := m.stripe(k)
	tx.writes = append(tx.writes, writeRec{hdr: &st.stripeHdr, apply: func() { st.sl.put(k, v) }})
	tx.pending[pendKey{m, k}] = pendVal{present: true, val: v}
	return old, had
}

// Insert adds k→v at commit if absent in the snapshot; reports whether it
// will insert.
func (m *Map[V]) Insert(tx *Tx, k uint64, v V) bool {
	if _, had := m.Get(tx, k); had {
		return false
	}
	st := m.stripe(k)
	tx.writes = append(tx.writes, writeRec{hdr: &st.stripeHdr, apply: func() { st.sl.put(k, v) }})
	tx.pending[pendKey{m, k}] = pendVal{present: true, val: v}
	return true
}

// Remove deletes k at commit, returning the snapshot's binding.
func (m *Map[V]) Remove(tx *Tx, k uint64) (V, bool) {
	old, had := m.Get(tx, k)
	if !had {
		var zero V
		return zero, false
	}
	st := m.stripe(k)
	tx.writes = append(tx.writes, writeRec{hdr: &st.stripeHdr, apply: func() { st.sl.remove(k) }})
	tx.pending[pendKey{m, k}] = pendVal{present: false}
	return old, true
}

// Len counts keys (diagnostic; quiesced use only).
func (m *Map[V]) Len() int {
	n := 0
	for i := range m.stripes {
		n += m.stripes[i].sl.len()
	}
	return n
}

func mix64(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	k ^= k >> 33
	return k
}

// seqSkip is a sequential skiplist whose fields are atomics so optimistic
// readers racing with a locked writer never tear; consistency is enforced
// by the stripe seqlock.
const seqMaxLevel = 12

type seqSkip[V any] struct {
	head *seqNode[V]
}

type seqNode[V any] struct {
	key   uint64
	val   atomic.Pointer[V]
	next  []atomic.Pointer[seqNode[V]]
	level int
}

func (s *seqSkip[V]) init() {
	s.head = &seqNode[V]{next: make([]atomic.Pointer[seqNode[V]], seqMaxLevel), level: seqMaxLevel - 1}
}

func (s *seqSkip[V]) findPreds(k uint64, preds *[seqMaxLevel]*seqNode[V]) *seqNode[V] {
	x := s.head
	for lvl := seqMaxLevel - 1; lvl >= 0; lvl-- {
		for {
			nxt := x.next[lvl].Load()
			if nxt == nil || nxt.key >= k {
				break
			}
			x = nxt
		}
		preds[lvl] = x
	}
	if c := x.next[0].Load(); c != nil && c.key == k {
		return c
	}
	return nil
}

func (s *seqSkip[V]) get(k uint64) (V, bool) {
	var preds [seqMaxLevel]*seqNode[V]
	if c := s.findPreds(k, &preds); c != nil {
		if vp := c.val.Load(); vp != nil {
			return *vp, true
		}
	}
	var zero V
	return zero, false
}

func (s *seqSkip[V]) put(k uint64, v V) {
	var preds [seqMaxLevel]*seqNode[V]
	if c := s.findPreds(k, &preds); c != nil {
		c.val.Store(&v)
		return
	}
	lvl := bits.TrailingZeros64(rand.Uint64() | (1 << (seqMaxLevel - 1)))
	nn := &seqNode[V]{key: k, next: make([]atomic.Pointer[seqNode[V]], lvl+1), level: lvl}
	nn.val.Store(&v)
	for i := 0; i <= lvl; i++ {
		nn.next[i].Store(preds[i].next[i].Load())
		preds[i].next[i].Store(nn)
	}
}

func (s *seqSkip[V]) remove(k uint64) {
	var preds [seqMaxLevel]*seqNode[V]
	c := s.findPreds(k, &preds)
	if c == nil {
		return
	}
	for i := 0; i <= c.level; i++ {
		if preds[i].next[i].Load() == c {
			preds[i].next[i].Store(c.next[i].Load())
		}
	}
}

func (s *seqSkip[V]) len() int {
	n := 0
	for c := s.head.next[0].Load(); c != nil; c = c.next[0].Load() {
		n++
	}
	return n
}
