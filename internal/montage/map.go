package montage

import (
	"math/bits"

	"medley/internal/core"
	"medley/internal/pnvm"
	"medley/internal/structures/fskiplist"
	"medley/internal/structures/mhash"
	"medley/internal/txmap"
)

// Codec converts values to and from payload bytes.
type Codec[V any] struct {
	Enc func(V) []byte
	Dec func([]byte) V
}

// Uint64Codec is the codec used by the paper's microbenchmarks (8-byte
// integer values).
func Uint64Codec() Codec[uint64] {
	return Codec[uint64]{
		Enc: func(v uint64) []byte {
			var b [8]byte
			for i := 0; i < 8; i++ {
				b[i] = byte(v >> (8 * i))
			}
			return b[:]
		},
		Dec: func(b []byte) uint64 {
			var v uint64
			for i := 0; i < 8 && i < len(b); i++ {
				v |= uint64(b[i]) << (8 * i)
			}
			return v
		},
	}
}

// entry is an index entry: the transient value plus its NVM payload id.
type entry[V any] struct {
	val V
	pid uint64
}

// Map is a persistent transactional map: a transient Medley index (skiplist
// or hash table) over NVM payloads, following the nbMontage split of
// "payloads persist, indices rebuild". With the epoch systems' clock
// Attach'ed to the TxManager, transactions over Map are fully ACID
// (txMontage).
//
// A map spans every device of its domain with one index: each key's payloads
// are written and retired on the device the key routes to (DeviceOf), so a
// key's records sit on one device only and a read never routes at all. What
// several devices buy is parallel persistence, not a smaller index.
type Map[V any] struct {
	idx interface {
		txmap.Map[entry[V]]
		Range(f func(uint64, entry[V]) bool)
	}
	es    []*EpochSys // the domain's systems, all on one clock
	codec Codec[V]
}

var _ txmap.Map[uint64] = (*Map[uint64])(nil)

// NewSkipMap creates a persistent map over the epoch systems of one domain,
// indexed by a Medley skiplist.
func NewSkipMap[V any](es []*EpochSys, codec Codec[V]) *Map[V] {
	return &Map[V]{idx: fskiplist.New[uint64, entry[V]](), es: es, codec: codec}
}

// NewHashMap creates a persistent map over the epoch systems of one domain,
// indexed by a Medley hash table with nbuckets chains.
func NewHashMap[V any](es []*EpochSys, codec Codec[V], nbuckets int) *Map[V] {
	return &Map[V]{idx: mhash.NewUint64[entry[V]](nbuckets), es: es, codec: codec}
}

// DeviceOf routes a key to its device among n: Fibonacci hashing spreads
// sequential keys uniformly, and the multiply-high range reduction maps the
// hash onto [0, n) without the integer division a modulo would cost on every
// write.
func DeviceOf(k uint64, n int) int {
	h := k * 0x9e3779b97f4a7c15
	h ^= h >> 32
	hi, _ := bits.Mul64(h, uint64(n))
	return int(hi)
}

// sys is the epoch system of k's device.
func (m *Map[V]) sys(k uint64) *EpochSys { return m.es[DeviceOf(k, len(m.es))] }

// Get returns the value bound to k, if any. Reads touch only the transient
// index — NVM stays off the read path, as in nbMontage.
func (m *Map[V]) Get(s *core.Session, k uint64) (V, bool) {
	e, ok := m.idx.Get(s, k)
	if !ok {
		var zero V
		return zero, false
	}
	return e.val, true
}

// Put binds k to v, returning the previous value if k was present.
func (m *Map[V]) Put(s *core.Session, k uint64, v V) (V, bool) {
	if !s.InTx() {
		// Run as a single-operation transaction so the payload provably
		// linearizes in its tagged epoch (nbMontage's per-operation epoch
		// check).
		var old V
		var replaced bool
		_ = s.Run(func() error {
			old, replaced = m.Put(s, k, v)
			return nil
		})
		return old, replaced
	}
	es := m.sys(k)
	epoch := es.TxEpoch(s)
	pid := es.PNew(s.ID(), k, m.codec.Enc(v), epoch)
	s.OnAbort(func() { es.UnNew(pid) })
	old, replaced := m.idx.Put(s, k, entry[V]{val: v, pid: pid})
	if replaced {
		retire(s, es, old.pid, epoch)
		return old.val, true
	}
	var zero V
	return zero, false
}

// Insert adds k→v only if absent, reporting whether insertion happened.
func (m *Map[V]) Insert(s *core.Session, k uint64, v V) bool {
	if !s.InTx() {
		var ok bool
		_ = s.Run(func() error {
			ok = m.Insert(s, k, v)
			return nil
		})
		return ok
	}
	es := m.sys(k)
	epoch := es.TxEpoch(s)
	pid := es.PNew(s.ID(), k, m.codec.Enc(v), epoch)
	if !m.idx.Insert(s, k, entry[V]{val: v, pid: pid}) {
		// Key present: the speculative payload is unused either way.
		es.UnNew(pid)
		return false
	}
	s.OnAbort(func() { es.UnNew(pid) })
	return true
}

// Remove deletes k, returning its value if present.
func (m *Map[V]) Remove(s *core.Session, k uint64) (V, bool) {
	if !s.InTx() {
		var old V
		var ok bool
		_ = s.Run(func() error {
			old, ok = m.Remove(s, k)
			return nil
		})
		return old, ok
	}
	old, ok := m.idx.Remove(s, k)
	if !ok {
		var zero V
		return zero, false
	}
	es := m.sys(k)
	retire(s, es, old.pid, es.TxEpoch(s))
	return old.val, true
}

// retire marks a payload on es retired as of the transaction's epoch. The
// mark is written in post-commit cleanup, never speculatively: a doomed transaction
// that raced with (and was aborted by) the payload's real retirer must not
// be able to clobber the committed mark. The session's epoch pin is held
// until cleanups finish (core.Session.finish), so the mark always joins the
// transaction's own epoch batch before that batch can flush.
func retire(s *core.Session, es *EpochSys, pid, epoch uint64) {
	sid := s.ID()
	s.AddToCleanups(func() { es.PRetire(sid, pid, epoch) })
}

// Range calls f on each present pair until f returns false. Non-linearizable:
// each pair as it stood at some instant of the walk.
func (m *Map[V]) Range(f func(uint64, V) bool) {
	m.idx.Range(func(k uint64, e entry[V]) bool { return f(k, e.val) })
}

// Rebuild binds every recovered payload (each device's pnvm.Recovery.Live,
// in device order) into the index of a freshly created map. Single-threaded,
// as in post-crash recovery: new threads, quiesced system.
func (m *Map[V]) Rebuild(live ...[]pnvm.Record) {
	s := core.NewTxManager().Session() // plain, non-transactional rebuild
	for _, dev := range live {
		for _, r := range dev {
			m.idx.Put(s, r.Key, entry[V]{val: m.codec.Dec(r.Val), pid: r.ID})
		}
	}
}
