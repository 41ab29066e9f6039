package montage

import (
	"encoding/binary"
	"math/bits"

	"medley/internal/core"
	"medley/internal/pnvm"
	"medley/internal/structures/fskiplist"
	"medley/internal/structures/mhash"
	"medley/internal/txmap"
)

// Codec converts values to and from payload bytes. Enc appends v's encoding
// to dst and returns the extended slice, as the append built-in does; it
// keeps no reference to dst. A Map encodes every write into one buffer of its
// session's, reused from write to write, and the device copies the bytes
// (pnvm.Device.Write), so once that buffer has grown a write allocates
// nothing for its payload. Dec should not keep b: a dump's values are carved
// from one allocation, which a kept slice would hold whole.
type Codec[V any] struct {
	Enc func(dst []byte, v V) []byte
	Dec func(b []byte) V
}

// Uint64Codec is the codec used by the paper's microbenchmarks (8-byte
// integer values, little-endian: a payload a device line holds in place).
func Uint64Codec() Codec[uint64] {
	return Codec[uint64]{
		Enc: binary.LittleEndian.AppendUint64,
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
// "payloads persist, indices rebuild". Its writes run under a TxManager
// that its domain is attached to (Domain.Attach), and transactions over Map
// are then fully ACID (txMontage); a write under any other manager panics.
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
	devs  []*device // the domain's, in routing order
	codec Codec[V]
}

var _ txmap.Map[uint64] = (*Map[uint64])(nil)

// NewSkipMap creates a persistent map over the devices of d, indexed by a
// Medley skiplist.
func NewSkipMap[V any](d *Domain, codec Codec[V]) *Map[V] {
	return &Map[V]{idx: fskiplist.New[uint64, entry[V]](), devs: d.devs, codec: codec}
}

// NewHashMap creates a persistent map over the devices of d, indexed by a
// Medley hash table with nbuckets chains.
func NewHashMap[V any](d *Domain, codec Codec[V], nbuckets int) *Map[V] {
	return &Map[V]{idx: mhash.NewUint64[entry[V]](nbuckets), devs: d.devs, codec: codec}
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

// device is k's device.
func (m *Map[V]) device(k uint64) *device { return m.devs[DeviceOf(k, len(m.devs))] }

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

// Put binds k to v, returning the previous value if k was present. Inside
// a transaction it writes the new payload on k's device, tagged with the
// transaction's epoch, and lists it and the payload it supersedes in the
// session's pin: the layer's End deletes the one if the transaction aborts
// and, if it commits, hands the other to the flush of its epoch, which marks
// it retired. It panics if the session's manager was never attached (pinOf).
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
	p, dv := pinOf(s), m.device(k)
	p.buf = m.codec.Enc(p.buf[:0], v)
	pid := p.pNew(dv, k, p.buf)
	p.created = append(p.created, payloadRef{dv, pid})
	old, replaced := m.idx.Put(s, k, entry[V]{val: v, pid: pid})
	if replaced {
		p.superseded = append(p.superseded, payloadRef{dv, old.pid})
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
	p, dv := pinOf(s), m.device(k)
	p.buf = m.codec.Enc(p.buf[:0], v)
	pid := p.pNew(dv, k, p.buf)
	if !m.idx.Insert(s, k, entry[V]{val: v, pid: pid}) {
		// Key present: the speculative payload is unused either way.
		dv.dev.Delete(pid)
		return false
	}
	p.created = append(p.created, payloadRef{dv, pid})
	return true
}

// Remove deletes k, returning its value if present. The removed payload is
// marked retired at the transaction's epoch once it commits, as Put's
// superseded one is.
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
	p := pinOf(s)
	old, ok := m.idx.Remove(s, k)
	if !ok {
		var zero V
		return zero, false
	}
	p.superseded = append(p.superseded, payloadRef{m.device(k), old.pid})
	return old.val, true
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
