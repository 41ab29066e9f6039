// Package pnvm simulates a byte-addressable nonvolatile memory device.
//
// The Medley paper evaluates txMontage and OneFile on Intel Optane DCPMM.
// This repository has no NVM, so pnvm supplies the closest synthetic
// equivalent that exercises the same code paths:
//
//   - Writes destined for NVM incur a configurable extra latency (Optane
//     media writes cost several times a DRAM write; see Izraelevitz et al.,
//     "Basic Performance Measurements of the Intel Optane DC PMM").
//   - Write-back (clwb) and fence (sfence) instructions are modelled as
//     explicit calls with their own latencies, so persistence strategies
//     that differ only in *when* they flush (eager per-write vs. periodic
//     batches off the critical path) differ in measured cost exactly as on
//     real hardware.
//   - Durability is modelled honestly: a record is durable only after the
//     device has acknowledged a write-back for it. Crash() discards
//     everything else; Recover() returns the survivors. This lets tests
//     verify buffered durable strict serializability end to end.
//
// The record store is sharded so that the simulation itself scales like a
// DIMM (per-line independence) rather than like a global lock. A shard is a
// slab: lines in fixed-size chunks that are never moved, a free list of slot
// numbers and a mutex. A record's id is its address, as a payload's handle is
// on real NVM: serial<<26 | slot<<6 | shard (the arithmetic is at serialBits).
// Nothing is looked up; an id whose record is gone names a slot that is empty
// or holds another id, and finds nothing.
// A record lives on the shard its key hashes to (shardOf), and a shard counts
// its serials and stores under the lock a store takes anyway; the shards are
// whole cache lines at the head of the Device, so stores to two shards share
// no line. Serials grow with allocation order only within a shard, which is
// all recovery's "newest id wins" (liveAt) needs: it compares records of one
// key, and those all sit on the key's shard, MarkerKey's included.
//
// WriteBackAll and DeleteAll are the grouped forms of WriteBack and Delete,
// for callers that settle many records at once (montage's epoch flush and
// reclaim): they group the ids by shard in place, in one counting pass
// without sorting or allocating, and take each shard's lock once per group
// instead of once per record. WriteBackAll can also store a retire mark
// with each write-back, and that is the only way a mark reaches media: a
// mark is durable from the moment it is stored, and a crash only drops
// records no write-back reached. WriteBack and Delete are the one-id case of
// the same shard-level code, and what either form counts in Stats, stores
// and reports is what the other does id by id (TestGroupedFormsMatchOneByOne).
//
// A line is one 64-byte cache line and holds no pointer, so a chunk of lines
// is one pointer-free 16 KiB allocation the collector never scans, and every
// line is cache-line aligned. A payload of up to 8 bytes (a uint value) sits
// in its line; a longer one (a TPC-C row) sits in the shard's side slab, a
// payload slice per slot in chunks parallel to the lines', of which a chunk
// exists only once a long payload has landed in it. Write copies its payload
// either way: the caller may reuse its buffer as soon as Write returns.
//
// The device stores opaque records (key, value bytes, epoch tags). What the
// tags count — montage epochs, POneFile commit serials — is the persistence
// layer's business; what they mean after a crash is not: both layers end a
// unit of durability with a marker under MarkerKey, and RecoverDomain
// (recover.go) is the one recovery rule over them.
package pnvm

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"medley/internal/chaos"
)

// Fault-injection points on the media path. pnvm.write fires inside every
// record store (payloads and cut markers alike), so a crash armed there
// lands at whatever instant of a higher-level protocol first touches media;
// pnvm.writeback fires before every write-back takes its shard's lock: once a
// WriteBack, once a shard's group of a WriteBackAll. A crash fault there
// crashes the device, which takes every shard's lock, so it must not fire
// under one. The write-back paths have no error channel, so only crash/delay
// faults are meaningful there.
var (
	cpWrite     = chaos.At("pnvm.write")
	cpWriteBack = chaos.At("pnvm.writeback")
)

// Latencies configures the simulated device timing. Zero values mean "free"
// (useful in unit tests); NewDefault uses Optane-flavoured defaults.
type Latencies struct {
	Write     time.Duration // extra cost of a store to NVM media
	WriteBack time.Duration // clwb of one cache line
	Fence     time.Duration // sfence
}

// DefaultLatencies approximates the relative costs measured on Optane:
// NVM stores ~2-3x DRAM, clwb ~100ns effective, sfence ~30ns.
func DefaultLatencies() Latencies {
	return Latencies{
		Write:     60 * time.Nanosecond,
		WriteBack: 100 * time.Nanosecond,
		Fence:     30 * time.Nanosecond,
	}
}

// Record is one opaque persistent record, as a dump (Recover) hands it out.
type Record struct {
	ID     uint64 // allocation id (unique per record)
	Key    uint64
	Val    []byte
	Epoch  uint64 // creation epoch
	Retire uint64 // retirement epoch; 0 = live
}

// A record id is serial<<26 | slot<<6 | shard, 64 bits in all:
//
//	shard   6 bits  id%nShards, the device shard the record lives on
//	slot   20 bits  its line's index in that shard's slab: 1 Mi lines a shard,
//	                64 Mi records a device
//	serial 38 bits  the shard's allocation counter, from 1: ids are unique for
//	                the life of the device and grow with allocation order on
//	                their shard, and a slot's next owner never answers to the
//	                last one's id; 2.7e11 stores a shard
//
// Running out of either is a panic in Write, never a wrap.
const (
	shardBits  = 6
	slotBits   = 20
	serialBits = 64 - slotBits - shardBits

	nShards       = 1 << shardBits
	slotsPerShard = 1 << slotBits
	maxSerial     = 1<<serialBits - 1

	// chunkLines is how many lines a slab grows by: 256 of them are 16 KiB,
	// one allocation, and at 100 000 records a device the unused tail of each
	// shard's last chunk is an eighth of the slab (core's
	// TestBudgetResidentKey does the arithmetic); at 1024 it was a third.
	chunkLines = 256

	// inlineBytes is the longest payload a line holds in place.
	inlineBytes = 8
	// long in line.n marks a payload held in the side slab.
	long = inlineBytes + 1
)

// line is everything the device keeps for one record, retired or not, but a
// payload longer than inlineBytes: one 64-byte, pointer-free element of its
// shard's slab (TestLineSize, TestLineHoldsNoPointer). An empty slot is the
// zero line; no record has id 0.
type line struct {
	// id is the record's, so that an id whose record was dropped finds nothing
	// here once the slot has a new owner.
	id    uint64
	key   uint64
	epoch uint64
	// mark is volatile until a write-back reaches the record, and the
	// record's durable retire mark (0 = live) after that: a mark is only
	// ever stored with a write-back.
	mark uint64
	// val[:n] is the payload, or n is long and the payload is the slot's
	// entry in the shard's side slab.
	val [inlineBytes]byte
	n   uint8
	_   [64 - 4*8 - inlineBytes - 1]byte // pad to one cache line
}

// volatile in line.mark marks a record no write-back has reached. Retire
// marks count epochs or commit serials up from small numbers.
const volatile = ^uint64(0)

// lift clears a durable retire mark, which needs no write-back of its own:
// the un-retire of an aborted commit or of a recovery that discards the
// mark's unit. A record no write-back has reached has no mark to lift.
func (r *line) lift() {
	if r.mark != volatile {
		r.mark = 0
	}
}

// shard holds a slice of the record space under its own lock, standing in
// for the line-level independence of a real DIMM. Slot i is
// chunks[i/chunkLines][i%chunkLines]. The slots below next have been handed
// out, and each of them either holds a record (line.id != 0; live counts
// them) or is on free.
type shard struct {
	mu     sync.Mutex
	chunks []*[chunkLines]line
	// side[i/chunkLines][i%chunkLines] is slot i's payload when it is long.
	// side grows, and a chunk of it is allocated, only when a long payload
	// lands in that chunk's slots.
	side []*[chunkLines][]byte
	next uint32
	live int
	// bytes is the payload held by the live records, which Recover carves
	// its dump's values from in one allocation.
	bytes int
	// free holds the slots of dropped records, their lines zeroed, for Write
	// to reuse: in steady state a store allocates nothing on the device's
	// account.
	free []uint32
	// The last serial handed out here, and the stores and clwbs for Stats.
	serial, writes, writeBacks uint64
}

func (s *shard) at(slot uint32) *line { return &s.chunks[slot/chunkLines][slot%chunkLines] }

// payload returns r's payload, where it is kept; r is at slot.
func (s *shard) payload(slot uint32, r *line) []byte {
	if r.n == long {
		return s.side[slot/chunkLines][slot%chunkLines]
	}
	return r.val[:r.n]
}

func slotOf(id uint64) uint32 { return uint32(id >> shardBits & (slotsPerShard - 1)) }

// find returns record id's line, or nil if the record is not (or no longer)
// on the shard: the slot the id names was never handed out, is empty, or
// belongs to a later record. The caller holds s.mu.
func (s *shard) find(id uint64) *line {
	slot := slotOf(id)
	if id == 0 || slot >= s.next {
		return nil
	}
	if r := s.at(slot); r.id == id {
		return r
	}
	return nil
}

// take hands out a slot for a new record, a freed one first. The caller
// holds s.mu.
func (s *shard) take() uint32 {
	if n := len(s.free); n > 0 {
		slot := s.free[n-1]
		s.free = s.free[:n-1]
		return slot
	}
	if s.next == slotsPerShard {
		panic("pnvm: device shard full: 1<<20 records")
	}
	if s.next%chunkLines == 0 {
		s.chunks = append(s.chunks, new([chunkLines]line))
	}
	s.next++
	return s.next - 1
}

// store puts a new record in slot, copying its payload into the line or,
// when it is long, into the slot's side entry. The caller holds s.mu.
func (s *shard) store(slot uint32, id, key uint64, val []byte, epoch uint64) {
	r := s.at(slot)
	*r = line{id: id, key: key, epoch: epoch, mark: volatile}
	if len(val) <= inlineBytes {
		r.n = uint8(copy(r.val[:], val))
	} else {
		r.n = long
		ci := int(slot / chunkLines)
		for len(s.side) <= ci {
			s.side = append(s.side, nil)
		}
		if s.side[ci] == nil {
			s.side[ci] = new([chunkLines][]byte)
		}
		s.side[ci][slot%chunkLines] = append([]byte(nil), val...)
	}
	s.live++
	s.bytes += len(val)
}

// drop removes record id, if it is there, and hands its slot to the free
// list; a second drop of the same id finds nothing. Zeroing the line and its
// side entry releases the payload and leaves the next owner no payload,
// durability or retire mark to inherit. The caller holds s.mu.
func (s *shard) drop(id uint64) {
	slot := slotOf(id)
	if r := s.find(id); r != nil {
		s.bytes -= len(s.payload(slot, r))
		if r.n == long {
			s.side[slot/chunkLines][slot%chunkLines] = nil
		}
		*r = line{}
		s.free = append(s.free, slot)
		s.live--
	}
}

// each calls f on every record of the shard, in slot order; f may drop the
// record it is given. The caller holds s.mu.
func (s *shard) each(f func(slot uint32, r *line)) {
	for slot := uint32(0); slot < s.next; slot++ {
		if r := s.at(slot); r.id != 0 {
			f(slot, r)
		}
	}
}

// Device is a simulated NVM DIMM. All methods are safe for concurrent use.
type Device struct {
	shards  [nShards]shard // first, so that each starts a cache line (TestShardLayout)
	lat     Latencies
	fences  atomic.Uint64
	crashed atomic.Bool
}

// New creates a device with the given latencies.
func New(lat Latencies) *Device { return &Device{lat: lat} }

// NewDefault creates a device with Optane-flavoured latencies.
func NewDefault() *Device { return New(DefaultLatencies()) }

func (d *Device) shard(id uint64) *shard { return &d.shards[id%nShards] }

// shardOf is the shard key's records live on: Fibonacci hashing, whose top
// bits montage.DeviceOf routes by too, so at n devices a device's keys fill
// 64/n of its shards, densely; a device-blind hash left more chunks part-full.
func shardOf(key uint64) uint64 { return key * 0x9e3779b97f4a7c15 >> (64 - shardBits) }

// spin models device latency without yielding the processor (matching the
// synchronous nature of clwb/sfence on the store path).
func spin(dur time.Duration) {
	if dur <= 0 {
		return
	}
	t0 := time.Now()
	for time.Since(t0) < dur {
	}
}

// ErrCrashed is returned by operations attempted after Crash.
var ErrCrashed = errors.New("pnvm: device crashed; call Recover")

// Write stores a new record to media (not yet durable) and returns its id.
// It copies val, which the caller may reuse once Write returns. Models the
// NVM store cost. Like every store it tests for a crash under the
// shard lock, which orders it against Crash()'s scan of the same shard: a
// store that passed the test before the lock could land after the scan and
// leave a never-written-back record on post-crash media for Recover to hand
// out.
func (d *Device) Write(key uint64, val []byte, epoch uint64) (uint64, error) {
	if err := cpWrite.Hit(); err != nil {
		return 0, err
	}
	spin(d.lat.Write)
	i := shardOf(key)
	s := &d.shards[i]
	s.mu.Lock()
	if d.crashed.Load() {
		s.mu.Unlock()
		return 0, ErrCrashed
	}
	if s.serial == maxSerial {
		panic("pnvm: device shard out of record ids: 1<<38 stores")
	}
	s.serial++
	slot := s.take()
	id := s.serial<<(slotBits+shardBits) | uint64(slot)<<shardBits | i
	s.store(slot, id, key, val, epoch)
	s.writes++
	s.mu.Unlock()
	return id, nil
}

// UnRetire lifts record id's durable retire mark: an aborting commit's. Like
// Delete it is a no-op on crashed media: an abort racing the crash must not
// scrub a mark the crash already froze.
func (d *Device) UnRetire(id uint64) {
	s := d.shard(id)
	s.mu.Lock()
	if r := s.find(id); r != nil && !d.crashed.Load() {
		r.lift()
	}
	s.mu.Unlock()
}

// Delete removes a record outright (used to undo allocations of aborted
// transactions before they are ever durable, and to drop superseded
// metadata). It is DeleteAll of one id.
func (d *Device) Delete(id uint64) { d.delete(d.shard(id), []uint64{id}, nil) }

// DeleteAll removes the records ids name, those that are there, taking each
// device shard's lock once for all of its ids (groups). On a crashed device
// it is a no-op: post-crash media must not be mutated until Recover — in
// particular, a flush racing the crash must not erase the durable frontier
// marker it was about to supersede. The check happens under the shard lock,
// so it is ordered against Crash()'s scan of the same shard. A non-nil after
// is hit once a shard's group is gone, outside the lock, so that a crash
// fault there (which takes every shard's lock) stops the pass between two
// groups.
func (d *Device) DeleteAll(ids []uint64, after *chaos.Point) {
	b := groups(ids)
	for i := range d.shards {
		if g := ids[b[i]:b[i+1]]; len(g) > 0 {
			d.delete(&d.shards[i], g, after)
		}
	}
}

// delete is Delete and DeleteAll on one shard's group g.
func (d *Device) delete(s *shard, g []uint64, after *chaos.Point) {
	s.mu.Lock()
	if !d.crashed.Load() {
		for _, id := range g {
			s.drop(id)
		}
	}
	s.mu.Unlock()
	if after != nil {
		after.Hit() // no error channel: crash/delay faults only
	}
}

// WriteBack makes record id durable (clwb). Idempotent. It reports whether
// the record was there to write back, and the retire mark that is durable
// with it (0 = durably live): from that epoch on no recovery cut can find the
// record live, which is what a reclaimer needs to know (montage's epoch
// rule). It is WriteBackAll of one id, without a mark.
func (d *Device) WriteBack(id uint64) (retired uint64, durable bool) {
	d.writeBack(d.shard(id), []uint64{id}, 0, func(_, r uint64) { retired, durable = r, true })
	return retired, durable
}

// WriteBackAll writes back the records ids name (clwb), taking each device
// shard's lock once for all of its ids (groups). With a nonzero retire it
// also marks each record retired as of that epoch, so that the mark and the
// record become durable in one step: one store and one write-back an id in
// Stats. On a crashed device no mark is stored, and the write-back changes
// nothing. f, if not nil, is called with each record that
// was there and the retire mark now durable with it, as WriteBack reports
// them; it runs under the shard's lock and must not call the device.
// pnvm.writeback is hit once a group, before its lock.
func (d *Device) WriteBackAll(ids []uint64, retire uint64, f func(id, retired uint64)) {
	b := groups(ids)
	for i := range d.shards {
		if g := ids[b[i]:b[i+1]]; len(g) > 0 {
			d.writeBack(&d.shards[i], g, retire, f)
		}
	}
}

// writeBack is WriteBack and WriteBackAll on one shard's group g.
func (d *Device) writeBack(s *shard, g []uint64, retire uint64, f func(id, retired uint64)) {
	cpWriteBack.Hit() // no error channel: crash/delay faults only
	cost := d.lat.WriteBack
	if retire != 0 {
		cost += d.lat.Write
	}
	spin(time.Duration(len(g)) * cost)
	s.mu.Lock()
	mark := retire != 0 && !d.crashed.Load() // under the lock, as in Write
	for _, id := range g {
		r := s.find(id)
		if r == nil {
			continue
		}
		if mark {
			r.mark = retire
		} else if r.mark == volatile {
			r.mark = 0
		}
		if f != nil {
			f(id, r.mark)
		}
	}
	if mark {
		s.writes += uint64(len(g))
	}
	s.writeBacks += uint64(len(g))
	s.mu.Unlock()
}

// groups permutes ids in place so that each device shard's ids lie together,
// in shard order, and returns the bounds: shard i's group is
// ids[b[i]:b[i+1]]. A counting pass sizes the groups, and then every swap
// puts one id into its group's next free place for good: O(len(ids)), no
// allocation, no sort.
func groups(ids []uint64) (b [nShards + 1]int) {
	for _, id := range ids {
		b[id%nShards+1]++
	}
	var next [nShards]int
	for i := range next {
		b[i+1] += b[i]
		next[i] = b[i]
	}
	for i := range next {
		for next[i] < b[i+1] {
			if j := ids[next[i]] % nShards; j != uint64(i) {
				ids[next[i]], ids[next[j]] = ids[next[j]], ids[next[i]]
				next[j]++
			} else {
				next[i]++
			}
		}
	}
	return b
}

// Fence orders prior write-backs (sfence).
func (d *Device) Fence() {
	spin(d.lat.Fence)
	d.fences.Add(1)
}

// Crash simulates a full-system crash: every record no write-back reached is
// lost. Subsequent Writes fail until Recover is called.
func (d *Device) Crash() {
	d.crashed.Store(true)
	d.each(func(s *shard) {
		s.each(func(_ uint32, r *line) {
			if r.mark == volatile {
				s.drop(r.id)
			}
		})
	})
}

// Recover returns the surviving records (durable creations, with durable
// retirement marks applied) and reopens the device for use. The records'
// values are copies, carved from one allocation; a record with an empty
// payload has a nil Val.
func (d *Device) Recover() []Record {
	// Sized once: a dump is hundreds of thousands of records.
	n, b := d.usage()
	out, vals := make([]Record, 0, n), make([]byte, 0, b)
	d.each(func(s *shard) {
		s.each(func(slot uint32, r *line) {
			var val []byte
			if p := s.payload(slot, r); len(p) > 0 {
				vals = append(vals, p...)
				val = vals[len(vals)-len(p) : len(vals) : len(vals)]
			}
			out = append(out, Record{ID: r.id, Key: r.key, Val: val, Epoch: r.epoch, Retire: r.mark})
		})
	})
	d.crashed.Store(false)
	return out
}

// DumpAll crashes every device of a multi-device domain and returns their
// post-crash record dumps, index-aligned with devs — the input shape of
// multi-device recovery (txengine.Persister.RecoverUintMap). Crashing the
// whole fleet before recovering any single device models a full-system
// power failure: no device gets to flush after another has already lost
// state.
func DumpAll(devs []*Device) [][]Record {
	for _, d := range devs {
		d.Crash()
	}
	dumps := make([][]Record, len(devs))
	for i, d := range devs {
		dumps[i] = d.Recover()
	}
	return dumps
}

// Live returns the number of records on media (diagnostic).
func (d *Device) Live() int {
	n, _ := d.usage()
	return n
}

// usage returns the number of records on media and their payload bytes.
func (d *Device) usage() (records, bytes int) {
	d.each(func(s *shard) { records, bytes = records+s.live, bytes+s.bytes })
	return records, bytes
}

// Stats reports operation counters.
func (d *Device) Stats() (writes, writeBacks, fences uint64) {
	d.each(func(s *shard) { writes, writeBacks = writes+s.writes, writeBacks+s.writeBacks })
	return writes, writeBacks, d.fences.Load()
}

// each calls f on every shard under its lock.
func (d *Device) each(f func(s *shard)) {
	for i := range d.shards {
		s := &d.shards[i]
		s.mu.Lock()
		f(s)
		s.mu.Unlock()
	}
}
