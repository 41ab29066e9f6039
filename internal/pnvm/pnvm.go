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
// DIMM (per-line independence) rather than like a global lock.
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
// pnvm.writeback fires inside every clwb. WriteBack has no error channel, so
// only crash/delay faults are meaningful there.
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

const nShards = 64

// line is everything the device keeps for one record, in one object the size
// of a cache line (TestLineSize): a record costs its shard's map one entry and
// nothing else, retired or not. The id is the map key and is not
// repeated here.
type line struct {
	key   uint64
	val   []byte
	epoch uint64
	// retire is the retire mark on media, possibly volatile (0 = live), and
	// claim names the transaction that wrote it, so that only it can lift it.
	retire, claim uint64
	// persisted is what a crash keeps: volatile while the record was never
	// written back, else the retire mark as of the last write-back.
	persisted uint64
}

// volatile in line.persisted marks a record no write-back has reached. Retire
// marks count epochs or commit serials up from small numbers.
const volatile = ^uint64(0)

// lift clears the retire mark outright, the durable copy included: the
// un-retire of an aborted commit or of a recovery that discards the mark's
// unit needs no write-back of its own.
func (r *line) lift() {
	r.retire, r.claim = 0, 0
	if r.persisted != volatile {
		r.persisted = 0
	}
}

// shard holds a slice of the record space under its own lock, standing in
// for the line-level independence of a real DIMM.
type shard struct {
	mu    sync.Mutex
	lines map[uint64]*line
	// free holds the objects of dropped records, zeroed, for Write to reuse:
	// in steady state a store allocates nothing on the device's account.
	free []*line
}

// drop removes record id, if it is there, and hands its object to the free
// list; a second drop of the same id finds nothing. Zeroing releases the
// payload bytes and leaves the next owner no durability, retire mark or claim
// to inherit. The caller holds s.mu.
func (s *shard) drop(id uint64) {
	if r, ok := s.lines[id]; ok {
		delete(s.lines, id)
		*r = line{}
		s.free = append(s.free, r)
	}
}

// Device is a simulated NVM DIMM. All methods are safe for concurrent use.
type Device struct {
	lat    Latencies
	shards [nShards]shard
	nextID atomic.Uint64

	writes     atomic.Uint64
	writeBacks atomic.Uint64
	fences     atomic.Uint64

	crashed atomic.Bool
}

// New creates a device with the given latencies.
func New(lat Latencies) *Device {
	d := &Device{lat: lat}
	for i := range d.shards {
		d.shards[i].lines = make(map[uint64]*line)
	}
	return d
}

// NewDefault creates a device with Optane-flavoured latencies.
func NewDefault() *Device { return New(DefaultLatencies()) }

func (d *Device) shard(id uint64) *shard { return &d.shards[id%nShards] }

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
// Models the NVM store cost.
func (d *Device) Write(key uint64, val []byte, epoch uint64) (uint64, error) {
	if err := cpWrite.Hit(); err != nil {
		return 0, err
	}
	if d.crashed.Load() {
		return 0, ErrCrashed
	}
	spin(d.lat.Write)
	id := d.nextID.Add(1)
	s := d.shard(id)
	s.mu.Lock()
	var r *line
	if n := len(s.free); n > 0 {
		r, s.free = s.free[n-1], s.free[:n-1]
	} else {
		r = new(line)
	}
	*r = line{key: key, val: val, epoch: epoch, persisted: volatile}
	s.lines[id] = r
	s.mu.Unlock()
	d.writes.Add(1)
	return id, nil
}

// Retire marks a record retired as of the given epoch (a store to the
// record's metadata; not yet durable). claim identifies the retiring
// transaction so that only it can undo the mark.
func (d *Device) Retire(id uint64, epoch uint64, claim uint64) error {
	if d.crashed.Load() {
		return ErrCrashed
	}
	spin(d.lat.Write)
	s := d.shard(id)
	s.mu.Lock()
	if r, ok := s.lines[id]; ok {
		r.retire, r.claim = epoch, claim
	}
	s.mu.Unlock()
	d.writes.Add(1)
	return nil
}

// UnRetire clears a retire mark, but only if it is still owned by claim
// (an aborting transaction must not clear a successor's mark). Like Delete
// it is a no-op on crashed media: an abort racing the crash must not scrub
// a mark the crash already froze.
func (d *Device) UnRetire(id uint64, claim uint64) {
	s := d.shard(id)
	s.mu.Lock()
	if r, ok := s.lines[id]; ok && !d.crashed.Load() && r.claim == claim {
		r.lift()
	}
	s.mu.Unlock()
}

// Delete removes a record outright (used to undo allocations of aborted
// transactions before they are ever durable, and to drop superseded
// metadata). On a crashed device it is a no-op: post-crash media must not
// be mutated until Recover — in particular, a flush racing the crash must
// not erase the durable frontier marker it was about to supersede. The
// check happens under the shard lock, so it is ordered against Crash()'s
// scan of the same shard.
func (d *Device) Delete(id uint64) {
	s := d.shard(id)
	s.mu.Lock()
	if !d.crashed.Load() {
		s.drop(id)
	}
	s.mu.Unlock()
}

// WriteBack makes record id durable (clwb), its retire mark included.
// Idempotent. It reports whether the record was there to write back, and the
// retire mark that is durable with it (0 = durably live): from that epoch on
// no recovery cut can find the record live, which is what a reclaimer needs
// to know (montage's epoch rule).
func (d *Device) WriteBack(id uint64) (retired uint64, durable bool) {
	cpWriteBack.Hit() // no error channel: crash/delay faults only
	spin(d.lat.WriteBack)
	s := d.shard(id)
	s.mu.Lock()
	if r, ok := s.lines[id]; ok {
		r.persisted = r.retire
		retired, durable = r.retire, true
	}
	s.mu.Unlock()
	d.writeBacks.Add(1)
	return retired, durable
}

// Fence orders prior write-backs (sfence).
func (d *Device) Fence() {
	spin(d.lat.Fence)
	d.fences.Add(1)
}

// Crash simulates a full-system crash: every record or retirement mark that
// was not acknowledged durable is lost. Subsequent Writes fail until
// Recover is called.
func (d *Device) Crash() {
	d.crashed.Store(true)
	for i := range d.shards {
		s := &d.shards[i]
		s.mu.Lock()
		for id, r := range s.lines {
			if r.persisted == volatile {
				delete(s.lines, id)
			} else {
				r.retire = r.persisted
			}
		}
		s.mu.Unlock()
	}
}

// Recover returns the surviving records (durable creations, with durable
// retirement marks applied) and reopens the device for use.
func (d *Device) Recover() []Record {
	var out []Record
	for i := range d.shards {
		s := &d.shards[i]
		s.mu.Lock()
		for id, r := range s.lines {
			out = append(out, Record{ID: id, Key: r.key, Val: r.val, Epoch: r.epoch, Retire: r.retire})
		}
		s.mu.Unlock()
	}
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
	n := 0
	for i := range d.shards {
		s := &d.shards[i]
		s.mu.Lock()
		n += len(s.lines)
		s.mu.Unlock()
	}
	return n
}

// Stats reports operation counters.
func (d *Device) Stats() (writes, writeBacks, fences uint64) {
	return d.writes.Load(), d.writeBacks.Load(), d.fences.Load()
}
