package pnvm

import (
	"fmt"

	"medley/internal/chaos"
)

// MarkerKey is the reserved key of durable cut markers. Both persistence
// layers end a unit of durability with one: montage's epoch flush writes a
// marker whose Epoch is the flushed epoch ("every batch through this epoch
// is written back and fenced here"), POneFile's commit writes one whose
// Epoch is the commit serial. Payload keys must stay below it.
const MarkerKey = ^uint64(0)

// Fault-injection points inside recovery itself, in protocol order per
// device. A crash at any of them must leave media from which the next
// recovery computes the same cut and the same live set. The sites return
// nothing, so only crash/delay faults are meaningful.
var (
	cpRecoverScrub          = chaos.At("recover.scrub")           // after each device shard's scrub
	cpRecoverPreMarker      = chaos.At("recover.pre-marker")      // device scrubbed, fresh marker not written
	cpRecoverMarkerVolatile = chaos.At("recover.marker-volatile") // fresh marker written, not written back
	cpRecoverPostMarker     = chaos.At("recover.post-marker")     // fresh marker durable, stale ones still on media
	cpRecoverMidDevice      = chaos.At("recover.mid-device")      // after each device: the rest of the domain untouched
)

// Recovery is RecoverDomain's result, index-aligned with the devices.
type Recovery struct {
	Cut     uint64     // the domain's recovery cut
	Live    [][]Record // per device: the records live at Cut, one per key
	Markers []uint64   // per device: id of the one marker left on its media
}

// Cut returns the recovery cut of a domain from its post-crash dumps: the
// highest marker epoch on each device, minimised over the devices. State
// beyond it was durable on some devices but not all (or, on one device,
// belongs to a unit whose marker never became durable), so recovering it
// would tear a transaction. A device with no marker has cut 0: nothing on it
// is provably complete.
func Cut(dumps [][]Record) (cut uint64) {
	for i, d := range dumps {
		var f uint64
		for _, r := range d {
			if r.Key == MarkerKey && r.Epoch > f {
				f = r.Epoch
			}
		}
		if i == 0 || f < cut {
			cut = f
		}
	}
	return cut
}

// liveAt splits one device's dump at cut. live holds the records live at the
// cut: created at or before it and not retired at or before it. A retire
// mark beyond the cut belongs to a discarded unit and is lifted. Records
// carry only the raw key, so where a key has several live records (two
// structures that bound the same key, or an old recovery that re-put a key
// beside its record) the newest id wins. dead holds the ids of every other
// non-marker record — beyond the cut, durably retired, shadowed — bucketed
// by device shard for the scrub.
func liveAt(dump []Record, cut uint64) (live []Record, dead *[nShards][]uint64) {
	// Two passes, the first only counting: the dump may be mostly dead
	// records, and growing a slice of them by doubling costs more than
	// reading the dump twice.
	alive := func(r *Record) bool {
		return r.Epoch <= cut && (r.Retire == 0 || r.Retire > cut)
	}
	n := 0
	for i := range dump {
		if r := &dump[i]; r.Key != MarkerKey && alive(r) {
			n++
		}
	}
	live, dead = make([]Record, 0, n), new([nShards][]uint64)
	at := make(map[uint64]int, n) // key → index in live
	for _, r := range dump {
		if r.Key == MarkerKey {
			continue
		}
		if alive(&r) {
			r.Retire = 0
			i, dup := at[r.Key]
			if !dup {
				at[r.Key] = len(live)
				live = append(live, r)
				continue
			}
			if r.ID > live[i].ID {
				r, live[i] = live[i], r
			}
		}
		dead[r.ID%nShards] = append(dead[r.ID%nShards], r.ID)
	}
	return live, dead
}

// RecoverDomain is the one recovery pipeline: cut → live set → scrub →
// re-anchor. Given the reopened devices of one persistence domain and their
// post-crash dumps (DumpAll; index-aligned), it computes the cut and each
// device's live set from the dumps, then, device by device, scrubs the media
// down to exactly that live set, writes and fences one fresh marker at the
// cut, and only then deletes every other marker.
//
// The order makes every prefix of recovery idempotent. Scrubbing removes
// only what the cut already excludes, so it cannot change the live set;
// while it runs the old markers still fix the cut. The fresh marker repeats
// the cut, so once it is durable the device's older markers are redundant —
// and a device whose markers ran ahead of the domain keeps them until its
// own marker at the cut exists, which never raises the domain minimum
// because the device that set the minimum still carries it. Deleting a
// marker before its replacement is durable is the one order that is not
// safe: a crash in between leaves a device with no marker, the next
// recovery computes cut 0, and the scrub wipes the store.
//
// The caller holds whatever lock keeps its own marker writers (an epoch
// advancer, a committer) off the devices, and afterwards resumes its
// allocator past Cut and adopts Markers as the marker its next unit
// supersedes.
func RecoverDomain(devs []*Device, dumps [][]Record) (Recovery, error) {
	if len(dumps) != len(devs) {
		// Record ids are per-device counters: a foreign or missing dump would
		// alias ids and the scrub would corrupt media.
		return Recovery{}, fmt.Errorf("pnvm: recovery wants one dump per device: got %d dumps for %d devices", len(dumps), len(devs))
	}
	rec := Recovery{Cut: Cut(dumps), Live: make([][]Record, len(devs)), Markers: make([]uint64, len(devs))}
	for i, d := range devs {
		live, dead := liveAt(dumps[i], rec.Cut)
		marker, err := d.reanchor(rec.Cut, dead)
		if err != nil {
			return Recovery{}, fmt.Errorf("pnvm: recovery of device %d: %w", i, err)
		}
		rec.Live[i], rec.Markers[i] = live, marker
		cpRecoverMidDevice.Hit()
	}
	return rec, nil
}

// reanchor is RecoverDomain's media half for one device. One pass per device
// shard drops the shard's dead records by id and then reads what is left on
// the device — not the dump, so markers written after the dump was taken (an
// advancer that ticked between reattachment and recovery) are superseded
// too: markers are noted as stale, and every other record is live, so its
// retire mark, if it has one, lies beyond the cut and is lifted. Then the
// fresh marker, fenced; then the stale markers.
func (d *Device) reanchor(cut uint64, dead *[nShards][]uint64) (marker uint64, err error) {
	if d.crashed.Load() {
		return 0, ErrCrashed
	}
	var stale []uint64
	for i := range d.shards {
		s := &d.shards[i]
		s.mu.Lock()
		for _, id := range dead[i] {
			s.drop(id)
		}
		s.each(func(_ uint32, r *line) {
			if r.key == MarkerKey {
				stale = append(stale, r.id)
			} else {
				r.lift()
			}
		})
		s.mu.Unlock()
		cpRecoverScrub.Hit() // outside the lock: a crash action takes it
	}
	cpRecoverPreMarker.Hit()
	if marker, err = d.Write(MarkerKey, nil, cut); err != nil {
		return 0, err // every old marker is still on media: recovery can be rerun
	}
	cpRecoverMarkerVolatile.Hit()
	d.WriteBack(marker)
	d.Fence()
	cpRecoverPostMarker.Hit()
	for _, id := range stale {
		d.Delete(id)
	}
	return marker, nil
}
