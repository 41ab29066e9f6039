package pnvm

import (
	"cmp"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"medley/internal/allocs"
)

// groupMedia writes the same history on a fresh device every time it is
// called, so two calls build identical devices, and returns ids that name
// every state a slot can be in on every shard: records written back, durably
// retired and volatile; ids whose records were deleted, with
// their slots free or reused; ids that were never issued; and some of each
// twice, shuffled.
func groupMedia(t *testing.T) (*Device, []uint64) {
	d := New(Latencies{})
	durable, retired, volatile := lap(t, d, 0, 1, 3), lap(t, d, 1000, 2, 3), lap(t, d, 2000, 3, 3)
	for k := range durable {
		d.WriteBack(durable[k])
		d.WriteBackAll([]uint64{retired[k]}, 4, nil)
	}
	stale := lap(t, d, 3000, 4, 3)
	for _, id := range stale {
		d.Delete(id)
	}
	reused := lap(t, d, 4000, 5, 3) // takes the stale ids' slots
	deleted := lap(t, d, 5000, 6, 3)
	for _, id := range deleted {
		d.Delete(id)
	}
	var never []uint64
	for i := range uint64(nShards) {
		never = append(never,
			maxSerial<<(slotBits+shardBits)|uint64(slotOf(durable[i]))<<shardBits|i, // a slot in use, a serial not issued
			1<<(slotBits+shardBits)|4000<<shardBits|i)                               // a slot never handed out
	}
	ids := slices.Concat(durable, retired, volatile, stale, reused, deleted, never, retired[:9], volatile[:9], stale[:9], []uint64{0})
	rand.New(rand.NewPCG(1, 2)).Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	return d, ids
}

// slab copies out every line of the device, shard by shard.
func slab(d *Device) (lines []line) {
	d.each(func(s *shard) {
		for slot := range s.next {
			lines = append(lines, *s.at(slot))
		}
	})
	return lines
}

// reported is a write-back a callback saw: the record and its durable mark.
type reported struct{ id, retired uint64 }

func sorted(r []reported) []reported {
	return slices.SortedFunc(slices.Values(r), func(a, b reported) int {
		return cmp.Or(cmp.Compare(a.id, b.id), cmp.Compare(a.retired, b.retired))
	})
}

// The grouped forms do what their one-id forms do, one id after another:
// WriteBackAll without a mark is WriteBack, with one it is its one-id form,
// DeleteAll is Delete. On two identical devices, fed the
// same ids — every shard, every state a slot can be in, ids that name
// nothing — one id at a time on one and grouped on the other, the devices
// count the same stores and write-backs, report the same records with the
// same durable marks, hold the same lines, and recover the same records after
// a crash; and on a crashed device a grouped delete changes nothing, nor does
// a grouped write-back with a mark.
func TestGroupedFormsMatchOneByOne(t *testing.T) {
	a, ids := groupMedia(t)
	b, _ := groupMedia(t)
	same := func(step string) {
		t.Helper()
		wa, wba, fa := a.Stats()
		wb, wbb, fb := b.Stats()
		if wa != wb || wba != wbb || fa != fb {
			t.Fatalf("%s: one by one counted %d stores, %d write-backs, %d fences; grouped %d, %d, %d", step, wa, wba, fa, wb, wbb, fb)
		}
		if la, lb := slab(a), slab(b); !reflect.DeepEqual(la, lb) {
			t.Fatalf("%s: the devices' lines differ", step)
		}
		checkSlab(t, a)
		checkSlab(t, b)
	}
	writeBack := func(step string, ids []uint64, retire uint64) {
		t.Helper()
		var one, grouped []reported
		for _, id := range ids {
			if retire != 0 {
				a.WriteBackAll([]uint64{id}, retire, func(id, r uint64) { one = append(one, reported{id, r}) })
			} else if r, ok := a.WriteBack(id); ok {
				one = append(one, reported{id, r})
			}
		}
		b.WriteBackAll(slices.Clone(ids), retire, func(id, r uint64) { grouped = append(grouped, reported{id, r}) })
		if !slices.Equal(sorted(one), sorted(grouped)) {
			t.Fatalf("%s: one by one reported %d records, grouped %d, not the same ones with the same marks", step, len(one), len(grouped))
		}
		same(step)
	}
	deleteAll := func(step string, ids []uint64) {
		t.Helper()
		for _, id := range ids {
			a.Delete(id)
		}
		b.DeleteAll(slices.Clone(ids), nil)
		same(step)
	}
	n := len(ids)
	same("built")
	writeBack("write-back", ids[:n/2], 0)
	writeBack("write-back with a mark", ids[n/4:3*n/4], 9)
	deleteAll("delete", ids[n/2:7*n/8])

	a.Crash()
	b.Crash()
	same("crash")
	before := slab(b)
	b.DeleteAll(slices.Clone(ids), nil)
	if !reflect.DeepEqual(slab(b), before) {
		t.Fatal("a grouped delete changed a crashed device")
	}
	writeBack("write-back with a mark on crashed media", ids, 11)
	if !reflect.DeepEqual(slab(b), before) {
		t.Fatal("a grouped write-back with a mark changed a crashed device")
	}
	if ra, rb := a.Recover(), b.Recover(); len(ra) == 0 || !reflect.DeepEqual(ra, rb) {
		t.Fatalf("recovered %d records one by one and %d grouped, or they differ", len(ra), len(rb))
	}
}

// Grouping sorts nothing and allocates nothing: both grouped calls on 10 000
// ids over every shard.
func TestGroupedFormsAllocateNothing(t *testing.T) {
	if allocs.Race {
		t.Skip("the race detector allocates on its own account")
	}
	d, ids := New(Latencies{}), make([]uint64, 10_000)
	write := func() {
		for i := range ids {
			ids[i], _ = d.Write(uint64(i), []byte{1}, 3)
		}
	}
	write()
	found := 0
	if got := testing.AllocsPerRun(10, func() { d.WriteBackAll(ids, 4, func(uint64, uint64) { found++ }) }); got != 0 {
		t.Errorf("WriteBackAll of %d ids allocates %.1f times", len(ids), got)
	}
	if found != 11*len(ids) {
		t.Fatalf("WriteBackAll reported %d records in 11 calls over %d, want every one each time", found, len(ids))
	}
	// Each round deletes the records and writes them again, into the slots the
	// delete freed: after the first round neither allocates.
	if got := testing.AllocsPerRun(10, func() { d.DeleteAll(ids, nil); write() }); got != 0 {
		t.Errorf("DeleteAll of %d ids and their rewrite allocate %.1f times", len(ids), got)
	}
	if got := d.Live(); got != len(ids) {
		t.Fatalf("device holds %d records, want %d", got, len(ids))
	}
}
