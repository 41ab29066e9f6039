package pnvm

import (
	"bytes"
	"reflect"
	"sync"
	"testing"
	"time"
	"unsafe"
)

func TestWriteRecoverRoundTrip(t *testing.T) {
	d := New(Latencies{})
	id, err := d.Write(1, []byte{42}, 3)
	if err != nil {
		t.Fatal(err)
	}
	d.WriteBack(id)
	d.Fence()
	d.Crash()
	recs := d.Recover()
	if len(recs) != 1 || recs[0].Key != 1 || recs[0].Val[0] != 42 {
		t.Fatalf("recovered %+v", recs)
	}
}

func TestUnflushedWritesLostOnCrash(t *testing.T) {
	d := New(Latencies{})
	d.Write(1, []byte{1}, 3)
	id2, _ := d.Write(2, []byte{2}, 3)
	d.WriteBack(id2)
	d.Crash()
	recs := d.Recover()
	if len(recs) != 1 || recs[0].Key != 2 {
		t.Fatalf("recovered %+v, want only key 2", recs)
	}
}

func TestRetireSemantics(t *testing.T) {
	d := New(Latencies{})
	id, _ := d.Write(1, []byte{1}, 3)
	d.WriteBack(id)
	// A mark stored with its write-back survives the crash.
	d.WriteBackAll([]uint64{id}, 5, nil)
	d.Crash()
	recs := d.Recover()
	if len(recs) != 1 || recs[0].Retire != 5 {
		t.Fatalf("flushed retire lost: %+v", recs)
	}
}

// UnRetire lifts a durable mark without a write-back of its own, and on
// crashed media it changes nothing.
func TestUnRetireLiftsDurableMark(t *testing.T) {
	d := New(Latencies{})
	id, _ := d.Write(1, []byte{1}, 3)
	d.WriteBackAll([]uint64{id}, 4, nil)
	d.UnRetire(id)
	d.Crash()
	recs := d.Recover()
	if len(recs) != 1 || recs[0].Retire != 0 {
		t.Fatalf("recovered %+v, want the record live: UnRetire did not lift its mark", recs)
	}
	d.WriteBackAll([]uint64{id}, 6, nil)
	d.Crash()
	d.UnRetire(id)
	recs = d.Recover()
	if len(recs) != 1 || recs[0].Retire != 6 {
		t.Fatalf("recovered %+v, want retire mark 6: UnRetire changed crashed media", recs)
	}
}

func TestDeleteRemovesRecord(t *testing.T) {
	d := New(Latencies{})
	id, _ := d.Write(1, []byte{1}, 3)
	d.WriteBack(id)
	d.Delete(id)
	if d.Live() != 0 {
		t.Fatal("record survived delete")
	}
	d.Crash()
	if recs := d.Recover(); len(recs) != 0 {
		t.Fatalf("deleted record recovered: %+v", recs)
	}
}

func TestCrashedDeviceRejectsWrites(t *testing.T) {
	d := New(Latencies{})
	d.Crash()
	if _, err := d.Write(1, nil, 3); err != ErrCrashed {
		t.Fatalf("err = %v, want ErrCrashed", err)
	}
	d.Recover()
	if _, err := d.Write(1, nil, 3); err != nil {
		t.Fatalf("write after recover: %v", err)
	}
}

func TestLatencyIsCharged(t *testing.T) {
	d := New(Latencies{WriteBack: 200 * time.Microsecond})
	id, _ := d.Write(1, nil, 3)
	t0 := time.Now()
	d.WriteBack(id)
	if el := time.Since(t0); el < 150*time.Microsecond {
		t.Fatalf("write-back took %v, latency not modelled", el)
	}
}

func TestStatsCounters(t *testing.T) {
	d := New(Latencies{})
	id, _ := d.Write(1, nil, 3)
	d.WriteBackAll([]uint64{id}, 4, nil)
	d.Fence()
	w, wb, f := d.Stats()
	if w != 2 || wb != 1 || f != 1 {
		t.Fatalf("stats = %d,%d,%d", w, wb, f)
	}
}

// A record's line is one 64-byte cache line: the 32 of key, epoch, mark and
// the id, which is what lets a dropped record's id find nothing once its slot
// has a new owner, then an 8-byte payload and its length byte, padded. core's TestBudgetResidentKey prices
// txmontage's resident key from this number.
func TestLineSize(t *testing.T) {
	if got := unsafe.Sizeof(line{}); got != 64 {
		t.Fatalf("a record's line is %d bytes, budget 64", got)
	}
}

// A line holds no pointer, so a chunk of them is memory the collector never
// scans: a payload is bytes in the line or in the side slab, never a slice
// the line points through.
func TestLineHoldsNoPointer(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.String,
			reflect.Map, reflect.Chan, reflect.Func, reflect.Interface:
			t.Errorf("%s is a %s, which holds a pointer", path, typ)
		case reflect.Array:
			walk(path+"[i]", typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		}
	}
	walk("chunk", reflect.TypeOf([chunkLines]line{}))
}

// payloadOf returns n bytes counting up from seed: inline at n <= 8, in the
// side slab past that.
func payloadOf(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i)
	}
	return b
}

// durableDump writes back every id, crashes the device and returns its dump
// by key.
func durableDump(t *testing.T, d *Device, ids ...uint64) map[uint64][]byte {
	t.Helper()
	for _, id := range ids {
		d.WriteBack(id)
	}
	d.Fence()
	d.Crash()
	byKey := map[uint64][]byte{}
	for _, r := range d.Recover() {
		byKey[r.Key] = r.Val
	}
	return byKey
}

// Write copies its payload: the caller's buffer is its own again once Write
// returns, whether the payload went into the line or into the side slab.
func TestWriteCopiesPayload(t *testing.T) {
	for _, n := range []int{1, inlineBytes, inlineBytes + 1, 25} {
		d := New(Latencies{})
		buf := payloadOf(n, 1)
		id, err := d.Write(7, buf, 3)
		if err != nil {
			t.Fatal(err)
		}
		for i := range buf {
			buf[i] = 0xee
		}
		if got := durableDump(t, d, id)[7]; !bytes.Equal(got, payloadOf(n, 1)) {
			t.Errorf("%d-byte payload: the caller rewrote its buffer after Write and recovery reads %v", n, got)
		}
	}
}

// A payload longer than a line holds makes the same trip as one it holds:
// volatile until written back, durable after, and recovered byte for byte
// from a dump whose values are each capped at their own length.
func TestLongPayloadRoundTrip(t *testing.T) {
	d := New(Latencies{})
	var durable []uint64
	for k := uint64(0); k < 2*nShards; k++ {
		n := int(k%32) + 1
		id, err := d.Write(k, payloadOf(n, byte(k)), 3)
		if err != nil {
			t.Fatal(err)
		}
		if k%3 != 0 {
			durable = append(durable, id)
		}
	}
	checkSlab(t, d)
	for _, id := range durable {
		d.WriteBack(id)
	}
	d.Crash()
	checkSlab(t, d) // the crash dropped every third record, short and long
	recs := d.Recover()
	if len(recs) != len(durable) {
		t.Fatalf("recovered %d records, wrote back %d", len(recs), len(durable))
	}
	for _, r := range recs {
		if r.Key%3 == 0 {
			t.Fatalf("record %d was never written back and was recovered", r.Key)
		}
		if want := payloadOf(int(r.Key%32)+1, byte(r.Key)); !bytes.Equal(r.Val, want) || cap(r.Val) != len(r.Val) {
			t.Fatalf("key %d recovered %v (cap %d), want %v", r.Key, r.Val, cap(r.Val), want)
		}
	}
}

// A slot's next owner inherits nothing of its payload: a short payload after
// a long one reads as itself, not as the long one's side entry, and a long one
// after a short one does not carry the short one's bytes.
func TestSlotReuseAfterLongPayload(t *testing.T) {
	for _, tc := range []struct{ first, next int }{{25, 1}, {25, 0}, {1, 25}, {25, 9}} {
		d := New(Latencies{})
		var gone []uint64
		for k := range nShards {
			id, _ := d.Write(keyOn(k, 0), payloadOf(tc.first, 1), 3)
			gone = append(gone, id)
		}
		for _, id := range gone {
			d.Delete(id)
		}
		var ids []uint64
		for k := range nShards {
			id, _ := d.Write(keyOn(k, 1000), payloadOf(tc.next, 50), 3)
			if slotOf(id) != slotOf(gone[k]) {
				t.Fatalf("record %#x did not take dropped record %#x's slot", id, gone[k])
			}
			ids = append(ids, id)
		}
		checkSlab(t, d)
		for k, val := range durableDump(t, d, ids...) {
			if want := payloadOf(tc.next, 50); !bytes.Equal(val, want) {
				t.Fatalf("%d bytes after %d: key %d recovered %v, want %v", tc.next, tc.first, k, val, want)
			}
		}
	}
}

// checkSlab asserts the slab's one invariant on every shard — every slot ever
// handed out is either occupied by a record whose id names that slot and
// shard, or zeroed and on the free list exactly once — and that Live is the
// occupied count. A slot has a side-slab entry exactly when it holds a long
// payload, and the shard's byte count is what its records hold. It returns
// the occupied and free totals.
func checkSlab(t *testing.T, d *Device) (occupied, free int) {
	t.Helper()
	for i := range d.shards {
		s := &d.shards[i]
		s.mu.Lock()
		if want := (int(s.next) + chunkLines - 1) / chunkLines; len(s.chunks) != want {
			t.Fatalf("shard %d: %d chunks for %d slots, want %d", i, len(s.chunks), s.next, want)
		}
		if len(s.side) > len(s.chunks) {
			t.Fatalf("shard %d: %d side-slab chunks beside %d chunks of lines", i, len(s.side), len(s.chunks))
		}
		onFree := map[uint32]bool{}
		for _, slot := range s.free {
			if slot >= s.next || onFree[slot] {
				t.Fatalf("shard %d: slot %d on the free list twice or never handed out (next %d)", i, slot, s.next)
			}
			onFree[slot] = true
			if r := s.at(slot); !reflect.DeepEqual(*r, line{}) {
				t.Fatalf("shard %d: free slot %d still holds %+v", i, slot, *r)
			}
		}
		n, held := 0, 0
		for slot := uint32(0); slot < s.next; slot++ {
			r := s.at(slot)
			var side []byte
			if ci := int(slot / chunkLines); ci < len(s.side) && s.side[ci] != nil {
				side = s.side[ci][slot%chunkLines]
			}
			if isLong := r.id != 0 && r.n == long; isLong != (side != nil) || isLong && len(side) <= inlineBytes {
				t.Fatalf("shard %d slot %d: line %+v beside side entry %v", i, slot, *r, side)
			}
			held += len(s.payload(slot, r))
			switch {
			case onFree[slot]:
			case r.id == 0:
				t.Fatalf("shard %d: slot %d is empty and not on the free list", i, slot)
			case slotOf(r.id) != slot || r.id%nShards != uint64(i):
				t.Fatalf("shard %d slot %d holds id %#x, which names shard %d slot %d", i, slot, r.id, r.id%nShards, slotOf(r.id))
			default:
				n++
			}
		}
		if s.live != n || s.bytes != held {
			t.Fatalf("shard %d counts %d records and %d payload bytes, holds %d and %d", i, s.live, s.bytes, n, held)
		}
		occupied, free = occupied+n, free+len(s.free)
		s.mu.Unlock()
	}
	if got := d.Live(); got != occupied {
		t.Fatalf("Live() = %d, slab holds %d records", got, occupied)
	}
	return occupied, free
}

// slotLine copies out whatever is in the slot id names, the id's own record or
// not.
func slotLine(d *Device, id uint64) line {
	s := d.shard(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	return *s.at(slotOf(id))
}

// keyOn returns the first key from base up whose records live on shard i.
func keyOn(i int, base uint64) uint64 {
	for k := base; ; k++ {
		if shardOf(k) == uint64(i) {
			return k
		}
	}
}

// lap writes one record to each of the 64 shards, shard k's under
// keyOn(k, base), and returns the ids in shard order.
func lap(t *testing.T, d *Device, base uint64, val byte, epoch uint64) []uint64 {
	t.Helper()
	ids := make([]uint64, nShards)
	for k := range ids {
		id, err := d.Write(keyOn(k, base), []byte{val}, epoch)
		if err != nil {
			t.Fatal(err)
		}
		ids[k] = id
	}
	return ids
}

// The slab's bookkeeping through every way a slot changes hands: writes,
// deletes (twice, and of ids that name nothing), reuse, crash, refusals on
// crashed media, recovery with its scrub. What the map and the free list of
// line objects gave by construction is asserted after each step.
func TestSlabAccounting(t *testing.T) {
	d := New(Latencies{})
	want := func(step string, occupied, free int) {
		t.Helper()
		if o, f := checkSlab(t, d); o != occupied || f != free {
			t.Fatalf("%s: %d records and %d free slots, want %d and %d", step, o, f, occupied, free)
		}
	}
	first, second, third := lap(t, d, 0, 1, 3), lap(t, d, 1000, 1, 3), lap(t, d, 2000, 1, 3)
	want("three laps", 3*nShards, 0)

	// The second lap is written back with a retire mark, so its slots have
	// everything to leave behind.
	for _, id := range second {
		d.WriteBackAll([]uint64{id}, 4, nil)
		d.Delete(id)
		d.Delete(id)           // found nothing: frees nothing
		d.Delete(id + nShards) // the next slot of the shard under this serial: no such record
		d.Delete(0)
	}
	want("one lap deleted twice", 2*nShards, nShards)

	// As many writes as deletes take exactly the freed slots, and a reused
	// slot starts over: volatile, with no mark.
	fourth := lap(t, d, 3000, 2, 5)
	want("freed slots reused", 3*nShards, 0)
	for k, id := range fourth {
		if slotOf(id) != slotOf(second[k]) || id%nShards != second[k]%nShards {
			t.Fatalf("record %#x took a fresh slot with %#x's waiting on its shard's free list", id, second[k])
		}
		if l := slotLine(d, id); l.mark != volatile || l.val[0] != 2 {
			t.Fatalf("reused slot starts as %+v, want volatile", l)
		}
		d.UnRetire(id) // volatile: no mark here to lift
	}

	// A crash frees what was never written back; crashed media takes no
	// record and gives none up.
	for _, id := range first {
		d.WriteBack(id)
	}
	d.WriteBack(fourth[0])
	d.Crash()
	want("crash", nShards+1, 2*nShards-1)
	if _, err := d.Write(1, nil, 3); err != ErrCrashed {
		t.Fatalf("write on crashed media: %v", err)
	}
	d.Delete(first[0])
	d.Delete(third[0]) // lost in the crash
	want("stores on crashed media", nShards+1, 2*nShards-1)
	recs := d.Recover()
	if len(recs) != nShards+1 || cap(recs) != len(recs) {
		t.Fatalf("dump of %d records in a slice of %d, want %d sized once", len(recs), cap(recs), nShards+1)
	}
	for _, r := range recs {
		if r.Retire != 0 || (r.ID != fourth[0] && r.Val[0] != 1) {
			t.Fatalf("recovered %+v: want the first lap and one live second-generation record", r)
		}
	}

	// Recovery's scrub: no marker, so the cut is 0 and every record goes,
	// each slot freed once, and the fresh marker takes one of them.
	dumps := DumpAll([]*Device{d})
	if _, err := RecoverDomain([]*Device{d}, dumps); err != nil {
		t.Fatal(err)
	}
	want("scrubbed to the marker", 1, 3*nShards-1)
	lap(t, d, 4000, 3, 1)
	want("a lap after recovery", nShards+1, 2*nShards-1)
}

// The slab's one obligation the map met for free: an id whose record was
// dropped finds nothing, whatever has become of its slot. Every call that
// takes an id, against every state the slot can be in, on every shard.
func TestStaleIdFindsNothing(t *testing.T) {
	ops := []struct {
		name string
		call func(t *testing.T, d *Device, id uint64)
	}{
		{"WriteBackAll with a mark", func(t *testing.T, d *Device, id uint64) {
			found := false
			d.WriteBackAll([]uint64{id}, 9, func(uint64, uint64) { found = true })
			if found {
				t.Fatal("a marked write-back through a dropped id reports a record")
			}
		}},
		{"UnRetire", func(_ *testing.T, d *Device, id uint64) { d.UnRetire(id) }},
		{"WriteBack", func(t *testing.T, d *Device, id uint64) {
			if retired, durable := d.WriteBack(id); durable || retired != 0 {
				t.Fatalf("write-back through a dropped id reports retired=%d durable=%v", retired, durable)
			}
		}},
		{"Delete", func(_ *testing.T, d *Device, id uint64) { d.Delete(id) }},
	}
	occupants := []struct {
		name string
		fill func(d *Device, id uint64) // nil: the slot stays empty
	}{
		{"slot empty", nil},
		{"volatile record", func(d *Device, id uint64) {}},
		{"durable record", func(d *Device, id uint64) { d.WriteBack(id) }},
		{"durably retired record", func(d *Device, id uint64) { d.WriteBackAll([]uint64{id}, 6, nil) }},
	}
	for _, op := range ops {
		for _, occ := range occupants {
			t.Run(op.name+"/"+occ.name, func(t *testing.T) {
				d := New(Latencies{})
				stale := lap(t, d, 0, 1, 3)
				for _, id := range stale {
					d.WriteBackAll([]uint64{id}, 4, nil)
					d.Delete(id)
				}
				if occ.fill != nil {
					for k, id := range lap(t, d, 1000, 2, 5) {
						if slotOf(id) != slotOf(stale[k]) || id%nShards != stale[k]%nShards {
							t.Fatalf("record %#x did not take dropped record %#x's slot", id, stale[k])
						}
						occ.fill(d, id)
					}
				}
				occupied, free := checkSlab(t, d)
				for _, id := range stale {
					before := slotLine(d, id)
					op.call(t, d, id)
					if after := slotLine(d, id); !reflect.DeepEqual(after, before) {
						t.Fatalf("shard %d: the slot held %+v and holds %+v after the call", id%nShards, before, after)
					}
				}
				if o, f := checkSlab(t, d); o != occupied || f != free {
					t.Fatalf("%d records and %d free slots became %d and %d", occupied, free, o, f)
				}
			})
		}
	}
}

// A store tests for the crash under its shard's lock. Testing before the lock
// lets a store that was inside its media latency when Crash scanned its shard
// land afterwards: a record no write-back ever reached on post-crash media,
// and Recover hands it out as a survivor.
func TestCrashOrdersAgainstStores(t *testing.T) {
	for round := 0; round < 50; round++ {
		d := New(Latencies{Write: 200 * time.Microsecond})
		var started, done sync.WaitGroup
		started.Add(4)
		done.Add(4)
		for i := 0; i < 4; i++ {
			go func() {
				defer done.Done()
				started.Done()
				for {
					if _, err := d.Write(1, nil, 3); err != nil {
						return
					}
				}
			}()
		}
		started.Wait()
		d.Crash() // lands inside the first stores' latency
		done.Wait()
		if recs := d.Recover(); len(recs) != 0 {
			t.Fatalf("round %d: recovered %+v, want nothing: no record was ever written back", round, recs)
		}
		checkSlab(t, d)
	}
}

// Running out of serials or of slots in a shard is a panic, never an id that
// wraps onto a live record's.
func TestExhaustionIsLoud(t *testing.T) {
	panics := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: Write returned", what)
			}
		}()
		f()
	}
	d := New(Latencies{})
	d.shards[shardOf(1)].serial = maxSerial // key 1's shard has handed out its last serial
	panics("serials exhausted", func() { d.Write(1, nil, 3) })
	d = New(Latencies{})
	d.shards[shardOf(1)].next = slotsPerShard
	panics("shard full", func() { d.Write(1, nil, 3) })
}

// A shard is whole cache lines and the shards come first in a Device, so no
// two shards share a line: a store locks its shard and bumps the shard's
// serial and counter on lines no store to another shard touches.
func TestShardLayout(t *testing.T) {
	if got := unsafe.Sizeof(shard{}); got%64 != 0 {
		t.Errorf("a shard is %d bytes, not a whole number of 64-byte lines", got)
	}
	if got := unsafe.Offsetof(Device{}.shards); got != 0 {
		t.Errorf("the shards start %d bytes into a Device, want 0", got)
	}
}
