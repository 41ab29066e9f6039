package pnvm

import (
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
	// Retire without write-back: lost on crash, record resurrects.
	d.Retire(id, 4, 77)
	d.Crash()
	recs := d.Recover()
	if len(recs) != 1 || recs[0].Retire != 0 {
		t.Fatalf("unflushed retire persisted: %+v", recs)
	}
	// Retire with write-back: survives.
	d.Retire(id, 5, 78)
	d.WriteBack(id)
	d.Crash()
	recs = d.Recover()
	if len(recs) != 1 || recs[0].Retire != 5 {
		t.Fatalf("flushed retire lost: %+v", recs)
	}
}

func TestUnRetireClaimGuard(t *testing.T) {
	d := New(Latencies{})
	id, _ := d.Write(1, []byte{1}, 3)
	d.Retire(id, 4, 100)
	// A different claim must not clear the mark.
	d.UnRetire(id, 999)
	d.WriteBack(id)
	d.Crash()
	recs := d.Recover()
	if recs[0].Retire != 4 {
		t.Fatal("foreign claim cleared retire mark")
	}
	// The owning claim may clear it (fresh mark first).
	d.Retire(id, 6, 101)
	d.UnRetire(id, 101)
	d.WriteBack(id)
	d.Crash()
	recs = d.Recover()
	if recs[0].Retire != 0 {
		t.Fatal("owner could not clear its own retire mark")
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
	d.Retire(id, 4, 1)
	d.WriteBack(id)
	d.Fence()
	w, wb, f := d.Stats()
	if w != 2 || wb != 1 || f != 1 {
		t.Fatalf("stats = %d,%d,%d", w, wb, f)
	}
}

// The device-side object of a record is one 64-byte size class: at 80 bytes
// txmontage's resident key (core's TestBudgetResidentKey) is over its ceiling.
func TestLineSize(t *testing.T) {
	if got := unsafe.Sizeof(line{}); got > 64 {
		t.Fatalf("a record's line is %d bytes, budget 64", got)
	}
}

// freeLines counts the objects waiting on the device's free lists.
func freeLines(d *Device) (n int) {
	for i := range d.shards {
		s := &d.shards[i]
		s.mu.Lock()
		n += len(s.free)
		s.mu.Unlock()
	}
	return n
}

// Only a delete that found its record feeds the free list: the same object
// handed out twice would be two records sharing one line.
func TestDeleteTwiceFreesOnce(t *testing.T) {
	d := New(Latencies{})
	id, _ := d.Write(1, []byte{1}, 3)
	d.Delete(id + nShards) // same shard, no such record
	d.Delete(id)
	d.Delete(id)
	if got := freeLines(d); got != 1 {
		t.Fatalf("%d lines on the free list after deleting one record twice, want 1", got)
	}
	d.Crash()
	keep, _ := d.Write(2, nil, 3)
	d.Delete(keep) // crashed media: a no-op, so nothing to recycle
	if got := freeLines(d); got != 1 {
		t.Fatalf("%d lines on the free list after a delete on crashed media, want 1", got)
	}
}

// A recycled line starts over. The first generation is written back, retired
// under a claim and that mark written back too; the second generation, built
// on the same objects, is volatile and live, and a crash loses all of it.
func TestReusedLineInheritsNothing(t *testing.T) {
	d := New(Latencies{})
	first := map[*line]bool{}
	for k := uint64(0); k < nShards; k++ { // consecutive ids: one per shard
		id, _ := d.Write(k, []byte{1}, 3)
		d.Retire(id, 4, 77)
		d.WriteBack(id)
		first[d.shard(id).lines[id]] = true
		d.Delete(id)
	}
	var ids []uint64
	for k := uint64(0); k < nShards; k++ {
		id, _ := d.Write(100+k, []byte{2}, 5)
		if !first[d.shard(id).lines[id]] {
			t.Fatalf("record %d got a fresh line with one waiting on its shard's free list", id)
		}
		ids = append(ids, id)
	}
	if got := freeLines(d); got != 0 {
		t.Fatalf("%d lines still free after as many writes as deletes", got)
	}
	d.UnRetire(ids[0], 77) // the first owner's claim: nothing here to lift
	d.WriteBack(ids[0])
	d.Crash()
	recs := d.Recover()
	if len(recs) != 1 || recs[0].ID != ids[0] || recs[0].Retire != 0 || recs[0].Val[0] != 2 {
		t.Fatalf("recovered %+v: want only the one second-generation record that was written back, live", recs)
	}
}
