package onefile

import (
	"errors"
	"math/rand"
	"sync"
	"testing"

	"medley/internal/chaos"
	"medley/internal/pnvm"
)

func TestSkipListBasic(t *testing.T) {
	st := New()
	sl := NewSkipList[uint64](st)
	err := st.WriteTx(func() error {
		if !sl.Insert(1, 10) {
			t.Error("insert failed")
		}
		if sl.Insert(1, 11) {
			t.Error("dup insert succeeded")
		}
		if v, ok := sl.Get(1); !ok || v != 10 {
			t.Errorf("Get = %d,%v", v, ok)
		}
		old, replaced := sl.Put(1, 12)
		if !replaced || old != 10 {
			t.Errorf("Put = %d,%v", old, replaced)
		}
		if v, ok := sl.Remove(1); !ok || v != 12 {
			t.Errorf("Remove = %d,%v", v, ok)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	st.ReadTx(func() {
		if _, ok := sl.Get(1); ok {
			t.Error("key present after remove")
		}
	})
}

func TestWriteTxRollback(t *testing.T) {
	st := New()
	sl := NewSkipList[uint64](st)
	h := NewHash[uint64](st, 16)
	boom := errors.New("boom")
	st.WriteTx(func() error { sl.Insert(1, 10); h.Insert(2, 20); return nil })
	err := st.WriteTx(func() error {
		sl.Put(1, 99)
		sl.Insert(3, 30)
		sl.Remove(1)
		h.Remove(2)
		h.Put(4, 40)
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	st.ReadTx(func() {
		if v, ok := sl.Get(1); !ok || v != 10 {
			t.Errorf("rollback failed on skiplist: %d,%v", v, ok)
		}
		if _, ok := sl.Get(3); ok {
			t.Error("aborted insert visible")
		}
		if v, ok := h.Get(2); !ok || v != 20 {
			t.Errorf("rollback failed on hash: %d,%v", v, ok)
		}
		if _, ok := h.Get(4); ok {
			t.Error("aborted hash put visible")
		}
	})
}

func TestHashBasic(t *testing.T) {
	st := New()
	h := NewHash[uint64](st, 4) // force chains
	st.WriteTx(func() error {
		for k := uint64(0); k < 100; k++ {
			h.Insert(k, k*2)
		}
		return nil
	})
	st.ReadTx(func() {
		for k := uint64(0); k < 100; k++ {
			if v, ok := h.Get(k); !ok || v != k*2 {
				t.Errorf("Get(%d) = %d,%v", k, v, ok)
			}
		}
	})
	st.WriteTx(func() error {
		for k := uint64(0); k < 100; k += 2 {
			if _, ok := h.Remove(k); !ok {
				t.Errorf("remove %d failed", k)
			}
		}
		return nil
	})
	if got := h.Len(); got != 50 {
		t.Fatalf("Len = %d", got)
	}
}

// Concurrent transfers under WriteTx preserve the total (serialized writers
// make this trivially atomic; the test guards the undo machinery and reader
// validation).
func TestConcurrentTransfers(t *testing.T) {
	st := New()
	sl := NewSkipList[int](st)
	const accounts = 16
	st.WriteTx(func() error {
		for a := uint64(0); a < accounts; a++ {
			sl.Insert(a, 1000)
		}
		return nil
	})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 500; i++ {
				a1 := uint64(rng.Intn(accounts))
				a2 := uint64(rng.Intn(accounts))
				if a1 == a2 {
					continue
				}
				st.WriteTx(func() error {
					v1, _ := sl.Get(a1)
					v2, _ := sl.Get(a2)
					sl.Put(a1, v1-1)
					sl.Put(a2, v2+1)
					return nil
				})
			}
		}(w)
	}
	// Concurrent readers validating consistency: any snapshot must show the
	// exact total (transfers between two keys are atomic).
	stopReaders := make(chan struct{})
	var rwg sync.WaitGroup
	for r := 0; r < 4; r++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			for {
				select {
				case <-stopReaders:
					return
				default:
				}
				total := 0
				st.ReadTx(func() {
					total = 0
					for a := uint64(0); a < accounts; a++ {
						v, _ := sl.Get(a)
						total += v
					}
				})
				if total != accounts*1000 {
					t.Errorf("reader saw inconsistent total %d", total)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stopReaders)
	rwg.Wait()
	total := 0
	st.ReadTx(func() {
		total = 0
		for a := uint64(0); a < accounts; a++ {
			v, _ := sl.Get(a)
			total += v
		}
	})
	if total != accounts*1000 {
		t.Fatalf("total = %d", total)
	}
}

func TestPersistentVariantChargesNVM(t *testing.T) {
	dev := pnvm.New(pnvm.Latencies{})
	st := NewPersistent(dev)
	sl := NewSkipList[uint64](st)
	sid := st.NewPersistSID()
	st.WriteTx(func() error {
		sl.Insert(1, 1)
		st.StagePersist(sid, 1, []byte{1})
		sl.Insert(2, 2)
		st.StagePersist(sid, 2, []byte{2})
		return nil
	})
	w, wb, f := dev.Stats()
	if w == 0 || wb == 0 || f == 0 {
		t.Fatalf("persistent commit did not touch NVM: %d,%d,%d", w, wb, f)
	}
}

func TestStatsCount(t *testing.T) {
	st := New()
	sl := NewSkipList[uint64](st)
	st.WriteTx(func() error { sl.Insert(1, 1); return nil })
	st.ReadTx(func() { sl.Get(1) })
	c, _ := st.Stats()
	if c != 2 {
		t.Fatalf("commits = %d", c)
	}
}

// TestPersistSIDNamespacing: two structures on one persistent STM may bind
// the same raw key; one structure's update or removal must never retire the
// other's record. (Recovery still merges raw-key collisions newest-first —
// the documented modeling caveat — but committed data must survive.)
func TestPersistSIDNamespacing(t *testing.T) {
	dev := pnvm.New(pnvm.Latencies{})
	st := NewPersistent(dev)
	sid1, sid2 := st.NewPersistSID(), st.NewPersistSID()
	mustTx := func(fn func() error) {
		t.Helper()
		if err := st.WriteTx(fn); err != nil {
			t.Fatal(err)
		}
	}
	mustTx(func() error { st.StagePersist(sid1, 5, []byte{1}); return nil })
	mustTx(func() error { st.StagePersist(sid2, 5, []byte{2}); return nil })
	// Structure 2 removes its copy; structure 1's record must stay live.
	mustTx(func() error { st.StagePersist(sid2, 5, nil); return nil })
	_, _, kv := recoverKV(t, dev)
	got, ok := kv[5]
	if !ok || len(got) != 1 || got[0] != 1 {
		t.Fatalf("structure 1's record lost: kv[5] = %v, %v (another structure's ops retired it)", got, ok)
	}
}

// TestCommitRecordGatesVisibility pins the redo-log commit point: a crash an
// instant BEFORE the commit record is written back must recover none of the
// transaction's payloads (even though they are all durably on media), and a
// crash an instant AFTER must recover all of them. Visibility flips on
// exactly one write-back.
func TestCommitRecordGatesVisibility(t *testing.T) {
	t.Cleanup(chaos.DisarmAll)
	for _, tc := range []struct {
		point string
		want  bool
	}{
		{"ponefile.commit.pre-mark", false},      // payloads durable, record absent
		{"ponefile.commit.mark-volatile", false}, // record written but not written back
		{"ponefile.commit.post-mark", true},      // record durable: committed
	} {
		dev := pnvm.New(pnvm.Latencies{})
		st := NewPersistent(dev)
		sid := st.NewPersistSID()
		if err := st.WriteTx(func() error { st.StagePersist(sid, 1, []byte{10}); return nil }); err != nil {
			t.Fatal(err)
		}
		if err := chaos.Arm(tc.point, chaos.Fault{Kind: chaos.Crash, Action: func() { dev.Crash() }}); err != nil {
			t.Fatal(err)
		}
		crashed := func() (crashed bool) {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := chaos.AsCrash(r); !ok {
						panic(r)
					}
					crashed = true
				}
			}()
			st.WriteTx(func() error {
				st.StagePersist(sid, 2, []byte{20})
				st.StagePersist(sid, 3, []byte{30})
				return nil
			})
			return false
		}()
		chaos.DisarmAll()
		if !crashed {
			t.Fatalf("%s: crash never fired", tc.point)
		}
		_, _, kv := recoverKV(t, dev)
		if kv[1] == nil {
			t.Fatalf("%s: committed base key lost", tc.point)
		}
		if got2, got3 := kv[2] != nil, kv[3] != nil; got2 != tc.want || got3 != tc.want {
			t.Fatalf("%s: keys (2,3) visible = (%v,%v), want both %v", tc.point, got2, got3, tc.want)
		}
	}
}

// A commit that fails after its retire marks are durable lifts them: the next
// commit reuses the failed one's serial, and its commit record must not make
// those marks count. The records the failed commit marked come back live, with
// their values, and its own payloads do not come back at all.
func TestFailedCommitLiftsItsMarks(t *testing.T) {
	t.Cleanup(chaos.DisarmAll)
	dev := pnvm.New(pnvm.Latencies{})
	st := NewPersistent(dev)
	sid := st.NewPersistSID()
	if err := st.WriteTx(func() error { st.StagePersist(sid, 1, []byte{10}); st.StagePersist(sid, 2, []byte{20}); return nil }); err != nil {
		t.Fatal(err)
	}
	// pre-mark: both retire marks are written back and fenced, the commit
	// record is not written.
	if err := chaos.Arm("ponefile.commit.pre-mark", chaos.Fault{Kind: chaos.Error, Times: 1}); err != nil {
		t.Fatal(err)
	}
	if err := st.WriteTx(func() error { st.StagePersist(sid, 1, []byte{11}); st.StagePersist(sid, 2, nil); return nil }); err == nil {
		t.Fatal("the commit succeeded through an injected error at pre-mark")
	}
	if n := chaos.Fired("ponefile.commit.pre-mark"); n != 1 {
		t.Fatalf("pre-mark fired %d times, want 1", n)
	}
	chaos.DisarmAll()
	if err := st.WriteTx(func() error { st.StagePersist(sid, 3, []byte{30}); return nil }); err != nil {
		t.Fatal(err)
	}
	_, _, kv := recoverKV(t, dev)
	want := map[uint64]byte{1: 10, 2: 20, 3: 30}
	for k, v := range want {
		if got, ok := kv[k]; !ok || len(got) != 1 || got[0] != v {
			t.Errorf("key %d recovered as %v, %v, want [%d]", k, got, ok, v)
		}
	}
	if len(kv) != len(want) {
		t.Errorf("recovered %v, want %v", kv, want)
	}
}

// recoverKV crashes dev (a no-op when a fault already did), recovers a fresh
// STM over it, and returns that STM, the structure id the surviving records
// were adopted under, and the surviving key → payload bindings.
func recoverKV(t *testing.T, dev *pnvm.Device) (*STM, uint64, map[uint64][]byte) {
	t.Helper()
	st := NewPersistent(dev)
	sid := st.NewPersistSID()
	live, err := st.Recover(pnvm.DumpAll([]*pnvm.Device{dev}), sid)
	if err != nil {
		t.Fatal(err)
	}
	kv := make(map[uint64][]byte, len(live))
	for _, r := range live {
		kv[r.Key] = r.Val
	}
	return st, sid, kv
}

// TestRecoverScrubsAndResumes: recovery must scrub everything the commit cut
// excludes (torn payloads, durably-retired overwrites, the commit history
// itself) down to a single anchor record, and the STM must resume committing
// on the same device with the recovered state intact — adopted, so that
// overwriting a recovered key retires its record instead of shadowing it.
func TestRecoverScrubsAndResumes(t *testing.T) {
	t.Cleanup(chaos.DisarmAll)
	dev := pnvm.New(pnvm.Latencies{})
	st := NewPersistent(dev)
	sid := st.NewPersistSID()
	mustTx := func(fn func() error) {
		t.Helper()
		if err := st.WriteTx(fn); err != nil {
			t.Fatal(err)
		}
	}
	mustTx(func() error { st.StagePersist(sid, 1, []byte{1}); st.StagePersist(sid, 2, []byte{2}); return nil })
	mustTx(func() error { st.StagePersist(sid, 2, []byte{22}); st.StagePersist(sid, 3, []byte{3}); return nil })
	mustTx(func() error { st.StagePersist(sid, 1, nil); return nil })
	// One more transaction dies just before its commit record: its payloads
	// are durable torn garbage that recovery must remove from media.
	if err := chaos.Arm("ponefile.commit.pre-mark", chaos.Fault{Kind: chaos.Crash, Action: func() { dev.Crash() }}); err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := chaos.AsCrash(r); !ok {
					panic(r)
				}
			}
		}()
		st.WriteTx(func() error { st.StagePersist(sid, 9, []byte{9}); return nil })
		t.Fatal("pre-mark crash never fired")
	}()
	chaos.DisarmAll()

	want := map[uint64]byte{2: 22, 3: 3} // key 1 removed, key 9 torn
	check := func(when string, kv map[uint64][]byte) {
		t.Helper()
		for k, v := range want {
			if got, ok := kv[k]; !ok || len(got) != 1 || got[0] != v {
				t.Fatalf("%s: key %d = %v, %v want [%d]", when, k, got, ok, v)
			}
		}
		if len(kv) != len(want) {
			t.Fatalf("%s: removed/torn keys resurrected: %v", when, kv)
		}
	}
	// media re-crashes and re-dumps the device: the scrub must be on media,
	// not just in the recovered view.
	media := func() (marks, payloads int) {
		for _, r := range pnvm.DumpAll([]*pnvm.Device{dev})[0] {
			if r.Key == pnvm.MarkerKey {
				marks++
			} else {
				payloads++
			}
		}
		return marks, payloads
	}
	_, _, kv := recoverKV(t, dev)
	check("first recovery", kv)
	if marks, payloads := media(); marks != 1 || payloads != len(want) {
		t.Fatalf("scrub left %d commit records and %d payload records, want 1 anchor and %d", marks, payloads, len(want))
	}

	// Recovering the scrubbed media is a fixed point, and the recovered STM
	// keeps committing: a fresh transaction is durable, overwriting a
	// recovered key retires the adopted record, and GC brings the device
	// back down to one commit record.
	st3, sid3, kv := recoverKV(t, dev)
	check("second recovery", kv)
	want[2], want[4] = 23, 4
	if err := st3.WriteTx(func() error {
		st3.StagePersist(sid3, 2, []byte{23})
		st3.StagePersist(sid3, 4, []byte{4})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if marks, payloads := media(); marks != 1 || payloads != len(want) {
		t.Fatalf("continued commits left %d commit records and %d payload records, want 1 and %d", marks, payloads, len(want))
	}
	_, _, kv = recoverKV(t, dev)
	check("after a post-recovery commit", kv)
}
