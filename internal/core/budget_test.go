package core_test

import (
	"runtime"
	"testing"

	"medley/internal/allocs"
	"medley/internal/core"
	"medley/internal/pnvm"
	"medley/internal/structures/mhash"
	"medley/internal/txengine"
)

// Deterministic allocation budgets for the core layer: what one transaction
// allocates, as an exact count and a ceiling in bytes. Nothing here depends
// on timing, the collector or the scheduler — with no helper about, a session
// runs every transaction on the same descriptor, whose sets keep their
// capacity — so a change that moves a number moved the design. Sizes are Go's
// malloc size classes (…16, 24, 32, 48, 64 … 96 …).
//
//	cell         24  desc, prev and a one-word value: CASObj[int], mlist's
//	                 marked reference
//
// Every critical CAS publishes one cell, the one that installs the
// descriptor: commit turns it into the real value in place, abort swings the
// slot back to the cell it replaced, and neither allocates. The CAS allocates
// that cell unless its caller hands it one (NbtcCASIn): mlist's insert
// publishes the cell inside the new node, which so costs nothing. Nor does
// the new node's own link: it starts on the committed cell that the install
// displaces (CASObj.InitFrom), which holds its value. The descriptor
// and its read and write sets cost nothing once the session's first
// transactions have grown them. Only a helper still inside the descriptor when
// its transaction finishes makes the next transaction pay for a fresh one
// (TestBudgetHelperAtFinish):
//
//	header       64  core.Desc (64 bytes of fields)
//	read set     16n its predecessor's capacity, n entries of {slot, tag}
//	write set     8n its predecessor's capacity, n slots

// budget pins f to exactly want allocations and at most bytes bytes a call,
// counted over the same 100 calls after one that grows the descriptor's sets
// and the session's slices to their steady state.
func budget(t *testing.T, f func(), want float64, bytes int64) {
	t.Helper()
	if allocs.Race {
		t.Skip("the race detector allocates on its own account")
	}
	f()
	n, b := allocs.Count(100, f)
	if got := float64(n); got != want {
		t.Errorf("%v allocations per transaction, budget exactly %v", got, want)
	}
	t.Logf("%d B per transaction", b)
	if int64(b) > bytes {
		t.Errorf("%d B per transaction, budget %d", b, bytes)
	}
}

// A transaction that installs nothing allocates nothing.
func TestBudgetReadOnly(t *testing.T) {
	s := core.NewTxManager().Session()
	objs := make([]core.CASObj[int], 4)
	budget(t, func() {
		s.TxBegin()
		for i := range objs {
			_, tag := objs[i].NbtcLoad(s)
			s.AddToReadSet(&objs[i], tag)
		}
		if err := s.TxEnd(); err != nil {
			t.Fatal(err)
		}
	}, 0, 0)
}

// One read, one write on bare CASObj[int]s — the core layer with no
// structure on top: the one 24-byte cell the write installs.
func TestBudgetOneReadOneWrite(t *testing.T) {
	s := core.NewTxManager().Session()
	var r, w core.CASObj[int]
	v := 0
	budget(t, func() {
		s.TxBegin()
		_, tag := r.NbtcLoad(s)
		s.AddToReadSet(&r, tag)
		if !w.NbtcCAS(s, v, v+1, true, true) {
			t.Fatal("install failed")
		}
		v++
		if err := s.TxEnd(); err != nil {
			t.Fatal(err)
		}
	}, 1, 24)
}

// The same, with a helper that has taken the descriptor's count and passed
// its re-check when the owner finishes, and leaves only afterwards: the cell
// and one fresh descriptor for the next transaction — header 64, a read set
// of its predecessor's capacity 1 (16), a write set of capacity 1 (8). The
// helper is a Load of w, stopped at the re-check's point.
func TestBudgetHelperAtFinish(t *testing.T) {
	s := core.NewTxManager().Session()
	var r, w core.CASObj[int]
	h := core.NewHeldHelper(t, "core.tryfinalize.rechecked", func() { w.Load() })
	v := 0
	budget(t, func() {
		s.TxBegin()
		_, tag := r.NbtcLoad(s)
		s.AddToReadSet(&r, tag)
		if !w.NbtcCAS(s, v, v+1, true, true) {
			t.Fatal("install failed")
		}
		v++
		h.Enter(t)
		if err := s.TxEnd(); err != nil {
			t.Fatal(err)
		}
		h.Leave()
	}, 1+3, 24+64+16+8)
}

// The same on mhash, where the structure's own allocations ride along. A
// Put that replaces a value costs, outside core's one cell:
//
//	node          48  its own cell (24), key, value, next: the cell the
//	                  post-commit unlink publishes in the predecessor
//
// 48 bytes in 1 allocation, so 72 in 2 with the install, which publishes the
// marked link to the node in a 24-byte cell of its own: that link goes with
// the victim. The unlink is a record in the session's cleanup slice, which
// keeps its capacity: the list, the predecessor link and the victim, none of
// which it allocates; as a closure (function, dictionary and six captures)
// it cost 1 allocation and 64 B more. The keys here sit alone in their
// buckets, so the new node's successor is nil — the zero value, which takes
// no cell; in front of a successor it takes the victim's successor cell, no
// new one either (TestBudgetHashPutBeforeSuccessor, TestBudgetInitFrom).
// A Get of a present key records two reads (predecessor link and the node's
// own successor), of an absent key one.
const putAllocs, putBytes = 2, 48 + 24

// A private node's successor, set by InitFrom as by a Put that retried: on
// the tagged cell of its value, nothing; the zero value, nothing; any other
// value, one fresh 24-byte cell around an int.
func TestBudgetInitFrom(t *testing.T) {
	var src, o core.CASObj[int]
	src.Store(1)
	_, tag := src.NbtcLoad(nil)
	budget(t, func() {
		o.InitFrom(tag, 1)
		o.InitFrom(tag, 0)
		o.InitFrom(nil, 0)
		if o.Load() != 0 {
			t.Fatal("InitFrom lost a value")
		}
		o.InitFrom(tag, 1)
		if o.Load() != 1 || src.Load() != 1 {
			t.Fatal("InitFrom lost a value")
		}
	}, 0, 0)
	budget(t, func() {
		o.InitFrom(tag, 1)
		o.InitFrom(tag, 2)
		if o.Load() != 2 || src.Load() != 1 {
			t.Fatal("InitFrom lost a value")
		}
	}, 1, 24)
}

func newBudgetMap(s *core.Session) *mhash.Map[uint64, uint64] {
	m := mhash.NewUint64[uint64](1 << 10)
	for k := uint64(0); k < 64; k += 2 { // even keys present, odd absent
		m.Put(s, k, k)
	}
	return m
}

// Get(absent) + Put(present): one Put; the Get's read costs nothing.
func TestBudgetHashOneReadOneWrite(t *testing.T) {
	s := core.NewTxManager().Session()
	m := newBudgetMap(s)
	budget(t, func() {
		s.TxBegin()
		m.Get(s, 1)
		m.Put(s, 2, 7)
		if err := s.TxEnd(); err != nil {
			t.Fatal(err)
		}
	}, putAllocs, putBytes)
}

// Ten operations — six Gets that hit, two that miss, two Puts: 14 reads and
// 2 writes, which cost nothing in sets, so two Puts. The read-to-write mix is
// the paper's 2:1:1 at the long end of its 1–10 operation range.
func TestBudgetHashTenOps(t *testing.T) {
	s := core.NewTxManager().Session()
	m := newBudgetMap(s)
	budget(t, func() {
		s.TxBegin()
		for k := uint64(0); k < 12; k += 2 {
			m.Get(s, k)
		}
		m.Get(s, 1)
		m.Get(s, 3)
		m.Put(s, 20, 7)
		m.Put(s, 22, 7)
		if err := s.TxEnd(); err != nil {
			t.Fatal(err)
		}
	}, 2*putAllocs, 2*putBytes)
}

// An Insert that finds its key is a read: mlist builds the node only after
// find has reported the key absent, so the transaction installs nothing and
// allocates nothing.
func TestBudgetHashFailedInsert(t *testing.T) {
	s := core.NewTxManager().Session()
	m := newBudgetMap(s)
	budget(t, func() {
		s.TxBegin()
		if m.Insert(s, 2, 9) {
			t.Fatal("inserted over a present key")
		}
		if err := s.TxEnd(); err != nil {
			t.Fatal(err)
		}
	}, 0, 0)
}

// A Put over a key that has a successor, on a map of one bucket: the same
// 2 allocations, 72 B as over a key alone. The new node's successor link
// starts on the victim's committed successor cell, which the install's mark
// displaces (CASObj.InitFrom); a fresh one there cost a 24-byte cell more,
// 3 and 96 B.
func TestBudgetHashPutBeforeSuccessor(t *testing.T) {
	s := core.NewTxManager().Session()
	m := mhash.NewUint64[uint64](1)
	m.Put(s, 1, 1)
	m.Put(s, 2, 2)
	v := uint64(0)
	budget(t, func() {
		s.TxBegin()
		v++
		if _, replaced := m.Put(s, 1, v); !replaced {
			t.Fatal("key 1 missing")
		}
		if err := s.TxEnd(); err != nil {
			t.Fatal(err)
		}
	}, putAllocs, putBytes)
}

// An Insert in front of a node: the node (48) and nothing else. Its cell is
// the install, and its successor link starts on the predecessor's committed
// cell, which links the node it goes in front of and which the install
// displaces; a fresh one there cost a 24-byte cell more, 2 and 72 B. Each
// call inserts a smaller key at the head of the one bucket.
func TestBudgetHashInsertInFront(t *testing.T) {
	s := core.NewTxManager().Session()
	m := mhash.NewUint64[uint64](1)
	k := uint64(1 << 20)
	m.Put(s, k, k)
	budget(t, func() {
		s.TxBegin()
		k--
		if !m.Insert(s, k, k) {
			t.Fatalf("key %d present", k)
		}
		if err := s.TxEnd(); err != nil {
			t.Fatal(err)
		}
	}, 1, 48)
}

// A committed Remove: the 24-byte cell its marking CAS installs, and the
// one the post-commit unlink publishes in the predecessor: a fresh one, since
// a successor's own cell is in the link that first pointed at it, and a nil
// successor gets a cell all the same. The unlink is a record, as for a Put;
// as a closure it cost 1 allocation and 64 B more.
func TestBudgetHashRemove(t *testing.T) {
	s := core.NewTxManager().Session()
	m := mhash.NewUint64[uint64](1 << 10)
	for k := uint64(0); k < 128; k++ { // one key for each call budget makes
		m.Put(s, k, k)
	}
	k := uint64(0)
	budget(t, func() {
		s.TxBegin()
		if _, ok := m.Remove(s, k); !ok {
			t.Fatalf("key %d missing", k)
		}
		k++
		if err := s.TxEnd(); err != nil {
			t.Fatal(err)
		}
	}, 2, 24+24)
}

// A committed overwrite on txmontage, Sync included, once the device's free
// lists and the epoch batches have been round the loop: the persistence
// bookkeeping allocates nothing. The record's line is a slot of its shard's
// slab off the shard's free list, fed by the reclaim of the record it replaces
// and by the superseded markers; the ids join the session's batch slices,
// handed back emptied by the last flush; the dead queue keeps its capacity;
// the new payload and the one it supersedes join the session's epoch context,
// whose two lists keep their arrays from one transaction to the next; the
// value is encoded into the context's buffer, and the device copies it into
// the line. What is left is what medley pays for the same Put through the
// same engine and what the payload costs the index. Medley's Put through Run
// is 3 allocations, 120 B: the Put's 72 and the 48-byte closure this test
// hands Run (it captures the map, the worker and v), while nothing has read a
// snapshot; once one SnapshotRead has started the snapshot tier it is 4
// allocations, 152 B (one 32-byte version more: the tier's slot array is not
// re-grown by an overwrite of a key it holds). The payload:
//
//	node         +16  the index entry carries the payload id beside the value:
//	                  56 bytes with the node's cell, the 64-byte class
//
// 16 bytes and no allocation. While a line kept its payload as a slice, the
// encoded value was an 8-byte allocation more. Until the undo and the retire
// mark were entries in the epoch context, an OnAbort closure (32) and a
// post-commit closure (48) added 2 allocations and 80 B. Before reclaim the
// same call measured 16
// allocations and 911 B: a fresh 64-byte record for the payload and for each
// of Sync's two markers, entries in up to four tables that outlived them, and
// per-epoch batch slices rebuilt from nil.
func TestBudgetMontageOverwrite(t *testing.T) {
	for _, c := range []struct {
		name          string
		snapshot      bool
		allocs, bytes int64
	}{
		{"tier off", false, 3, 120 + 16},
		{"tier started", true, 4, 152 + 16},
	} {
		t.Run(c.name, func(t *testing.T) {
			e, m, tx, _ := newHeapBudget(t, "txmontage", 16)
			defer e.Close()
			if c.snapshot && !txengine.SnapshotRead(tx, func() {}) {
				t.Fatal("SnapshotRead refused")
			}
			p := e.(txengine.Persister)
			v := uint64(0)
			overwrite := func() {
				v++
				if err := tx.Run(func() error { m.Put(tx, 7, v); return nil }); err != nil {
					t.Fatal(err)
				}
				p.Sync()
			}
			// Key 7's records and the markers each keep to one device shard,
			// which after a few rounds has a line freed to it before it is
			// next asked for one.
			for i := 0; i < 100; i++ {
				overwrite()
			}
			budget(t, overwrite, float64(c.allocs), c.bytes)
		})
	}
}

// The device's own share of that, with nothing above it: what a record's life
// costs pnvm once every shard has a freed slot to hand out. A store takes a
// slot, the id it returns is the slot's address, every later call indexes to
// it, and the delete hands the slot number back: no table to grow, no object
// per record, nothing allocated.
func TestBudgetDeviceCycle(t *testing.T) {
	d := pnvm.New(pnvm.Latencies{})
	val := []byte{1}
	write := func() uint64 {
		id, err := d.Write(7, val, 3)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	old := write()
	cycle := func() {
		id := write()
		d.WriteBack(id)
		d.WriteBackAll([]uint64{old}, 4, nil)
		d.Delete(old)
		old = id
	}
	for i := 0; i < 200; i++ { // three laps of the 64 shards
		cycle()
	}
	budget(t, cycle, 0, 0)
	if got := d.Live(); got != 1 {
		t.Fatalf("device holds %d records after the cycles, want the one not yet replaced", got)
	}
}

// What a key costs while it sits in the map: 100 000 keys put one per
// transaction into an engine's hash map with as many buckets (the paper's
// load factor), HeapAlloc after a collection, per key. On medley, in a map
// nothing has read a snapshot of:
//
//	node            48  the one cell that points at it, from its bucket's
//	                    head (0.63 of keys) or its predecessor's next (0.37),
//	                    then key, value, next; a tail's own next is the zero
//	                    value and has no cell
//
// 48 in all: the snapshot tier has not started, so it holds nothing. Once one
// SnapshotRead has started it (here, after the puts: its scan seeds every
// key), each key adds
//
//	version         32  key, stamp, value, next older version
//	slots        18–22  8 bytes and a dirty bit per slot, in arrays that
//	                    double at 3/4 full: 1562 keys a stripe put three
//	                    stripes in four on 4096 slots, the rest on 2048
//
// 98–102 in all. txmontage adds what the payload costs on the simulated
// device and what points at it:
//
//	slot          73.4  a 64-byte line in its shard's slab, the payload in
//	                    it: a chunk of 256 is 16 KiB with no pointer and no
//	                    allocator header; 1562.5 keys a device shard stand on
//	                    7 chunks, 1792 slots
//	node         +16    the index entry carries the payload id beside the
//	                    value: 56 bytes, the 64-byte class
//	batch          8.9  the id in its epoch's batch, kept by the session's
//	                    pin, a slice grown by append to 110 592 entries (no
//	                    advancer runs here)
//
// 98.3 (146.3 B measured with the 48 above). While a line was 72 bytes with
// its payload as a slice, the slot was 85.4 (a 19 072-byte size class a
// chunk) and the payload 8 more: 118.3. With the tier started the ceilings are the arithmetic with every
// stripe on the larger array, whose slack also covers what a run allocates
// once whatever its key count (the worker's scratch and spare descriptor; on
// txmontage the epoch system's batch ring: 0.2 KB on medley, 4 KB on
// txmontage). Without it the arithmetic has no slack, so the ceilings add
// 8 KB spread over the keys for that.
const (
	residentKey         = 48
	residentKeySnapshot = residentKey + 32 + 22
	montageKey          = 98.3
)

func TestBudgetResidentKey(t *testing.T) {
	if allocs.Race {
		t.Skip("the race detector allocates on its own account")
	}
	const n = 100_000
	const once = 8 << 10 / float64(n)
	for _, c := range []struct {
		engine   string
		snapshot bool
		ceiling  float64
	}{
		{"medley", false, residentKey + once},
		{"txmontage", false, residentKey + montageKey + once},
		{"medley", true, residentKeySnapshot},
		{"txmontage", true, residentKeySnapshot + montageKey},
	} {
		e, m, tx, empty := newHeapBudget(t, c.engine, n)
		for k := uint64(0); k < n; k++ {
			if err := tx.Run(func() error { m.Put(tx, k, k); return nil }); err != nil {
				t.Fatal(err)
			}
		}
		if c.snapshot && !txengine.SnapshotRead(tx, func() {}) {
			t.Fatalf("%s: SnapshotRead refused", c.engine)
		}
		perKey := float64(heapAfterGC()-empty) / n
		if _, ok := m.Get(tx, n-1); !ok { // the map is live across the measurement
			t.Fatalf("%s: key %d missing", c.engine, n-1)
		}
		e.Close()
		if perKey > c.ceiling {
			t.Errorf("%s (snapshot %v): %.1f B per resident key, budget %.2f", c.engine, c.snapshot, perKey, c.ceiling)
		}
		t.Logf("%s (snapshot %v): %.1f B per resident key", c.engine, c.snapshot, perKey)
	}
}

// What a key costs once the map has a history: heap_live_mb on the
// benchmark's embed_compose workload in small, with that workload's shape (as
// many buckets as keys in the keyspace, half of them live). Of 2N keys N are
// live; each round removes the live half and inserts the other, one committed
// transaction a pair, so after five rounds every key has been inserted and
// removed more than once. A live key costs what a resident one does plus what
// churn leaves behind in mhash (an emptied bucket keeps its head cell, a node
// whose successor left keeps a cell around nil): 63 B measured in a map
// nothing has read a snapshot of, within 1.5x of residentKey pinned. With the
// snapshot tier started first (one SnapshotRead before the churn) the tier
// may keep nothing for a key that is gone — its tombstone and its slot are
// swept once no cut can tell the difference — and one version for a key that
// is there, so the tier's dead markers join the residue: 119 B measured,
// within 1.5x of residentKeySnapshot. A tier that pays for every key ever
// seen, and a second version of each, is past 4x.
func TestBudgetChurnedKey(t *testing.T) {
	if allocs.Race {
		t.Skip("the race detector allocates on its own account")
	}
	const n = 100_000
	for _, c := range []struct {
		engine   string
		snapshot bool
		ceiling  float64
	}{
		{"medley", false, 1.5 * residentKey},
		{"medley", true, 1.5 * residentKeySnapshot},
	} {
		engine := c.engine
		e, m, tx, empty := newHeapBudget(t, engine, 2*n)
		if c.snapshot && !txengine.SnapshotRead(tx, func() {}) {
			t.Fatalf("%s: SnapshotRead refused", engine)
		}
		for k := uint64(0); k < n; k++ {
			if err := tx.Run(func() error { m.Insert(tx, 2*k, k); return nil }); err != nil {
				t.Fatal(err)
			}
		}
		for round := uint64(0); round < 5; round++ {
			for k := uint64(0); k < n; k++ {
				err := tx.Run(func() error {
					if _, had := m.Remove(tx, 2*k+round%2); !had || !m.Insert(tx, 2*k+1-round%2, round) {
						t.Fatalf("%s: round %d lost track of pair %d", engine, round, k)
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
			}
		}
		perKey := float64(heapAfterGC()-empty) / n
		if _, ok := m.Get(tx, 1); !ok { // the map is live across the measurement
			t.Fatalf("%s: key 1 missing", engine)
		}
		e.Close()
		if perKey > c.ceiling {
			t.Errorf("%s (snapshot %v): %.1f B per live key after churn, budget %v", engine, c.snapshot, perKey, c.ceiling)
		}
		t.Logf("%s (snapshot %v): %.1f B per live key after churn", engine, c.snapshot, perKey)
	}
}

// newHeapBudget builds an engine, a hash map of that many buckets and a
// worker, and reads the heap they start from.
func newHeapBudget(t *testing.T, engine string, buckets int) (txengine.Engine, txengine.Map[uint64], txengine.Tx, int64) {
	t.Helper()
	e, err := txengine.Build(engine, txengine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	m, err := e.NewUintMap(txengine.MapSpec{Kind: txengine.KindHash, Buckets: buckets})
	if err != nil {
		t.Fatal(err)
	}
	return e, m, e.NewWorker(0), heapAfterGC()
}

func heapAfterGC() int64 {
	runtime.GC()
	runtime.GC() // the second cycle frees what the first one's sweep finalized
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
