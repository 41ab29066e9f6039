package core_test

import (
	"runtime"
	"testing"

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
// publishes the cell inside the new node, which so costs nothing. The descriptor
// and its read and write sets cost nothing once the session's first
// transactions have grown them. Only a helper still inside the descriptor when
// its transaction finishes makes the next transaction pay for a fresh one
// (TestBudgetHelperAtFinish):
//
//	header       96  core.Desc (96 bytes of fields)
//	read set     16n its predecessor's capacity, n entries of {slot, tag}
//	write set     8n its predecessor's capacity, n slots

// budget pins f to exactly allocs allocations and at most bytes bytes a call.
func budget(t *testing.T, f func(), allocs float64, bytes int64) {
	t.Helper()
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	f() // grow the descriptor's sets and the session's slices to their steady state
	if got := testing.AllocsPerRun(100, f); got != allocs {
		t.Errorf("%v allocations per transaction, budget exactly %v", got, allocs)
	}
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f()
		}
	})
	got := r.MemBytes / uint64(r.N)
	t.Logf("%d B per transaction", got)
	if int64(got) > bytes {
		t.Errorf("%d B per transaction, budget %d", got, bytes)
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
// and one fresh descriptor for the next transaction — header 96, a read set
// of its predecessor's capacity 1 (16), a write set of capacity 1 (8).
func TestBudgetHelperAtFinish(t *testing.T) {
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
		d := core.EnterAsHelper(&w)
		if err := s.TxEnd(); err != nil {
			t.Fatal(err)
		}
		d.LeaveAsHelper(&w)
	}, 1+3, 24+96+16+8)
}

// The same on mhash, where the structure's own allocations ride along. A
// Put that replaces a value costs, outside core's one cell:
//
//	node          48  its own cell (24), key, value, next: the cell the
//	                  post-commit unlink publishes in the predecessor
//	cleanup       64  the deferred-unlink closure (function, dictionary and
//	                  six captures)
//
// 112 bytes in 2 allocations, so 136 in 3 with the install, which publishes
// the marked link to the node in a 24-byte cell of its own: that link goes
// with the victim. The keys here sit alone in their buckets, so the new node's
// successor is nil — the zero value, which next.Init stores without a cell;
// in front of a successor it is one 24-byte cell, however often the Put
// retries (TestBudgetInit).
// A Get of a present key records two reads (predecessor link and the node's
// own successor), of an absent key one.
const putAllocs, putBytes = 3, 48 + 64 + 24

// A private node's successor, set three times as by a Put that retried
// twice: one 24-byte cell around an int; the zero value costs nothing. The
// two 8-byte objects themselves are the other two allocations.
func TestBudgetInit(t *testing.T) {
	budget(t, func() {
		var o, z core.CASObj[int]
		o.Init(1)
		o.Init(2)
		o.Init(3)
		z.Init(0)
		if o.Load() != 3 || z.Load() != 0 {
			t.Fatal("Init lost a value")
		}
	}, 2+1, 2*8+24)
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

// A committed overwrite on txmontage, Sync included, once the device's free
// lists and the epoch batches have been round the loop: the persistence
// bookkeeping allocates nothing. The record's line is a slot of its shard's
// slab off the shard's free list, fed by the reclaim of the record it replaces
// and by the superseded markers; the ids join batch slices handed back emptied
// by the last flush; the dead queue keeps its capacity. What is left is what medley
// pays for the same Put through the same engine and what the payload itself
// costs. Medley's Put through Run is 4 allocations, 184 B: the Put's 136 and
// the 48-byte closure this test hands Run (it captures the map, the worker
// and v), while nothing has read a snapshot; once one SnapshotRead has started
// the snapshot tier it is 5 allocations, 216 B (one 32-byte version more: the
// tier's slot array is not re-grown by an overwrite of a key it holds). The
// payload:
//
//	payload        8  the encoded value, the record's Val
//	node         +16  the index entry carries the payload id beside the value:
//	                  56 bytes with the node's cell, the 64-byte class
//	undo          32  the OnAbort closure that deletes the payload
//	retire        48  the post-commit closure that writes the retire mark
//
// 104 bytes in 3 allocations. Before reclaim the same call measured 16
// allocations and 911 B: a fresh 64-byte record for the payload and for each
// of Sync's two markers, entries in up to four tables that outlived them, and
// per-epoch batch slices rebuilt from nil.
func TestBudgetMontageOverwrite(t *testing.T) {
	for _, c := range []struct {
		name          string
		snapshot      bool
		allocs, bytes int64
	}{
		{"tier off", false, 4 + 3, 184 + 104},
		{"tier started", true, 5 + 3, 216 + 104},
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
			// Ids go round the device's 64 shards; after two laps every shard
			// has had a line freed to it before it is next asked for one.
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
		if err := d.Retire(old, 4, 0); err != nil {
			t.Fatal(err)
		}
		d.WriteBack(id)
		d.WriteBack(old)
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
// 98–102 in all. The sharded engine wraps the same map once; txmontage adds
// what the payload costs on the simulated device and what points at it:
//
//	slot          85.4  a 72-byte line in its shard's slab: a chunk of 256 is
//	                    18 432 B and the allocator's 8-byte header, the 19 072
//	                    size class, 74.5 B a slot; 1562.5 keys a device shard
//	                    stand on 7 chunks, 1792 slots
//	payload        8    the encoded value, the record's Val
//	node         +16    the index entry carries the payload id beside the
//	                    value: 56 bytes, the 64-byte class
//	batch          8.9  the id in its epoch's batch, a slice grown by append
//	                    to 110 592 entries (no advancer runs here)
//
// 118.3. With the tier started the ceilings are the arithmetic with every
// stripe on the larger array, whose slack also covers what a run allocates
// once whatever its key count (the worker's scratch and spare descriptor; on
// txmontage the epoch system's batch ring: 0.2 KB on medley, 4 KB on
// txmontage). Without it the arithmetic has no slack, so the ceilings add
// 8 KB spread over the keys for that.
const (
	residentKey         = 48
	residentKeySnapshot = residentKey + 32 + 22
	montageKey          = 118.3
)

func TestBudgetResidentKey(t *testing.T) {
	if raceEnabled {
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
		{"medley-sharded", false, residentKey + once},
		{"txmontage", false, residentKey + montageKey + once},
		{"medley", true, residentKeySnapshot},
		{"medley-sharded", true, residentKeySnapshot},
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
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	const n = 100_000
	for _, c := range []struct {
		engine   string
		snapshot bool
		ceiling  float64
	}{
		{"medley", false, 1.5 * residentKey},
		{"medley-sharded", false, 1.5 * residentKey},
		{"medley", true, 1.5 * residentKeySnapshot},
		{"medley-sharded", true, 1.5 * residentKeySnapshot},
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
