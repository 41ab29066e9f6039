package core_test

import (
	"testing"

	"medley/internal/core"
	"medley/internal/structures/mhash"
)

// Deterministic allocation budgets for the core layer: what one transaction
// allocates, as an exact count and a ceiling in bytes. Nothing here depends
// on timing, the collector or the scheduler — the session's scratch and spare
// descriptor are its own — so a change that moves a number moved the design.
// Sizes are Go's malloc size classes (…16, 24, 32, 48, 64 … 112 … 352 …).
//
//	header      112  core.Desc (104 bytes of fields)
//	read copy    24n the frozen read set, n entries of {Obj, tag}, rounded up
//	write copy   16n the frozen write set, n Obj, rounded up
//	cell         48  for CASObj[int]: 24 header + value + old value
//	             64  for mlist's marked reference (two words each)
//
// Every critical CAS allocates two cells: the one that installs the
// descriptor and the one that uninstalls it at commit or abort.

// budget pins f to exactly allocs allocations and at most bytes bytes a call.
func budget(t *testing.T, f func(), allocs float64, bytes int64) {
	t.Helper()
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	f() // grow the session's scratch and slices to their steady state
	if got := testing.AllocsPerRun(100, f); got != allocs {
		t.Errorf("%v allocations per transaction, budget exactly %v", got, allocs)
	}
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			f()
		}
	})
	if got := r.MemBytes / uint64(r.N); int64(got) > bytes {
		t.Errorf("%d B per transaction, budget %d", got, bytes)
	}
}

// A transaction that installs nothing is never reachable from another
// goroutine: it runs on the session's spare descriptor and scratch.
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
// structure on top: header 112 + read copy 24 + write copy 16 + 2 cells × 48.
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
	}, 5, 112+24+16+2*48)
}

// Linking is one allocation for up to four members (TxGroup, 64 bytes with
// its inline member array); each member is reachable and pays its header.
func TestBudgetLinkedPair(t *testing.T) {
	ss := []*core.Session{core.NewTxManager().Session(), core.NewTxManager().Session()}
	budget(t, func() {
		ss[0].TxBegin()
		ss[1].TxBegin()
		core.LinkTxs(ss)
		if err := core.CommitLinked(ss); err != nil {
			t.Fatal(err)
		}
	}, 3, 64+2*112)
}

// The same on mhash, where the structure's own allocations ride along. A
// Put that replaces a value costs, outside core's two cells:
//
//	node          24  key, value, next
//	next.Store    64  the cell that initialises the new node's successor
//	cleanup       64  the deferred-unlink closure (function + six captures)
//	unlink CAS    64  the post-commit cell that snips the victim out
//
// 216 bytes in 4 allocations, so 344 in 6 with the install/uninstall pair.
// A Get of a present key records two reads (predecessor link and the node's
// own successor), of an absent key one.
const putAllocs, putBytes = 6, 24 + 64 + 64 + 64 + 2*64

func newBudgetMap(s *core.Session) *mhash.Map[uint64, uint64] {
	m := mhash.NewUint64[uint64](1 << 10)
	for k := uint64(0); k < 64; k += 2 { // even keys present, odd absent
		m.Put(s, k, k)
	}
	return m
}

// Get(absent) + Put(present): header + 1-entry read copy + 1-entry write
// copy + one Put.
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
	}, 3+putAllocs, 112+24+16+putBytes)
}

// Ten operations — six Gets that hit, two that miss, two Puts: 14 reads
// (336 bytes, the 352 class) and 2 writes (32). The read-to-write mix is the
// paper's 2:1:1 at the long end of its 1–10 operation range.
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
	}, 3+2*putAllocs, 112+352+32+2*putBytes)
}
