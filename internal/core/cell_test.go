package core

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"
)

// TestCellSize pins the cell to two header words and its value: 24 bytes
// around a one-word value (mlist's marked reference is one too: its
// node_test.go pins the cell and the node that carries it).
func TestCellSize(t *testing.T) {
	if sz := unsafe.Sizeof(Cell[int]{}); sz != 24 {
		t.Fatalf("Cell[int] is %d bytes, want 24", sz)
	}
}

// supplies names the two ways a CAS gets its cell: it allocates one, or its
// caller hands it one (NbtcCASIn) that has never been published.
var supplies = []struct {
	name string
	cell func() *Cell[int]
}{
	{"allocated", func() *Cell[int] { return nil }},
	{"caller's", func() *Cell[int] { return new(Cell[int]) }},
}

// txWriteIn is txWrite publishing in (nil: a cell the CAS allocates), and
// checks that the slot holds in after it.
func txWriteIn(t *testing.T, s *Session, o *CASObj[int], from int, in *Cell[int], to int) {
	t.Helper()
	if !o.NbtcCASIn(s, from, in, to, true, true) {
		t.Fatalf("install %d→%d failed", from, to)
	}
	if in != nil && cellOf(o) != &in.c {
		t.Fatalf("install %d→%d did not publish the caller's cell", from, to)
	}
}

// TestCommitInPlace: the cell a critical CAS installs is the cell that holds
// the committed value — same pointer, descriptor and overwritten cell let go
// — whether the owner or a helper sweeps it, and whether the CAS allocated
// the cell or its caller supplied it.
func TestCommitInPlace(t *testing.T) {
	for _, sup := range supplies {
		for _, byHelper := range []bool{false, true} {
			s := NewTxManager().Session()
			var o CASObj[int]
			o.Store(1)
			s.TxBegin()
			txWriteIn(t, s, &o, 1, sup.cell(), 2)
			c := cellOf(&o)
			if c.owner() != s.desc || c.prev == nil {
				t.Fatal("installed cell does not carry its descriptor and the cell it replaced")
			}
			if byHelper {
				h := parkHelper(&o, cellLoaded)
				s.desc.status.CompareAndSwap(uint32(InPrep), uint32(InProg))
				h.run()
				wantSettled(t, "o (swept by the helper)", &o, 2)
			}
			if err := s.TxEnd(); err != nil {
				t.Fatal(err)
			}
			if cellOf(&o) != c {
				t.Fatalf("commit (%s cell, by helper: %v) replaced the installed cell", sup.name, byHelper)
			}
			wantSettled(t, "o", &o, 2)
		}
	}
}

// TestCommitInPlaceRetainsOneCell runs a 10 000-commit chain on one object
// and checks that the first committed cell is collected: a cell that kept
// prev after commit would pin every version the object ever held.
func TestCommitInPlaceRetainsOneCell(t *testing.T) {
	s := NewTxManager().Session()
	var o CASObj[int]
	bump := func(v int) {
		s.TxBegin()
		txWrite(t, s, &o, v, v+1)
		if err := s.TxEnd(); err != nil {
			t.Fatal(err)
		}
	}
	bump(0)
	collected := make(chan struct{})
	runtime.SetFinalizer(cellOf(&o), func(*cell[int]) { close(collected) })
	for v := 1; v <= 10000; v++ {
		bump(v)
	}
	for deadline := time.Now().Add(10 * time.Second); ; {
		runtime.GC()
		select {
		case <-collected:
			wantSettled(t, "o", &o, 10001) // and o, with its current cell, is still in use here
			return
		case <-time.After(10 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("the first committed cell is still reachable after 10 000 later commits")
		}
	}
}

// TestAbortRestoresOverwrittenCell: an install that aborts — by its owner,
// by a helper that found it InPrep, after a second write of its own to the
// same object — leaves the slot holding the identical cell it replaced (nil
// included), so a transaction that read the object before the install still
// commits; and so whether the installs allocated their cells or their caller
// supplied them.
func TestAbortRestoresOverwrittenCell(t *testing.T) {
	for _, sup := range supplies {
		for _, stored := range []bool{true, false} {
			abortRestores(t, sup.name, sup.cell, stored)
		}
	}
}

func abortRestores(t *testing.T, supply string, in func() *Cell[int], stored bool) {
	mgr := NewTxManager()
	a, reader := mgr.Session(), mgr.Session()
	var o, y CASObj[int]
	v := 0
	if stored {
		v = 5
		o.Store(v)
	}
	before := cellOf(&o)
	wantRestored := func(how string) {
		t.Helper()
		if cellOf(&o) != before {
			t.Fatalf("%s cells, stored=%v: slot does not hold the overwritten cell after %s", supply, stored, how)
		}
	}

	reader.TxBegin()
	txRead(reader, &o)
	txWrite(t, reader, &y, 0, 1)

	a.TxBegin()
	txWriteIn(t, a, &o, v, in(), v+1)
	a.TxAbort()
	wantRestored("the owner's abort")

	a.TxBegin()
	txWriteIn(t, a, &o, v, in(), v+1)
	if got := o.Load(); got != v { // a plain load helps: aborts the InPrep descriptor
		t.Fatalf("helper read %d, want %d", got, v)
	}
	wantRestored("a helper's abort")
	if err := a.TxEnd(); !errors.Is(err, ErrTxAborted) {
		t.Fatalf("TxEnd = %v after a helper's abort", err)
	}
	wantRestored("the aborted owner's sweep")

	// Two writes of one transaction to one object: the second replaces
	// the first's cell and inherits what it was installed over.
	a.TxBegin()
	txWriteIn(t, a, &o, v, in(), v+1)
	txWriteIn(t, a, &o, v+1, in(), v+2)
	if got, tag := o.NbtcLoad(a); got != v+2 || unsafe.Pointer(tag) != unsafe.Pointer(before) {
		t.Fatalf("own read = %d (tag is the overwritten cell: %v), want %d", got, unsafe.Pointer(tag) == unsafe.Pointer(before), v+2)
	}
	a.TxAbort()
	wantRestored("an own-overwrite abort")

	if err := reader.TxEnd(); err != nil {
		t.Fatalf("%s cells, stored=%v: a reader from before the aborted installs = %v, want commit", supply, stored, err)
	}
	wantSettled(t, "o", &o, v)

	// And the same two writes committed: one cell, nothing pinned.
	a.TxBegin()
	txWriteIn(t, a, &o, v, in(), v+1)
	txWriteIn(t, a, &o, v+1, in(), v+2)
	if err := a.TxEnd(); err != nil {
		t.Fatal(err)
	}
	wantSettled(t, "o", &o, v+2)
}

// TestLostInstallLeavesNoDescriptor: a critical install of a caller's cell
// that loses its CAS writes its descriptor and the cell it meant to replace
// into the cell before it fails, and the cell, never published, may go to a
// later CAS. A non-critical CAS that publishes it must name no descriptor:
// one that still named the aborted transaction's would have the next reader
// abort whatever transaction now runs on that descriptor and swing the slot
// back to the leftover prev, taking the write with it.
//
// The install loses to a goroutine that keeps storing the same value, so the
// loss is a race, but what follows it is fixed: each attempt takes a fresh
// cell (a won install published its cell), and the first that returns false
// lost its CAS, since the value never changes.
func TestLostInstallLeavesNoDescriptor(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	const v = 5
	s := NewTxManager().Session()
	var o CASObj[int]
	o.Store(v)
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			o.Store(v)
		}
	}()
	var lost *Cell[int]
	var lostTo *Desc
	for deadline := time.Now().Add(time.Minute); lost == nil && time.Now().Before(deadline); {
		in := new(Cell[int])
		s.TxBegin()
		d := s.desc
		if !o.NbtcCASIn(s, v, in, v+1, true, true) {
			lost, lostTo = in, d
		}
		s.TxAbort()
	}
	stop.Store(true)
	wg.Wait()
	if lost == nil {
		t.Fatal("no install lost its CAS in a minute")
	}
	if lost.c.owner() != lostTo {
		t.Fatal("the lost install left no descriptor in its cell: the scenario did not happen")
	}

	if !o.CASIn(v, lost, v+1) {
		t.Fatal("the non-critical CAS failed")
	}
	if cellOf(&o) != &lost.c {
		t.Fatal("the non-critical CAS did not publish the caller's cell")
	}
	s.TxBegin() // a transaction on the descriptor the leftover would name
	if got := o.Load(); got != v+1 {
		t.Fatalf("read %d after the non-critical CAS, want %d: the published cell named a descriptor", got, v+1)
	}
	if err := s.TxEnd(); err != nil {
		t.Fatalf("a transaction beside the published cell = %v", err)
	}
	wantSettled(t, "o", &o, v+1)
}
