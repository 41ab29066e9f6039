package core

import (
	"errors"
	"runtime"
	"testing"
	"time"
	"unsafe"
)

// markedRef has the shape of mlist.Ref, the value type of every list link.
type markedRef struct {
	n      *int
	marked bool
}

// TestCellSize pins the cell to two header words and its value: the 32-byte
// size class around a marked reference (down from 64), 24 around an int.
func TestCellSize(t *testing.T) {
	if sz := unsafe.Sizeof(cell[markedRef]{}); sz > 32 {
		t.Fatalf("cell[markedRef] is %d bytes, budget 32", sz)
	}
	if sz := unsafe.Sizeof(cell[int]{}); sz > 24 {
		t.Fatalf("cell[int] is %d bytes, budget 24", sz)
	}
}

// TestCommitInPlace: the cell a critical CAS installs is the cell that holds
// the committed value — same pointer, descriptor and overwritten cell let go
// — whether the owner or a helper sweeps it.
func TestCommitInPlace(t *testing.T) {
	for _, byHelper := range []bool{false, true} {
		s := NewTxManager().Session()
		var o CASObj[int]
		o.Store(1)
		s.TxBegin()
		txWrite(t, s, &o, 1, 2)
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
			t.Fatalf("commit (by helper: %v) replaced the installed cell", byHelper)
		}
		wantSettled(t, "o", &o, 2)
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
// commits.
func TestAbortRestoresOverwrittenCell(t *testing.T) {
	for _, stored := range []bool{true, false} {
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
				t.Fatalf("stored=%v: slot does not hold the overwritten cell after %s", stored, how)
			}
		}

		reader.TxBegin()
		txRead(reader, &o)
		txWrite(t, reader, &y, 0, 1)

		a.TxBegin()
		txWrite(t, a, &o, v, v+1)
		a.TxAbort()
		wantRestored("the owner's abort")

		a.TxBegin()
		txWrite(t, a, &o, v, v+1)
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
		txWrite(t, a, &o, v, v+1)
		txWrite(t, a, &o, v+1, v+2)
		if got, tag := o.NbtcLoad(a); got != v+2 || unsafe.Pointer(tag) != unsafe.Pointer(before) {
			t.Fatalf("own read = %d (tag is the overwritten cell: %v), want %d", got, unsafe.Pointer(tag) == unsafe.Pointer(before), v+2)
		}
		a.TxAbort()
		wantRestored("an own-overwrite abort")

		if err := reader.TxEnd(); err != nil {
			t.Fatalf("stored=%v: a reader from before the aborted installs = %v, want commit", stored, err)
		}
		wantSettled(t, "o", &o, v)

		// And the same two writes committed: one cell, nothing pinned.
		a.TxBegin()
		txWrite(t, a, &o, v, v+1)
		txWrite(t, a, &o, v+1, v+2)
		if err := a.TxEnd(); err != nil {
			t.Fatal(err)
		}
		wantSettled(t, "o", &o, v+2)
	}
}
