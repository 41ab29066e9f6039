package nmbst

import (
	"testing"

	"medley/internal/allocs"
	"medley/internal/core"
)

// What a committed update allocates. A replace leaves its old leaf to the
// collector and registers nothing; a remove registers the splice with the
// session as a record, in a slice that keeps its capacity. Neither allocates
// for its cleanup; each closure cost one allocation more. Cells here are 32
// bytes: desc, prev and a two-word edge.
//
//	replace   2 allocations, 80 B: the new leaf 48 and the cell the edge CAS
//	          installs
//	insert    4 allocations, 160 B: the new leaf 48, the internal node 48,
//	          the cell of its edge to the new leaf, and the install. Its edge
//	          to the old leaf costs nothing: it starts on the parent edge's
//	          committed cell, which the install displaces
//	          (core.CASObj.InitFrom); stored with Store it was one 32-byte
//	          cell more, 5 and 192 B
//	remove    3 allocations, 96 B: the cell the flagging CAS installs, and
//	          after commit the cells of the sibling's tag and of the splice
func TestBudgetCleanup(t *testing.T) {
	if allocs.Race {
		t.Skip("the race detector allocates on its own account")
	}
	s := core.NewTxManager().Session()
	tr := New[uint64]()
	for k := uint64(0); k < 256; k++ {
		tr.Put(s, k*7919%256, k)
	}
	next := uint64(0)
	commit := func(op func()) func() {
		return func() {
			s.TxBegin()
			op()
			if err := s.TxEnd(); err != nil {
				t.Fatal(err)
			}
		}
	}
	replace := commit(func() { tr.Put(s, 255, 0) })
	fresh := uint64(256)
	insert := commit(func() {
		if !tr.Insert(s, fresh, fresh) {
			t.Fatalf("key %d present", fresh)
		}
		fresh++
	})
	remove := commit(func() {
		if _, ok := tr.Remove(s, next); !ok {
			t.Fatalf("key %d missing", next)
		}
		next++
	})
	replace() // grow the descriptor's sets and the session's slices
	insert()
	remove()

	if n, b := allocs.Count(100, replace); n != 2 || b != 80 {
		t.Errorf("a replace allocates %d times, %d B: want 2, 80 B", n, b)
	}
	if n, b := allocs.Count(100, insert); n != 4 || b != 160 {
		t.Errorf("an insert allocates %d times, %d B: want 4, 160 B", n, b)
	}
	if n, b := allocs.Count(100, remove); n != 3 || b != 96 {
		t.Errorf("a remove allocates %d times, %d B: want 3, 96 B", n, b)
	}
}
