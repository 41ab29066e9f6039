package rskiplist

import (
	"testing"

	"medley/internal/allocs"
	"medley/internal/core"
)

// What a committed update allocates, on keys whose height is one level, so
// that no upper wheel slot is linked or swept (a height follows from the
// key). Each update registers its cleanup with the session as a record, in a
// slice that keeps its capacity, and so allocates nothing for it; as a
// closure it cost one allocation more. Cells here are 32 bytes: desc, prev
// and a two-word Ref.
//
//	remove    2 allocations, 64 B: the cell the marking CAS installs in the
//	          victim's bottom slot, and the one the post-commit sweep
//	          publishes in its predecessor
//	replace   4 allocations, 320 B: the node 224 with its wheel inline, the
//	          cell its successor is stored in, the install, and the cell the
//	          post-commit unlink publishes in the victim's predecessor
func TestBudgetCleanup(t *testing.T) {
	if allocs.Race {
		t.Skip("the race detector allocates on its own account")
	}
	s := core.NewTxManager().Session()
	sl := New[uint64]()
	var flat []uint64 // keys of height one level
	for k := uint64(0); len(flat) < 128; k++ {
		sl.Put(s, k, k)
		if heightOf(k) == 0 {
			flat = append(flat, k)
		}
	}
	commit := func(op func()) func() {
		return func() {
			s.TxBegin()
			op()
			if err := s.TxEnd(); err != nil {
				t.Fatal(err)
			}
		}
	}
	replace := commit(func() { sl.Put(s, flat[0], 0) })
	remove := commit(func() {
		sl.Remove(s, flat[0])
		flat = flat[1:]
	})
	replace() // grow the descriptor's sets and the session's slices
	remove()

	if n, b := allocs.Count(100, replace); n != 4 || b != 320 {
		t.Errorf("a replace allocates %d times, %d B: want 4, 320 B", n, b)
	}
	if n, b := allocs.Count(100, remove); n != 2 || b != 64 {
		t.Errorf("a remove allocates %d times, %d B: want 2, 64 B", n, b)
	}
}
