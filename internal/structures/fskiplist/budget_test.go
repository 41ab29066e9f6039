package fskiplist

import (
	"testing"

	"medley/internal/allocs"
	"medley/internal/core"
)

// What a committed update allocates, on towers of one level: a tower's
// height is random, and so is what building and sweeping its express lanes
// costs, but a one-level tower has none. Each update registers its cleanup
// with the session as a record, in a slice that keeps its capacity, and so
// allocates nothing for it; as a closure it cost one allocation more. Cells
// here are 32 bytes: desc, prev and a two-word Ref.
//
//	remove    2 allocations, 64 B: the cell the marking CAS installs in the
//	          victim's bottom link, and the one the post-commit sweep
//	          publishes in its predecessor
//	replace   4 allocations, 120 B: the node 48, its one-slot next array 8,
//	          the install, and the cell the post-commit unlink publishes in
//	          the victim's predecessor. The node's successor link costs
//	          nothing: it starts on the victim's committed successor cell,
//	          which the install displaces (core.CASObj.InitFrom); stored
//	          with Store it was one 32-byte cell more, 5 and 152 B
func TestBudgetCleanup(t *testing.T) {
	if allocs.Race {
		t.Skip("the race detector allocates on its own account")
	}
	s := core.NewTxManager().Session()
	sl := New[uint64, uint64]()
	level := func(k uint64) int {
		r, found := sl.find(nil, k)
		if !found {
			t.Fatalf("key %d missing", k)
		}
		return r.curr.level
	}
	var flat []uint64 // keys on one-level towers
	for k := uint64(0); k < 2048; k++ {
		sl.Put(s, k, k)
		if level(k) == 0 {
			flat = append(flat, k)
		}
	}
	commit := func(op func(k uint64)) func() {
		return func() {
			s.TxBegin()
			op(flat[0])
			flat = flat[1:]
			if err := s.TxEnd(); err != nil {
				t.Fatal(err)
			}
		}
	}
	remove := commit(func(k uint64) { sl.Remove(s, k) })
	replace := commit(func(k uint64) { sl.Put(s, k, 0) })
	replace() // grow the descriptor's sets and the session's slices
	remove()

	if n, b := allocs.Count(100, remove); n != 2 || b != 64 {
		t.Errorf("a remove allocates %d times, %d B: want 2, 64 B", n, b)
	}
	// A replacement's height is drawn when it is built, so a replace is
	// counted one at a time and only where the replacement has one level.
	for counted := 0; counted < 100; {
		if len(flat) == 0 {
			t.Fatalf("%d of the replacements had one level, want 100", counted)
		}
		k := flat[0]
		n, b := allocs.Count(1, replace)
		if level(k) != 0 {
			continue
		}
		if n != 4 || b != 120 {
			t.Fatalf("a replace allocates %d times, %d B: want 4, 120 B", n, b)
		}
		counted++
	}
}

// The same on NewRotating's layout, on keys whose height is one level (a
// height follows from the key, so these are counted a hundred at a time).
//
//	remove    2 allocations, 64 B, as above
//	replace   3 allocations, 272 B: the node 208 with its wheel of MaxLevel
//	          slots inline, the install, and the unlink's cell. Its
//	          successor link starts on the displaced cell, as above
func TestBudgetCleanupRotating(t *testing.T) {
	if allocs.Race {
		t.Skip("the race detector allocates on its own account")
	}
	s := core.NewTxManager().Session()
	sl := NewRotating[uint64]()
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

	if n, b := allocs.Count(100, replace); n != 3 || b != 272 {
		t.Errorf("a replace allocates %d times, %d B: want 3, 272 B", n, b)
	}
	if n, b := allocs.Count(100, remove); n != 2 || b != 64 {
		t.Errorf("a remove allocates %d times, %d B: want 2, 64 B", n, b)
	}
}
