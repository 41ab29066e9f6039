package msqueue

import (
	"testing"

	"medley/internal/allocs"
	"medley/internal/core"
)

// What a committed Enqueue and Dequeue allocate. Each registers its cleanup
// with the session as a record, in a slice that keeps its capacity, and so
// allocates nothing for it; as a closure it cost one allocation more.
//
//	enqueue   3 allocations, 64 B: the node 16, the 24-byte cell the linking
//	          CAS installs in the old tail's next, and after commit the one
//	          the tail swings to
//	dequeue   1 allocation, 24 B: the cell the CAS installs in the head
func TestBudgetCleanup(t *testing.T) {
	if allocs.Race {
		t.Skip("the race detector allocates on its own account")
	}
	s := core.NewTxManager().Session()
	q := New[uint64]()
	commit := func(op func()) func() {
		return func() {
			s.TxBegin()
			op()
			if err := s.TxEnd(); err != nil {
				t.Fatal(err)
			}
		}
	}
	enqueue := commit(func() { q.Enqueue(s, 1) })
	dequeue := commit(func() {
		if _, ok := q.Dequeue(s); !ok {
			t.Fatal("queue empty")
		}
	})
	enqueue() // grow the descriptor's sets and the session's slices
	dequeue()
	q.Enqueue(s, 0) // the dequeues below never take the queue's last node

	if n, b := allocs.Count(100, enqueue); n != 3 || b != 64 {
		t.Errorf("an enqueue allocates %d times, %d B: want 3, 64 B", n, b)
	}
	if n, b := allocs.Count(100, dequeue); n != 1 || b != 24 {
		t.Errorf("a dequeue allocates %d times, %d B: want 1, 24 B", n, b)
	}
}
