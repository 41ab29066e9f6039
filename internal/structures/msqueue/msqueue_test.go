package msqueue

import (
	"testing"

	"medley/internal/core"
)

// TestPeekDoesNotRemove: Peek, which the queue contract does not have (the
// contract suite, internal/structures, covers the rest), reads the head
// without taking it and finds nothing in an empty queue.
func TestPeekDoesNotRemove(t *testing.T) {
	q := New[string]()
	s := core.NewTxManager().Session()
	if _, ok := q.Peek(s); ok {
		t.Fatal("peek on empty succeeded")
	}
	q.Enqueue(s, "a")
	if v, ok := q.Peek(s); !ok || v != "a" {
		t.Fatalf("Peek = %q,%v", v, ok)
	}
	if q.Len() != 1 {
		t.Fatal("peek removed element")
	}
}
