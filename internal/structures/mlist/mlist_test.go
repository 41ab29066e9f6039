package mlist

import (
	"testing"

	"medley/internal/core"
)

func newSession() *core.Session {
	return core.NewTxManager().Session()
}

func TestRangeStopsEarly(t *testing.T) {
	l := New[int, int]()
	s := newSession()
	for k := 0; k < 10; k++ {
		l.Insert(s, k, k)
	}
	n := 0
	l.Range(func(k, v int) bool { n++; return n < 3 })
	if n != 3 {
		t.Fatalf("Range visited %d, want 3", n)
	}
}

func TestValueTypesImmutableNodesPointerValues(t *testing.T) {
	type row struct{ a, b int }
	l := New[int, *row]()
	s := newSession()
	r := &row{1, 2}
	l.Put(s, 1, r)
	got, ok := l.Get(s, 1)
	if !ok || got != r {
		t.Fatal("pointer value round-trip failed")
	}
}
