package mhash

import (
	"testing"

	"medley/internal/core"
)

func TestSingleBucketDegenerate(t *testing.T) {
	// All keys collide: the table degenerates to one ordered list and must
	// still be correct.
	m := New[uint64, int](1, func(uint64) uint64 { return 0 })
	s := core.NewTxManager().Session()
	for k := uint64(0); k < 100; k++ {
		if !m.Insert(s, k, int(k)) {
			t.Fatalf("insert %d failed", k)
		}
	}
	if m.Len() != 100 {
		t.Fatalf("Len = %d", m.Len())
	}
	for k := uint64(0); k < 100; k += 2 {
		m.Remove(s, k)
	}
	if m.Len() != 50 {
		t.Fatalf("Len = %d after removes", m.Len())
	}
}
