package nmbst

import (
	"testing"

	"medley/internal/core"
)

func newSession() *core.Session { return core.NewTxManager().Session() }

func TestDeleteInteriorShapes(t *testing.T) {
	// Exercise splices with siblings that are leaves and subtrees.
	tr := New[int]()
	s := newSession()
	for _, k := range []uint64{50, 25, 75, 12, 37, 62, 87} {
		tr.Insert(s, k, int(k))
	}
	for _, k := range []uint64{25, 75, 50, 12, 87, 37, 62} {
		if _, ok := tr.Remove(s, k); !ok {
			t.Fatalf("remove %d failed", k)
		}
		if _, ok := tr.Get(s, k); ok {
			t.Fatalf("key %d visible after remove", k)
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

// TestReadOfPendingDeleteValidates: a transaction reads k absent while the
// edge above k's leaf is flagged (its delete linearized, the splice not yet
// done); another session then splices the parent out, inserts k and then j.
// The transaction that goes on to read j present cannot commit having read k
// absent: its read of k must be validated on an edge the splice changes.
func TestReadOfPendingDeleteValidates(t *testing.T) {
	tr := New[int]()
	tm := core.NewTxManager()
	s, other := tm.Session(), tm.Session()
	tr.Insert(s, 10, 10)
	tr.Insert(s, 20, 20)
	r := tr.seek(s, 20)
	r.parObj.Store(edge[int]{n: r.leaf, flag: true})
	attempts := 0
	var sawK, sawJ bool
	if err := s.Run(func() error {
		attempts++
		_, sawK = tr.Get(s, 20)
		if attempts == 1 {
			tr.Insert(other, 20, 21)
			tr.Insert(other, 50, 50)
		}
		_, sawJ = tr.Get(s, 50)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if sawJ && !sawK {
		t.Fatalf("committed a read of 20 absent and of 50 present, after %d attempts", attempts)
	}
}

func TestSentinelKeysRejectedGracefully(t *testing.T) {
	tr := New[int]()
	s := newSession()
	// MaxKey is storable; sentinel range is not expected to be used but the
	// structure must not corrupt if MaxKey itself is exercised.
	if !tr.Insert(s, MaxKey, 1) {
		t.Fatal("MaxKey insert failed")
	}
	if v, ok := tr.Get(s, MaxKey); !ok || v != 1 {
		t.Fatalf("MaxKey get = %d,%v", v, ok)
	}
	if _, ok := tr.Remove(s, MaxKey); !ok {
		t.Fatal("MaxKey remove failed")
	}
}
