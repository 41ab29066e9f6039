package fskiplist

import (
	"sync/atomic"
	"testing"
)

// omkNode and olink build towers by hand for the dead-node tests below, the
// untransformed twins of the ones in fskiplist_test.go.
func omkNode(k uint64, lvl int) *onode[uint64, int] {
	n := &onode[uint64, int]{key: k, val: int(k), next: make([]atomic.Pointer[oref[uint64, int]], lvl+1), level: lvl}
	for i := range n.next {
		n.next[i].Store(&oref[uint64, int]{})
	}
	return n
}

func olink(from *onode[uint64, int], lvl int, to *onode[uint64, int], marked bool) {
	from.next[lvl].Store(&oref[uint64, int]{to, marked})
}

// TestOriginalFindStopsDeadWalkAtKey is TestFindStopsDeadWalkAtKey's state on
// the untransformed list: P(10) replaced by P' and Q(20) by Q' under a search
// that stands on P, live above and dead below. Walking through Q without
// looking at its key puts the search past 15; snipping Q through P's dead
// level-1 edge instead clears that edge's mark.
func TestOriginalFindStopsDeadWalkAtKey(t *testing.T) {
	sl := NewOriginal[uint64, int]()
	p, p2, x, q, q2 := omkNode(10, 2), omkNode(10, 0), omkNode(15, 0), omkNode(20, 1), omkNode(20, 0)
	for lvl := 0; lvl <= 2; lvl++ {
		olink(sl.head, lvl, p, false)
	}
	olink(p, 1, q, true)
	olink(p, 0, p2, true)
	olink(p2, 0, x, false)
	olink(x, 0, q, false)
	olink(q, 1, nil, true)
	olink(q, 0, q2, true)

	for _, k := range []uint64{10, 15, 20} {
		if v, ok := sl.Get(k); !ok || v != int(k) {
			t.Fatalf("Get(%d) = %d, %v with the key present", k, v, ok)
		}
	}
	if _, ok := sl.Get(17); ok {
		t.Fatal("Get(17) found a key that is absent")
	}
	if !p.next[1].Load().marked || !p.next[0].Load().marked {
		t.Fatal("a search cleared a mark on the dead node it stood on")
	}
}

// TestOriginalFindTakesNoPositionThroughADeadEdge: P(10) was removed when its
// successor was R(30), snipped from the bottom level, and X(20) inserted where
// it had been, all before P's remover got to the rest of its tower. P's bottom
// edge is frozen at R, so a search that comes down P's tower sees 20 absent.
func TestOriginalFindTakesNoPositionThroughADeadEdge(t *testing.T) {
	sl := NewOriginal[uint64, int]()
	p, x, r := omkNode(10, 1), omkNode(20, 0), omkNode(30, 0)
	olink(sl.head, 1, p, false)
	olink(sl.head, 0, x, false)
	olink(x, 0, r, false)
	olink(p, 0, r, true)

	if v, ok := sl.Get(20); !ok || v != 20 {
		t.Fatalf("Get(20) = %d, %v with the key present", v, ok)
	}
	if !p.next[1].Load().marked {
		t.Fatal("the search left the dead tower unmarked: the next one comes down it again")
	}
	if _, ok := sl.Get(25); ok {
		t.Fatal("Get(25) found a key that is absent")
	}
	if !sl.Insert(25, 25) {
		t.Fatal("Insert(25) failed with the key absent")
	}
	if got := sl.Len(); got != 3 {
		t.Fatalf("Len = %d after inserting 25 beside 20 and 30, want 3", got)
	}
}

// TestOriginalFindKeepsADeadEdgeMarked stands find on a marked edge whose
// successor is dead too: P(10), removed and snipped from the bottom but still
// routed above, points at Q(20), removed after it. Snipping Q through P's edge
// would store an unmarked reference into a dead node: P would be back.
func TestOriginalFindKeepsADeadEdgeMarked(t *testing.T) {
	sl := NewOriginal[uint64, int]()
	p, q, r := omkNode(10, 1), omkNode(20, 0), omkNode(30, 0)
	olink(sl.head, 1, p, false)
	olink(sl.head, 0, r, false)
	olink(p, 0, q, true)
	olink(q, 0, r, true)

	if _, ok := sl.Get(15); ok {
		t.Fatal("Get(15) found a key that is absent")
	}
	if ref := p.next[0].Load(); !ref.marked {
		t.Fatalf("the search overwrote the mark on a removed node's edge (now → %v, unmarked): the node is back", ref.n.key)
	}
	for _, k := range []uint64{10, 20} {
		if _, ok := sl.Get(k); ok {
			t.Fatalf("Get(%d) found a removed key", k)
		}
	}
	if v, ok := sl.Get(30); !ok || v != 30 || sl.Len() != 1 {
		t.Fatalf("Get(30) = %d, %v, Len %d: want the one live key", v, ok, sl.Len())
	}
}
