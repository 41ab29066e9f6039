package mlist

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"medley/internal/core"
)

type uref = Ref[uint64, uint64]

// montageEntry has the shape of montage's index entry for uint64 values: the
// value and its payload id.
type montageEntry struct{ val, pid uint64 }

var sink any

// allocated is the bytes the allocator hands out for one object from f: its
// size class.
func allocated(f func() any) uint64 {
	const n = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		sink = f()
	}
	runtime.ReadMemStats(&after)
	sink = nil
	return (after.TotalAlloc - before.TotalAlloc) / n
}

// TestSizes pins a link at one word, the cell around it at 24 bytes and the
// node that carries that cell at the 48-byte size class with uint64 keys and
// values: slot, cell and node on one cache line. Montage's index entry puts a
// payload id beside the value: 56 bytes, the 64-byte class.
func TestSizes(t *testing.T) {
	if sz := unsafe.Sizeof(uref{}); sz != 8 {
		t.Errorf("Ref is %d bytes, want 8", sz)
	}
	if sz := unsafe.Sizeof(core.Cell[uref]{}); sz != 24 {
		t.Errorf("Cell[Ref] is %d bytes, want 24", sz)
	}
	if sz := unsafe.Sizeof(node[uint64, uint64]{}); sz != 48 {
		t.Errorf("node[uint64, uint64] is %d bytes, want 48", sz)
	}
	if got := allocated(func() any { return new(node[uint64, uint64]) }); got != 48 {
		t.Errorf("a node[uint64, uint64] takes %d bytes of heap, want 48", got)
	}
	if got := allocated(func() any { return new(node[uint64, montageEntry]) }); got != 64 {
		t.Errorf("a montage index node takes %d bytes of heap, want 64", got)
	}
}

// TestRefRoundTrip: marking keeps the node a link points at, a nil included.
func TestRefRoundTrip(t *testing.T) {
	n := new(node[uint64, uint64])
	for _, r := range []uref{to(n), {}} {
		m := r.mark()
		if r.marked() || !m.marked() || m.node() != r.node() || m == r {
			t.Fatalf("%v: marked %v, unmarked node %p, marked node %p", r, m.marked(), r.node(), m.node())
		}
	}
}

// cellAt is the cell o's slot holds, resolved.
func cellAt(o *core.CASObj[uref]) unsafe.Pointer {
	_, tag := o.NbtcLoad(nil)
	return unsafe.Pointer(tag)
}

func nodeOf(t *testing.T, l *List[uint64, uint64], k uint64) *node[uint64, uint64] {
	t.Helper()
	_, _, n, _, _, found := l.find(nil, k)
	if !found {
		t.Fatalf("key %d missing", k)
	}
	return n
}

// wantOwnCell asserts that slot holds the cell n carries, around a link to n.
func wantOwnCell(t *testing.T, what string, slot *core.CASObj[uref], n *node[uint64, uint64]) {
	t.Helper()
	if cellAt(slot) != unsafe.Pointer(&n.in) {
		t.Fatalf("%s: the slot that links key %d does not hold the node's own cell", what, n.key)
	}
	if slot.Load() != to(n) {
		t.Fatalf("%s: the slot does not link key %d", what, n.key)
	}
}

// TestOwnCellLinksNode: an Insert publishes the new node's own cell in its
// predecessor, and so does the cleanup after a Put that replaced a node, in a
// transaction or not: the link that stays is one object with the node.
func TestOwnCellLinksNode(t *testing.T) {
	l := New[uint64, uint64]()
	s := newSession()
	l.Insert(s, 1, 1)
	l.Insert(s, 3, 3)
	n1 := nodeOf(t, l, 1)
	wantOwnCell(t, "insert at the head", &l.head, n1)
	wantOwnCell(t, "insert at the tail", &n1.next, nodeOf(t, l, 3))
	l.Insert(s, 2, 2)
	n2 := nodeOf(t, l, 2)
	wantOwnCell(t, "insert in the middle", &n1.next, n2)

	if _, replaced := l.Put(s, 2, 20); !replaced {
		t.Fatal("Put did not replace key 2")
	}
	n2 = nodeOf(t, l, 2)
	wantOwnCell(t, "standalone replace", &n1.next, n2)

	if err := s.Run(func() error { l.Put(s, 3, 30); return nil }); err != nil {
		t.Fatal(err)
	}
	wantOwnCell(t, "replace in a transaction", &n2.next, nodeOf(t, l, 3))

	if _, replaced := l.Put(s, 4, 4); replaced {
		t.Fatal("Put replaced an absent key")
	}
	wantOwnCell(t, "Put that inserts", &nodeOf(t, l, 3).next, nodeOf(t, l, 4))
}

// TestMarkedNilSurvives: removing a tail node marks a nil successor, and the
// mark holds through the speculative install, the commit and the cleanup.
func TestMarkedNilSurvives(t *testing.T) {
	l := New[uint64, uint64]()
	s := newSession()
	l.Insert(s, 1, 1)
	tail := nodeOf(t, l, 1)
	s.TxBegin()
	if _, ok := l.Remove(s, 1); !ok {
		t.Fatal("Remove missed the tail")
	}
	if r, _ := tail.next.NbtcLoad(s); !r.marked() || r.node() != nil {
		t.Fatalf("the removed tail's speculative successor: marked %v, node %p; want a marked nil", r.marked(), r.node())
	}
	if _, ok := l.Get(s, 1); ok {
		t.Fatal("the transaction still sees the key it removed")
	}
	if err := s.TxEnd(); err != nil {
		t.Fatal(err)
	}
	if r := tail.next.Load(); !r.marked() || r.node() != nil {
		t.Fatalf("the removed tail's successor: marked %v, node %p; want a marked nil", r.marked(), r.node())
	}
	if l.Len() != 0 || l.head.Load() != (uref{}) {
		t.Fatalf("list holds %v after removing its only key", l.Keys())
	}
}

// TestLostReplaceInsertsOnce: a Put that finds its key, loses the replace CAS
// to a Remove of that key and inserts after all publishes its node's own cell
// once, in the predecessor, and nowhere else.
//
// The list starts as 5 → 9, 9 marked but still linked, so a Put of 5 that
// finds 5 replaces in front of 9 and writes 9 into its node's next (a cell),
// while one that finds 5 gone inserts at the end (nil, no cell). A node that
// ends up inserted with a cell in its next therefore lost a replace first.
// Whether a Remove lands inside that window is a race, so the test repeats it
// until it has seen the case enough times.
func TestLostReplaceInsertsOnce(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	const want = 20
	seen := 0
	for deadline := time.Now().Add(time.Minute); seen < want && time.Now().Before(deadline); {
		l := New[uint64, uint64]()
		s, r := newSession(), newSession()
		l.Insert(s, 5, 5)
		l.Insert(s, 9, 9)
		n9 := nodeOf(t, l, 9)
		n9.next.Store(n9.next.Load().mark())

		var start atomic.Bool
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !start.Load() {
			}
			l.Remove(r, 5)
		}()
		start.Store(true)
		_, replaced := l.Put(s, 5, 50)
		wg.Wait()
		if replaced {
			continue
		}
		nn := nodeOf(t, l, 5)
		if cellAt(&nn.next) == nil {
			continue // it found 5 gone: no replace to lose
		}
		seen++
		wantOwnCell(t, "insert after a lost replace", &l.head, nn)
		if nx := nn.next.Load(); nx != (uref{}) {
			t.Fatalf("the inserted node links %p, want the end of the list", nx.node())
		}
		if l.Len() != 1 {
			t.Fatalf("list holds %v, want [5]", l.Keys())
		}
	}
	if seen < want {
		t.Fatalf("a Put lost its replace and inserted %d times in a minute, want %d", seen, want)
	}
}
