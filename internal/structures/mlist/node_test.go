package mlist

import (
	"runtime"
	"testing"
	"unsafe"

	"medley/internal/chaos"
	"medley/internal/core"
	"medley/internal/history"
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

// TestRemoveTakesFreshCell: the unlink after a Remove links the victim's
// successor in a cell of its own. The successor's own cell went to the link
// that first pointed at it, so the unlink must not publish it again, in a
// transaction or not.
func TestRemoveTakesFreshCell(t *testing.T) {
	for _, tx := range []bool{false, true} {
		l := New[uint64, uint64]()
		s := newSession()
		for k := uint64(1); k <= 3; k++ {
			l.Insert(s, k, k)
		}
		n1, n3 := nodeOf(t, l, 1), nodeOf(t, l, 3)
		remove := func() error {
			if _, ok := l.Remove(s, 2); !ok {
				t.Fatal("Remove missed key 2")
			}
			return nil
		}
		if tx {
			if err := s.Run(remove); err != nil {
				t.Fatal(err)
			}
		} else {
			remove()
		}
		if n1.next.Load() != to(n3) {
			t.Fatalf("transaction %v: key 1 does not link key 3 after the remove of 2", tx)
		}
		if cellAt(&n1.next) == unsafe.Pointer(&n3.in) {
			t.Fatalf("transaction %v: the unlink published key 3's own cell a second time", tx)
		}
	}
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
// finds 5 replaces in front of 9, while one that finds 5 gone inserts at the
// end. The scheduler runs the Put and a Remove of 5 through every
// interleaving of mlist.put.found, where a Put that found its key waits
// before its replace CAS: where the Remove runs while the Put waits there,
// the CAS fails and the Put inserts.
func TestLostReplaceInsertsOnce(t *testing.T) {
	lost := 0
	runs, _ := history.Explore(t, []string{"mlist.put.found"}, 2, func(t *testing.T, sc *history.Sched) {
		l := New[uint64, uint64]()
		s, r := newSession(), newSession()
		l.Insert(s, 5, 5)
		l.Insert(s, 9, 9)
		n9 := nodeOf(t, l, 9)
		n9.next.Store(n9.next.Load().mark())

		var replaced, raced bool
		sc.Go(func() { _, replaced = l.Put(s, 5, 50) })
		sc.Go(func() {
			raced = sc.Parked()[0] == "mlist.put.found"
			l.Remove(r, 5)
		})
		sc.Wait()
		if !raced {
			return
		}
		lost++
		if replaced {
			t.Fatal("the Put replaced a key that a Remove took while it waited to")
		}
		nn := nodeOf(t, l, 5)
		wantOwnCell(t, "insert after a lost replace", &l.head, nn)
		if nx := nn.next.Load(); nx != (uref{}) {
			t.Fatalf("the inserted node links %p, want the end of the list", nx.node())
		}
		if l.Len() != 1 {
			t.Fatalf("list holds %v, want [5]", l.Keys())
		}
	})
	if lost == 0 {
		t.Fatalf("none of %d interleavings ran the Remove while the Put waited to replace", runs)
	}
	t.Logf("%d of %d interleavings lost the replace", lost, runs)
}

// TestUnlinkCellAbortsStaleReader is the history of core's doc.go, "Which
// cells a slot may hold", run on three lists. T reads R (key 1 of lr), then
// the predecessor of k = 5 in l with k absent (l's head, in cell C), then U
// (key 1 of lu) after W1 inserted k, its node's link starting on C, and wrote
// U. T stops in its validation once R's entries have passed, while W2 reads
// k present and writes R, and W3 removes k. T read W1's U and R before W2,
// and k absent, which it is only before W1 or after W3: no serial order has
// T, so it must abort. It does only because the unlink of k links l's head
// in a fresh cell; put C back there and T's read of the head validates. C is
// no node's own cell, so TestRemoveTakesFreshCell does not see that.
func TestUnlinkCellAbortsStaleReader(t *testing.T) {
	const point = "core.validate.entry"
	mgr := core.NewTxManager()
	lr, l, lu := New[uint64, uint64](), New[uint64, uint64](), New[uint64, uint64]()
	ts, w := mgr.Session(), mgr.Session()
	lr.Insert(w, 1, 10)
	l.Insert(w, 3, 3)
	l.Insert(w, 9, 9)
	l.Remove(w, 3) // C is the unlink's fresh cell, not a node's own
	lu.Insert(w, 1, 100)
	run := func(fn func()) error { return w.Run(func() error { fn(); return nil }) }

	ts.TxBegin()
	if v, ok := lr.Get(ts, 1); !ok || v != 10 {
		t.Fatalf("T read R = %d, %v", v, ok)
	}
	if _, ok := l.Get(ts, 5); ok {
		t.Fatal("T read k present")
	}
	c := cellAt(&l.head)
	if err := run(func() {
		l.Insert(w, 5, 5)
		lu.Put(w, 1, 200)
	}); err != nil {
		t.Fatalf("W1: %v", err)
	}
	if cellAt(&nodeOf(t, l, 5).next) != c {
		t.Fatal("k's link does not start on the cell T read in its predecessor")
	}
	if v, ok := lu.Get(ts, 1); !ok || v != 200 {
		t.Fatalf("T read U = %d, %v, want W1's 200", v, ok)
	}

	// T's read set is R's two entries, the predecessor's, then U's two: it
	// stops at the third.
	err := chaos.Arm(point, chaos.Fault{Kind: chaos.Delay, After: 2, Times: 1, Action: func() {
		done := make(chan struct{})
		go func() {
			defer close(done)
			if err := run(func() {
				if _, ok := l.Get(w, 5); !ok {
					t.Error("W2 read k absent")
				}
				lr.Put(w, 1, 11)
			}); err != nil {
				t.Errorf("W2: %v", err)
			}
			if _, ok := l.Remove(w, 5); !ok {
				t.Error("W3 missed k")
			}
		}()
		<-done
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer chaos.Disarm(point)
	err = ts.TxEnd()
	if chaos.Fired(point) != 1 {
		t.Fatalf("T's validation passed %s %d times, want once", point, chaos.Fired(point))
	}
	if err == nil {
		t.Fatal("T committed: it read k absent between W1 and W3")
	}
}
