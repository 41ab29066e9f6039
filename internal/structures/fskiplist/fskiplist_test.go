package fskiplist

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"medley/internal/core"
)

func newSession() *core.Session { return core.NewTxManager().Session() }

func TestUpperLevelsEventuallyLinked(t *testing.T) {
	sl := New[int, int]()
	s := newSession()
	for k := 0; k < 5000; k++ {
		sl.Insert(s, k, k)
	}
	// Count nodes linked above level 0 from the head tower: with geometric
	// towers over 5000 keys, upper levels must be populated.
	linked := 0
	for lvl := 1; lvl < MaxLevel; lvl++ {
		if sl.head.next[lvl].Load().n != nil {
			linked++
		}
	}
	if linked < 5 {
		t.Fatalf("only %d upper levels populated; express lanes missing", linked)
	}
}

// layouts are the list's two constructors, each with a way to build one of
// its nodes by hand at a given height, for the dead-node tests below.
var layouts = []struct {
	name   string
	new    func() *SkipList[uint64, int]
	mkNode func(k uint64, lvl int) *node[uint64, int]
}{
	{"tower", New[uint64, int], func(k uint64, lvl int) *node[uint64, int] {
		return &node[uint64, int]{key: k, val: int(k), next: make([]core.CASObj[Ref[uint64, int]], lvl+1), level: lvl}
	}},
	{"wheel", NewRotating[int], func(k uint64, lvl int) *node[uint64, int] {
		w := &wheelNode[uint64, int]{node: node[uint64, int]{key: k, val: int(k), level: lvl}}
		w.next = w.wheel[:lvl+1]
		return &w.node
	}},
}

func link(from *node[uint64, int], lvl int, to *node[uint64, int], marked bool) {
	from.next[lvl].Store(Ref[uint64, int]{to, marked})
}

// get is sl.Get(s, k), failing t if it has not returned within a second: on
// the hand-built states below nothing finishes a removal, so a search that
// comes down a dead tower the wrong way retries for ever.
func get(t *testing.T, sl *SkipList[uint64, int], s *core.Session, k uint64) (int, bool) {
	t.Helper()
	type result struct {
		v  int
		ok bool
	}
	c := make(chan result, 1)
	go func() { v, ok := sl.Get(s, k); c <- result{v, ok} }()
	select {
	case r := <-c:
		return r.v, r.ok
	case <-time.After(time.Second):
		t.Fatalf("Get(%d) never returned", k)
		return 0, false
	}
}

// TestRotatingLayout: NewRotating's heights follow from the key alone, stay
// below MaxLevel, and each node's tower is its inline wheel.
func TestRotatingLayout(t *testing.T) {
	levels := make([]int, MaxLevel)
	for k := uint64(0); k < 1<<12; k++ {
		h := heightOf(k)
		if h != heightOf(k) || h < 0 || h >= MaxLevel {
			t.Fatalf("heightOf(%d) = %d, then %d: want one height in [0, %d)", k, h, heightOf(k), MaxLevel)
		}
		levels[h]++
	}
	if levels[0] < 1<<10 || levels[1] < 1<<9 {
		t.Fatalf("heights over 4096 keys: %v, want about half of them at each level below the last", levels)
	}
	sl := NewRotating[int]()
	s := newSession()
	for k := uint64(0); k < 64; k++ {
		sl.Insert(s, k, int(k))
	}
	sl.Put(s, 7, 70)
	for k := uint64(0); k < 64; k++ {
		r, found := sl.find(nil, k)
		if !found {
			t.Fatalf("key %d missing", k)
		}
		n := r.curr
		w := (*wheelNode[uint64, int])(unsafe.Pointer(n))
		if n.level != heightOf(k) || len(n.next) != n.level+1 || &n.next[0] != &w.wheel[0] {
			t.Fatalf("key %d: level %d of %d slots, want heightOf %d in the node's own wheel", k, n.level, len(n.next), heightOf(k))
		}
	}
}

// TestFindStopsDeadWalkAtKey lays out what a search sees when the node it
// stands on dies under it: P(10) was replaced by P' after the search read P's
// level-2 edge, so P is live above and dead below, and its level-1 edge leads
// to Q(20), itself replaced by Q'. Walking through Q without looking at its
// key puts the search past 15, and descending from there reports 15 absent.
func TestFindStopsDeadWalkAtKey(t *testing.T) {
	for _, l := range layouts {
		t.Run(l.name, func(t *testing.T) {
			sl := l.new()
			p, p2, x, q, q2 := l.mkNode(10, 2), l.mkNode(10, 0), l.mkNode(15, 0), l.mkNode(20, 1), l.mkNode(20, 0)
			for lvl := 0; lvl <= 2; lvl++ {
				link(sl.head, lvl, p, false)
			}
			link(p, 1, q, true)
			link(p, 0, p2, true)
			link(p2, 0, x, false)
			link(x, 0, q, false)
			link(q, 1, nil, true)
			link(q, 0, q2, true)

			s := newSession()
			for _, k := range []uint64{10, 15, 20} {
				if v, ok := get(t, sl, s, k); !ok || v != int(k) {
					t.Fatalf("Get(%d) = %d, %v with the key present", k, v, ok)
				}
			}
			if _, ok := get(t, sl, s, 17); ok {
				t.Fatal("Get(17) found a key that is absent")
			}
		})
	}
}

// TestFindTakesNoPositionThroughADeadEdge: P(10) was removed when its
// successor was R(30), a search snipped it from the bottom level, and X(20)
// was inserted where it had been — all before P's remover got to the rest of
// its tower. P's bottom edge is frozen at R, so a search that comes down P's
// tower sees 20 absent, and the read it records can never fail validation.
func TestFindTakesNoPositionThroughADeadEdge(t *testing.T) {
	for _, l := range layouts {
		t.Run(l.name, func(t *testing.T) {
			sl := l.new()
			p, x, r := l.mkNode(10, 1), l.mkNode(20, 0), l.mkNode(30, 0)
			link(sl.head, 1, p, false)
			link(sl.head, 0, x, false)
			link(x, 0, r, false)
			link(p, 0, r, true)

			s := newSession()
			if v, ok := get(t, sl, s, 20); !ok || v != 20 {
				t.Fatalf("Get(20) = %d, %v with the key present", v, ok)
			}
			if ref := p.next[1].Load(); !ref.marked {
				t.Fatal("the search left the dead tower unmarked: the next one comes down it again")
			}
			s.TxBegin()
			if _, ok := sl.Get(s, 25); ok {
				t.Fatal("Get(25) found a key that is absent")
			}
			sl.Insert(newSession(), 25, 25)
			if err := s.TxEnd(); err == nil {
				t.Fatal("a transaction that read 25 absent committed after 25 was inserted")
			}
		})
	}
}

// TestGetFindsKeysThatAreNeverRemoved is the concurrent form of the two tests
// above. Even keys are only ever replaced (transfers between two lists), odd
// keys are inserted and removed around them; a Get of an even key that comes
// back empty is the bug, whatever the transaction's later fate, and the sum
// over the even keys is conserved. One round failed about 1 time in 15 before
// the fix on two CPUs or more, so forty of them on each layout.
func TestGetFindsKeysThatAreNeverRemoved(t *testing.T) {
	for _, l := range layouts {
		t.Run(l.name, func(t *testing.T) {
			for round := 0; round < 40; round++ {
				getFindsKeysThatAreNeverRemoved(t, l.new)
			}
		})
	}
}

func getFindsKeysThatAreNeverRemoved(t *testing.T, newList func() *SkipList[uint64, int]) {
	const accounts, workers, iters = 16, 8, 600
	mgr := core.NewTxManager()
	lists := [2]*SkipList[uint64, int]{newList(), newList()}
	setup := mgr.Session()
	for a := uint64(0); a < accounts; a++ {
		lists[0].Put(setup, 2*a, 1000)
		lists[1].Put(setup, 2*a, 1000)
	}
	var lost atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := mgr.Session()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			for i := 0; i < iters; i++ {
				a1, a2 := 2*uint64(rng.Intn(accounts)), 2*uint64(rng.Intn(accounts))
				src, dst := lists[i&1], lists[1-i&1]
				if w%2 == 1 { // churn the odd keys beside the transfers
					k := a1 + 1
					if !src.Insert(s, k, 0) {
						src.Remove(s, k)
					}
				}
				_ = s.Run(func() error {
					v1, ok1 := src.Get(s, a1)
					v2, ok2 := dst.Get(s, a2)
					if !ok1 || !ok2 {
						lost.Add(1)
						return nil
					}
					src.Put(s, a1, v1-1)
					dst.Put(s, a2, v2+1)
					return nil
				})
			}
		}(w)
	}
	wg.Wait()
	if n := lost.Load(); n != 0 {
		t.Fatalf("%d Gets of a key that is never removed found nothing", n)
	}
	total := 0
	for a := uint64(0); a < accounts; a++ {
		v1, _ := lists[0].Get(setup, 2*a)
		v2, _ := lists[1].Get(setup, 2*a)
		total += v1 + v2
	}
	if total != accounts*2000 {
		t.Fatalf("total = %d, want %d", total, accounts*2000)
	}
}

// BenchmarkLayout prices the two node layouts against each other on one
// thread: the paper's 2:1:1 mix of Get, Insert and Remove, standalone, over
// 64 Ki keys of which half are present at the start.
func BenchmarkLayout(b *testing.B) {
	for _, l := range []struct {
		name string
		new  func() *SkipList[uint64, uint64]
	}{{"tower", New[uint64, uint64]}, {"wheel", NewRotating[uint64]}} {
		b.Run(l.name, func(b *testing.B) {
			const keys = 1 << 16
			sl, s := l.new(), newSession()
			for k := uint64(0); k < keys; k += 2 {
				sl.Insert(s, k, k)
			}
			rng := rand.New(rand.NewSource(1))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := uint64(rng.Intn(keys))
				switch rng.Intn(4) {
				case 0, 1:
					sl.Get(s, k)
				case 2:
					sl.Insert(s, k, k)
				default:
					sl.Remove(s, k)
				}
			}
		})
	}
}
