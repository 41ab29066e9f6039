package rskiplist

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"medley/internal/core"
)

func newSession() *core.Session { return core.NewTxManager().Session() }

func TestBasicOps(t *testing.T) {
	sl := New[string]()
	s := newSession()
	if _, ok := sl.Get(s, 1); ok {
		t.Fatal("empty list had key")
	}
	if !sl.Insert(s, 1, "one") {
		t.Fatal("insert failed")
	}
	if sl.Insert(s, 1, "dup") {
		t.Fatal("dup insert succeeded")
	}
	if v, ok := sl.Get(s, 1); !ok || v != "one" {
		t.Fatalf("Get = %q,%v", v, ok)
	}
	old, replaced := sl.Put(s, 1, "uno")
	if !replaced || old != "one" {
		t.Fatalf("Put = %q,%v", old, replaced)
	}
	if v, ok := sl.Remove(s, 1); !ok || v != "uno" {
		t.Fatalf("Remove = %q,%v", v, ok)
	}
	if sl.Len() != 0 {
		t.Fatal("not empty")
	}
}

func TestDeterministicHeights(t *testing.T) {
	// The same key must always get the same height (the rotating list's
	// stable index shape).
	for k := uint64(0); k < 1000; k++ {
		if heightOf(k) != heightOf(k) {
			t.Fatal("height not deterministic")
		}
		if h := heightOf(k); h < 0 || h >= WheelSize {
			t.Fatalf("height %d out of range", h)
		}
	}
}

func TestSortedOrder(t *testing.T) {
	sl := New[int]()
	s := newSession()
	perm := rand.Perm(3000)
	for _, k := range perm {
		sl.Insert(s, uint64(k), k)
	}
	ks := sl.Keys()
	if len(ks) != 3000 {
		t.Fatalf("len = %d", len(ks))
	}
	if !sort.SliceIsSorted(ks, func(i, j int) bool { return ks[i] < ks[j] }) {
		t.Fatal("not sorted")
	}
}

func TestModelProperty(t *testing.T) {
	type op struct {
		Kind uint8
		Key  uint8
		Val  int
	}
	f := func(ops []op) bool {
		sl := New[int]()
		s := newSession()
		model := map[uint64]int{}
		for _, o := range ops {
			k := uint64(o.Key)
			switch o.Kind % 4 {
			case 0:
				mv, mok := model[k]
				v, ok := sl.Get(s, k)
				if ok != mok || (ok && v != mv) {
					return false
				}
			case 1:
				_, mok := model[k]
				if sl.Insert(s, k, o.Val) == mok {
					return false
				}
				if !mok {
					model[k] = o.Val
				}
			case 2:
				mv, mok := model[k]
				old, rep := sl.Put(s, k, o.Val)
				if rep != mok || (rep && old != mv) {
					return false
				}
				model[k] = o.Val
			case 3:
				mv, mok := model[k]
				v, ok := sl.Remove(s, k)
				if ok != mok || (ok && v != mv) {
					return false
				}
				delete(model, k)
			}
		}
		return sl.Len() == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentChurnAndTransfers(t *testing.T) {
	mgr := core.NewTxManager()
	a := New[int]()
	b := New[int]()
	setup := mgr.Session()
	const accounts = 16
	for k := uint64(0); k < accounts; k++ {
		a.Put(setup, k, 1000)
		b.Put(setup, k, 1000)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := mgr.Session()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 500; i++ {
				k1 := uint64(rng.Intn(accounts))
				k2 := uint64(rng.Intn(accounts))
				src, dst := a, b
				if rng.Intn(2) == 0 {
					src, dst = b, a
				}
				_ = s.Run(func() error {
					v1, ok := src.Get(s, k1)
					if !ok || v1 < 1 {
						return nil
					}
					v2, _ := dst.Get(s, k2)
					src.Put(s, k1, v1-1)
					dst.Put(s, k2, v2+1)
					return nil
				})
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for k := uint64(0); k < accounts; k++ {
		v1, _ := a.Get(setup, k)
		v2, _ := b.Get(setup, k)
		total += v1 + v2
	}
	if total != accounts*2000 {
		t.Fatalf("total = %d, want %d", total, accounts*2000)
	}
}

func TestNoLostUpdates(t *testing.T) {
	mgr := core.NewTxManager()
	sl := New[int]()
	setup := mgr.Session()
	sl.Put(setup, 7, 1_000_000)
	var committed atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := mgr.Session()
			for i := 0; i < 400; i++ {
				if s.Run(func() error {
					v, ok := sl.Get(s, 7)
					if !ok {
						return core.ErrTxAborted
					}
					sl.Put(s, 7, v-1)
					return nil
				}) == nil {
					committed.Add(1)
				}
			}
		}()
	}
	wg.Wait()
	v, _ := sl.Get(setup, 7)
	if want := 1_000_000 - int(committed.Load()); v != want {
		t.Fatalf("value %d want %d", v, want)
	}
}

func TestTxComposition(t *testing.T) {
	mgr := core.NewTxManager()
	sl := New[int]()
	s := mgr.Session()
	err := s.Run(func() error {
		sl.Insert(s, 1, 10)
		if v, ok := sl.Get(s, 1); !ok || v != 10 {
			t.Errorf("own insert invisible: %d,%v", v, ok)
		}
		sl.Put(s, 1, 11)
		if v, ok := sl.Remove(s, 1); !ok || v != 11 {
			t.Errorf("own remove wrong: %d,%v", v, ok)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if sl.Len() != 0 {
		t.Fatal("not empty after insert+remove tx")
	}
}

func link(from *node[int], lvl int, to *node[int], marked bool) {
	from.wheel[lvl].Store(Ref[int]{to, marked})
}

// TestFindStopsDeadWalkAtKey and TestFindTakesNoPositionThroughADeadEdge lay
// out the two states of the fskiplist tests of the same names (see there) on
// wheels.
func TestFindStopsDeadWalkAtKey(t *testing.T) {
	sl := New[int]()
	mk := func(k uint64, lvl int) *node[int] { return &node[int]{key: k, val: int(k), level: lvl} }
	p, p2, x, q, q2 := mk(10, 2), mk(10, 0), mk(15, 0), mk(20, 1), mk(20, 0)
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
		if v, ok := sl.Get(s, k); !ok || v != int(k) {
			t.Fatalf("Get(%d) = %d, %v with the key present", k, v, ok)
		}
	}
	if _, ok := sl.Get(s, 17); ok {
		t.Fatal("Get(17) found a key that is absent")
	}
}

func TestFindTakesNoPositionThroughADeadEdge(t *testing.T) {
	sl := New[int]()
	p, x, r := &node[int]{key: 10, val: 10, level: 1}, &node[int]{key: 20, val: 20}, &node[int]{key: 30, val: 30}
	link(sl.head, 1, p, false)
	link(sl.head, 0, x, false)
	link(x, 0, r, false)
	link(p, 0, r, true)

	s := newSession()
	if v, ok := sl.Get(s, 20); !ok || v != 20 {
		t.Fatalf("Get(20) = %d, %v with the key present", v, ok)
	}
	if ref := p.wheel[1].Load(); !ref.marked {
		t.Fatal("the search left the dead wheel unmarked: the next one comes down it again")
	}
}

// TestGetFindsKeysThatAreNeverRemoved: transfers that only ever replace the
// even keys, insert/remove churn of the odd keys beside them. A Get of an
// even key that comes back empty is the bug; the sum is conserved. Forty
// rounds, as in fskiplist.
func TestGetFindsKeysThatAreNeverRemoved(t *testing.T) {
	for round := 0; round < 40; round++ {
		getFindsKeysThatAreNeverRemoved(t)
	}
}

func getFindsKeysThatAreNeverRemoved(t *testing.T) {
	const accounts, workers, iters = 16, 8, 600
	mgr := core.NewTxManager()
	lists := [2]*SkipList[int]{New[int](), New[int]()}
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
				if w%2 == 1 {
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
