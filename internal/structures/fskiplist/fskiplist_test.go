package fskiplist

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

func TestEmpty(t *testing.T) {
	sl := New[int, string]()
	s := newSession()
	if _, ok := sl.Get(s, 1); ok {
		t.Fatal("found key in empty list")
	}
	if _, ok := sl.Remove(s, 1); ok {
		t.Fatal("removed from empty list")
	}
	if sl.Len() != 0 {
		t.Fatal("len != 0")
	}
}

func TestInsertGetRemove(t *testing.T) {
	sl := New[int, string]()
	s := newSession()
	if !sl.Insert(s, 5, "five") {
		t.Fatal("insert failed")
	}
	if sl.Insert(s, 5, "again") {
		t.Fatal("duplicate insert succeeded")
	}
	if v, ok := sl.Get(s, 5); !ok || v != "five" {
		t.Fatalf("Get = %q,%v", v, ok)
	}
	if v, ok := sl.Remove(s, 5); !ok || v != "five" {
		t.Fatalf("Remove = %q,%v", v, ok)
	}
	if _, ok := sl.Get(s, 5); ok {
		t.Fatal("key present after remove")
	}
}

func TestPutReplace(t *testing.T) {
	sl := New[int, int]()
	s := newSession()
	if _, replaced := sl.Put(s, 1, 10); replaced {
		t.Fatal("fresh put replaced")
	}
	old, replaced := sl.Put(s, 1, 11)
	if !replaced || old != 10 {
		t.Fatalf("Put = %d,%v", old, replaced)
	}
	if v, _ := sl.Get(s, 1); v != 11 {
		t.Fatalf("Get = %d", v)
	}
	if sl.Len() != 1 {
		t.Fatalf("Len = %d (replacement duplicated the key)", sl.Len())
	}
}

func TestSortedOrderManyKeys(t *testing.T) {
	sl := New[int, int]()
	s := newSession()
	perm := rand.Perm(2000)
	for _, k := range perm {
		sl.Insert(s, k, k*3)
	}
	ks := sl.Keys()
	if len(ks) != 2000 {
		t.Fatalf("len = %d", len(ks))
	}
	if !sort.IntsAreSorted(ks) {
		t.Fatal("keys not sorted")
	}
	for _, k := range perm[:100] {
		if v, ok := sl.Get(s, k); !ok || v != k*3 {
			t.Fatalf("Get(%d) = %d,%v", k, v, ok)
		}
	}
}

func TestSequentialModelProperty(t *testing.T) {
	type op struct {
		Kind uint8
		Key  uint8
		Val  int
	}
	f := func(ops []op) bool {
		sl := New[uint8, int]()
		s := newSession()
		model := map[uint8]int{}
		for _, o := range ops {
			switch o.Kind % 4 {
			case 0:
				mv, mok := model[o.Key]
				v, ok := sl.Get(s, o.Key)
				if ok != mok || (ok && v != mv) {
					return false
				}
			case 1:
				_, mok := model[o.Key]
				if sl.Insert(s, o.Key, o.Val) == mok {
					return false
				}
				if !mok {
					model[o.Key] = o.Val
				}
			case 2:
				mv, mok := model[o.Key]
				old, replaced := sl.Put(s, o.Key, o.Val)
				if replaced != mok || (replaced && old != mv) {
					return false
				}
				model[o.Key] = o.Val
			case 3:
				mv, mok := model[o.Key]
				v, ok := sl.Remove(s, o.Key)
				if ok != mok || (ok && v != mv) {
					return false
				}
				delete(model, o.Key)
			}
		}
		return sl.Len() == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentChurn(t *testing.T) {
	sl := New[int, int]()
	mgr := core.NewTxManager()
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := mgr.Session()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 4000; i++ {
				k := rng.Intn(256)
				switch rng.Intn(3) {
				case 0:
					sl.Put(s, k, k*7)
				case 1:
					if v, ok := sl.Get(s, k); ok && v != k*7 {
						t.Errorf("Get(%d) = %d", k, v)
					}
				case 2:
					sl.Remove(s, k)
				}
			}
		}(w)
	}
	wg.Wait()
	ks := sl.Keys()
	if !sort.IntsAreSorted(ks) {
		t.Fatal("unsorted after churn")
	}
	seen := map[int]bool{}
	for _, k := range ks {
		if seen[k] {
			t.Fatalf("duplicate key %d", k)
		}
		seen[k] = true
	}
}

// Regression for the stale-read hole: read-modify-write transactions on a
// single key must never lose updates (the linearizing read must validate the
// victim's liveness, not just the predecessor link).
func TestNoLostUpdatesSingleKey(t *testing.T) {
	for round := 0; round < 10; round++ {
		mgr := core.NewTxManager()
		sl := New[uint64, int]()
		setup := mgr.Session()
		sl.Put(setup, 1, 1_000_000)
		var committed atomic.Int64
		const workers = 8
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s := mgr.Session()
				for i := 0; i < 400; i++ {
					if s.Run(func() error {
						v, ok := sl.Get(s, 1)
						if !ok {
							return core.ErrTxAborted
						}
						sl.Put(s, 1, v-1)
						return nil
					}) == nil {
						committed.Add(1)
					}
				}
			}()
		}
		wg.Wait()
		v, _ := sl.Get(setup, 1)
		if want := 1_000_000 - int(committed.Load()); v != want {
			t.Fatalf("round %d: value %d, want %d", round, v, want)
		}
	}
}

func TestTxReadsOwnWrites(t *testing.T) {
	mgr := core.NewTxManager()
	sl := New[int, int]()
	s := mgr.Session()
	err := s.Run(func() error {
		if !sl.Insert(s, 1, 10) {
			return core.ErrTxAborted
		}
		if v, ok := sl.Get(s, 1); !ok || v != 10 {
			t.Errorf("own insert invisible: %d,%v", v, ok)
		}
		if old, replaced := sl.Put(s, 1, 11); !replaced || old != 10 {
			t.Errorf("own update wrong: %d,%v", old, replaced)
		}
		if v, _ := sl.Get(s, 1); v != 11 {
			t.Errorf("own update invisible: %d", v)
		}
		if v, ok := sl.Remove(s, 1); !ok || v != 11 {
			t.Errorf("own remove wrong: %d,%v", v, ok)
		}
		if _, ok := sl.Get(s, 1); ok {
			t.Error("key visible after own remove")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if sl.Len() != 0 {
		t.Fatalf("Len = %d", sl.Len())
	}
}

func TestAbortRollsBack(t *testing.T) {
	mgr := core.NewTxManager()
	sl := New[int, int]()
	s := mgr.Session()
	sl.Insert(s, 1, 10)
	sl.Insert(s, 2, 20)

	s.TxBegin()
	sl.Put(s, 1, 99)
	sl.Remove(s, 2)
	sl.Insert(s, 3, 30)
	s.TxAbort()

	if v, _ := sl.Get(s, 1); v != 10 {
		t.Fatalf("aborted put visible: %d", v)
	}
	if _, ok := sl.Get(s, 2); !ok {
		t.Fatal("aborted remove took effect")
	}
	if _, ok := sl.Get(s, 3); ok {
		t.Fatal("aborted insert visible")
	}
}

func TestConcurrentTransfersPreserveTotal(t *testing.T) {
	mgr := core.NewTxManager()
	sl1 := New[uint64, int]()
	sl2 := New[uint64, int]()
	setup := mgr.Session()
	const accounts = 16
	for a := uint64(0); a < accounts; a++ {
		sl1.Put(setup, a, 1000)
		sl2.Put(setup, a, 1000)
	}
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := mgr.Session()
			rng := rand.New(rand.NewSource(int64(w) * 13))
			for i := 0; i < 600; i++ {
				a1 := uint64(rng.Intn(accounts))
				a2 := uint64(rng.Intn(accounts))
				src, dst := sl1, sl2
				if rng.Intn(2) == 0 {
					src, dst = sl2, sl1
				}
				_ = s.Run(func() error {
					v1, ok := src.Get(s, a1)
					if !ok || v1 < 1 {
						return nil
					}
					v2, _ := dst.Get(s, a2)
					src.Put(s, a1, v1-1)
					dst.Put(s, a2, v2+1)
					return nil
				})
			}
		}(w)
	}
	wg.Wait()
	total := 0
	s := mgr.Session()
	for a := uint64(0); a < accounts; a++ {
		v1, _ := sl1.Get(s, a)
		v2, _ := sl2.Get(s, a)
		total += v1 + v2
	}
	if total != accounts*2000 {
		t.Fatalf("total = %d, want %d", total, accounts*2000)
	}
}

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

func TestRangeOrder(t *testing.T) {
	sl := New[int, int]()
	s := newSession()
	for _, k := range []int{4, 1, 3, 2} {
		sl.Insert(s, k, k)
	}
	var got []int
	sl.Range(func(k, v int) bool { got = append(got, k); return true })
	want := []int{1, 2, 3, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Range order = %v", got)
		}
	}
}

// mkNode builds a tower by hand for the dead-node tests below.
func mkNode(k uint64, lvl int) *node[uint64, int] {
	return &node[uint64, int]{key: k, val: int(k), next: make([]core.CASObj[Ref[uint64, int]], lvl+1), level: lvl}
}

func link(from *node[uint64, int], lvl int, to *node[uint64, int], marked bool) {
	from.next[lvl].Store(Ref[uint64, int]{to, marked})
}

// TestFindStopsDeadWalkAtKey lays out what a search sees when the node it
// stands on dies under it: P(10) was replaced by P' after the search read P's
// level-2 edge, so P is live above and dead below, and its level-1 edge leads
// to Q(20), itself replaced by Q'. Walking through Q without looking at its
// key puts the search past 15, and descending from there reports 15 absent.
func TestFindStopsDeadWalkAtKey(t *testing.T) {
	sl := New[uint64, int]()
	p, p2, x, q, q2 := mkNode(10, 2), mkNode(10, 0), mkNode(15, 0), mkNode(20, 1), mkNode(20, 0)
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

// TestFindTakesNoPositionThroughADeadEdge: P(10) was removed when its
// successor was R(30), a search snipped it from the bottom level, and X(20)
// was inserted where it had been — all before P's remover got to the rest of
// its tower. P's bottom edge is frozen at R, so a search that comes down P's
// tower sees 20 absent, and the read it records can never fail validation.
func TestFindTakesNoPositionThroughADeadEdge(t *testing.T) {
	sl := New[uint64, int]()
	p, x, r := mkNode(10, 1), mkNode(20, 0), mkNode(30, 0)
	link(sl.head, 1, p, false)
	link(sl.head, 0, x, false)
	link(x, 0, r, false)
	link(p, 0, r, true)

	s := newSession()
	if v, ok := sl.Get(s, 20); !ok || v != 20 {
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
}

// TestGetFindsKeysThatAreNeverRemoved is the concurrent form of the two tests
// above. Even keys are only ever replaced (transfers between two lists), odd
// keys are inserted and removed around them; a Get of an even key that comes
// back empty is the bug, whatever the transaction's later fate, and the sum
// over the even keys is conserved. One round failed about 1 time in 15 before
// the fix on two CPUs or more, so forty of them.
func TestGetFindsKeysThatAreNeverRemoved(t *testing.T) {
	for round := 0; round < 40; round++ {
		getFindsKeysThatAreNeverRemoved(t)
	}
}

func getFindsKeysThatAreNeverRemoved(t *testing.T) {
	const accounts, workers, iters = 16, 8, 600
	mgr := core.NewTxManager()
	lists := [2]*SkipList[uint64, int]{New[uint64, int](), New[uint64, int]()}
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
