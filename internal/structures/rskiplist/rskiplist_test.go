package rskiplist

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"medley/internal/core"
)

func newSession() *core.Session { return core.NewTxManager().Session() }

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

func link(from *node[int], lvl int, to *node[int], marked bool) {
	from.wheel[lvl].Store(Ref[int]{to, marked})
}

// get is sl.Get(s, k), failing t if it has not returned within a second: on
// the hand-built states below nothing finishes a removal, so a search that
// comes down a dead wheel the wrong way retries for ever.
func get(t *testing.T, sl *SkipList[int], s *core.Session, k uint64) (int, bool) {
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
		if v, ok := get(t, sl, s, k); !ok || v != int(k) {
			t.Fatalf("Get(%d) = %d, %v with the key present", k, v, ok)
		}
	}
	if _, ok := get(t, sl, s, 17); ok {
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
	if v, ok := get(t, sl, s, 20); !ok || v != 20 {
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
