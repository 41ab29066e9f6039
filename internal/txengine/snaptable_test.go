package txengine

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"medley/internal/structures/mhash"
)

// In-package tests of the version table (snapTable) against a bare tier:
// the windows the engine-level snapshot tests cannot aim at.

// snapCommit publishes inside one commit window of w, as snapAgent.commit does.
func snapCommit(tier *snapTier, w *snapSlot, pub func(ts uint64)) uint64 {
	ts := tier.beginCommit(w)
	pub(ts)
	tier.endCommit(w)
	return ts
}

// forceSweep sweeps every stripe against a fresh floor, whatever its counters say.
func forceSweep[V any](t *snapTable[V]) {
	for i := range t.stripes {
		s := &t.stripes[i]
		s.mu.Lock()
		if p := s.slots.Load(); p != nil {
			t.sweep(s, *p, t.tier.refreshFloor())
		}
		s.mu.Unlock()
	}
}

// chain returns key k's versions, newest first, as the current array holds them.
func chain[V any](t *snapTable[V], k uint64) []*snapVer[V] {
	if p := t.stripes[mhash.Mix64(k)%snapStripes].slots.Load(); p != nil {
		return chainIn(t, *p, k)
	}
	return nil
}

// chainIn probes one slot array of k's stripe, current or superseded, the way
// read does.
func chainIn[V any](t *snapTable[V], slots snapSlots[V], k uint64) (vs []*snapVer[V]) {
	mask := uint64(len(slots) - 1)
	for i := mhash.Mix64(k) / snapStripes & mask; ; i = (i + 1) & mask {
		n := slots[i].Load()
		if n == nil {
			return nil
		}
		if n == &t.dead || n.key != k {
			continue
		}
		for ; n != nil; n = n.next.Load() {
			vs = append(vs, n)
		}
		return vs
	}
}

// versions counts every version the table holds.
func versions[V any](t *snapTable[V]) (n int) {
	for i := range t.stripes {
		p := t.stripes[i].slots.Load()
		if p == nil {
			continue
		}
		for j := range *p {
			if v := (*p)[j].Load(); v != &t.dead {
				for ; v != nil; v = v.next.Load() {
					n++
				}
			}
		}
	}
	return n
}

func TestSnapTableSizes(t *testing.T) {
	if got := unsafe.Sizeof(snapVer[uint64]{}); got != 32 {
		t.Errorf("a uint map's version is %d bytes, want 32", got)
	}
	if got := unsafe.Sizeof(snapStripe[uint64]{}); got != 64 {
		t.Errorf("a stripe is %d bytes, want one 64-byte cache line", got)
	}
	stripesKeepToTheirLines[uint64](t)
	stripesKeepToTheirLines[any](t)
}

var snapTableSink any // makes the tables below heap objects, like the engines' own

// The stripes lead the table and end in 8 bytes of padding, so whether the
// allocator starts the table on a cache line or 8 bytes into one (behind its
// header), the fields of two stripes never meet in a line.
func stripesKeepToTheirLines[V any](t *testing.T) {
	tab := &snapTable[V]{}
	snapTableSink = tab
	for i := range tab.stripes {
		s := &tab.stripes[i]
		first, last := uintptr(unsafe.Pointer(&s.mu)), uintptr(unsafe.Pointer(&s.swept))+7
		if first/64 != last/64 {
			t.Fatalf("%T: the fields of stripe %d span two cache lines (%#x..%#x)", tab, i, first, last)
		}
	}
}

// A reader that loaded a stripe's slot array before the stripe moved to a
// larger one still answers every key at its pinned cut from the array it has.
func TestSnapTableStaleArrayAnswersItsCut(t *testing.T) {
	tier := newSnapTier(nil)
	tab := &snapTable[uint64]{tier: tier}
	w, r := tier.newSlot(), tier.newSlot()
	const n = 2000
	for k := uint64(0); k < n; k++ {
		snapCommit(tier, w, func(ts uint64) { tab.publish(k, ts, k, false) })
	}
	rt, _ := tier.beginSnapshot(r)
	var old [snapStripes]snapSlots[uint64]
	for i := range old {
		old[i] = *tab.stripes[i].slots.Load()
	}
	for k := uint64(0); k < n; k++ { // overwrite, remove a third, and grow every stripe eightfold
		snapCommit(tier, w, func(ts uint64) {
			if k%3 == 0 {
				tab.publish(k, ts, 0, true)
			} else {
				tab.publish(k, ts, k+1_000_000, false)
			}
			for j := uint64(1); j <= 8; j++ {
				tab.publish(k+j*n, ts, 7, false)
			}
		})
	}
	for i := range old {
		if cur := *tab.stripes[i].slots.Load(); len(cur) <= len(old[i]) {
			t.Fatalf("stripe %d did not grow (%d -> %d slots)", i, len(old[i]), len(cur))
		}
	}
	for k := uint64(0); k < 9*n; k++ {
		want, wantOK := k, k < n
		if !wantOK {
			want = 0
		}
		var v uint64
		ok := false
		for _, n := range chainIn(tab, old[mhash.Mix64(k)%snapStripes], k) {
			if n.ts() <= rt {
				v, ok = n.val, !n.del()
				break
			}
		}
		if v != want || ok != wantOK {
			t.Fatalf("key %d at cut %d from the old array: (%d, %v), want (%d, %v)", k, rt, v, ok, want, wantOK)
		}
		if v, ok := tab.read(k, rt); v != want || ok != wantOK {
			t.Fatalf("key %d at cut %d from the new array: (%d, %v), want (%d, %v)", k, rt, v, ok, want, wantOK)
		}
	}
	tier.endSnapshot(r)
}

// A swept tombstone takes its history with it: the key reads absent, never an
// older value, and a re-insert after the sweep is visible from its own
// timestamp on and not before. Survivors sharing probe paths with the swept
// keys stay reachable through the dead markers.
func TestSnapTableSweptTombstone(t *testing.T) {
	tier := newSnapTier(nil)
	tab := &snapTable[uint64]{tier: tier}
	w := tier.newSlot()
	const n = 4096
	for k := uint64(0); k < n; k++ {
		snapCommit(tier, w, func(ts uint64) { tab.publish(k, ts, k+1, false) })
	}
	var gone uint64
	for k := uint64(0); k < n; k += 2 {
		gone = snapCommit(tier, w, func(ts uint64) { tab.publish(k, ts, 0, true) })
	}
	forceSweep(tab)
	if got := versions(tab); got != n/2 {
		t.Fatalf("%d versions after the sweep, want one per surviving key (%d)", got, n/2)
	}
	for k := uint64(0); k < n; k++ {
		v, ok := tab.read(k, gone)
		if k%2 == 0 && (ok || v != 0) {
			t.Fatalf("swept key %d reads (%d, %v) at cut %d", k, v, ok, gone)
		}
		if k%2 == 1 && (!ok || v != k+1) {
			t.Fatalf("surviving key %d reads (%d, %v) at cut %d", k, v, ok, gone)
		}
	}
	for k := uint64(0); k < n; k += 4 {
		back := snapCommit(tier, w, func(ts uint64) { tab.publish(k, ts, k+9, false) })
		if v, ok := tab.read(k, back-1); ok {
			t.Fatalf("key %d re-inserted at %d reads (%d, true) at cut %d", k, back, v, back-1)
		}
		if v, ok := tab.read(k, back); !ok || v != k+9 {
			t.Fatalf("key %d re-inserted at %d reads (%d, %v) at its own cut", k, back, v, ok)
		}
	}
	for k := uint64(1); k < n; k += 2 {
		if v, ok := tab.read(k, tier.sealed.Load()); !ok || v != k+1 {
			t.Fatalf("surviving key %d reads (%d, %v) after the re-inserts", k, v, ok)
		}
	}
}

// A slow writer publishing beneath newer versions keeps the chain in
// descending timestamp order, and every cut reads the version it should.
func TestSnapTableSlowWriterKeepsOrder(t *testing.T) {
	tab := &snapTable[uint64]{tier: newSnapTier(nil)}
	const k = 42
	for _, ts := range []uint64{10, 30, 20, 40, 5, 25} {
		if ts == 20 {
			tab.publish(k, ts, 0, true)
		} else {
			tab.publish(k, ts, ts, false)
		}
	}
	vs := chain(tab, k)
	if len(vs) != 6 {
		t.Fatalf("chain holds %d versions, want 6", len(vs))
	}
	for i := 1; i < len(vs); i++ {
		if vs[i-1].ts() <= vs[i].ts() {
			t.Fatalf("chain out of order: ts %d above ts %d", vs[i-1].ts(), vs[i].ts())
		}
	}
	for cut, want := range map[uint64]uint64{4: 0, 5: 5, 9: 5, 10: 10, 19: 10, 20: 0, 24: 0, 25: 25, 29: 25, 30: 30, 39: 30, 40: 40, 99: 40} {
		if v, ok := tab.read(k, cut); v != want || ok != (want != 0) {
			t.Errorf("cut %d reads (%d, %v), want %d", cut, v, ok, want)
		}
	}
}

// Chain growth behind a stuck pin is bounded, and ends with the pin: while one
// snapshot stays pinned the table gains at most one version per overwrite and
// frees nothing the pin can reach, however often it sweeps; one sweep after
// the pin is released returns every chain to a single version.
func TestSnapTableStuckPin(t *testing.T) {
	tier := newSnapTier(nil)
	tab := &snapTable[uint64]{tier: tier}
	w, r := tier.newSlot(), tier.newSlot()
	const n, rounds = 512, 6
	for k := uint64(0); k < n; k++ {
		snapCommit(tier, w, func(ts uint64) { tab.publish(k, ts, k, false) })
	}
	rt, _ := tier.beginSnapshot(r)
	for round := uint64(1); round <= rounds; round++ {
		for k := uint64(0); k < n; k++ {
			snapCommit(tier, w, func(ts uint64) {
				if k%5 == round%5 {
					tab.publish(k, ts, 0, true)
				} else {
					tab.publish(k, ts, k+round*n, false)
				}
			})
		}
		forceSweep(tab)
		if got, max := versions(tab), n*(1+int(round)); got > max {
			t.Fatalf("round %d: %d versions behind the pin, at most %d (one per overwrite)", round, got, max)
		}
		for k := uint64(0); k < n; k++ {
			if v, ok := tab.read(k, rt); !ok || v != k {
				t.Fatalf("round %d: key %d reads (%d, %v) at the pinned cut %d, want (%d, true)", round, k, v, ok, rt, k)
			}
		}
	}
	tier.endSnapshot(r)
	forceSweep(tab)
	for k := uint64(0); k < n; k++ {
		vs := chain(tab, k)
		switch removed := k%5 == rounds%5; {
		case removed && len(vs) != 0:
			t.Fatalf("key %d, removed in the last round, still holds %d versions", k, len(vs))
		case !removed && (len(vs) != 1 || vs[0].val != k+rounds*n):
			t.Fatalf("key %d holds %d versions after the pin was released, want its newest alone", k, len(vs))
		}
	}
}

// Two publishers move amounts between their own accounts — an emptied account
// is removed, a refilled one re-inserted, and a cloud of short-lived keys keeps
// the stripes moving, sweeping and reusing slots — while two readers check at
// every pinned cut that the accounts sum to what they started with.
func TestSnapTableStress(t *testing.T) {
	tier := newSnapTier(nil)
	tab := &snapTable[uint64]{tier: tier}
	const publishers, readers, accounts, start = 2, 2, 16, 100
	ops := 20_000
	if raceEnabled {
		ops = 4_000
	}
	setup := tier.newSlot()
	snapCommit(tier, setup, func(ts uint64) {
		for k := uint64(0); k < publishers*accounts; k++ {
			tab.publish(k, ts, start, false)
		}
	})
	var pubs, reads sync.WaitGroup
	var done atomic.Bool
	for p := uint64(0); p < publishers; p++ {
		pubs.Add(1)
		go func() {
			defer pubs.Done()
			w, rng := tier.newSlot(), rand.New(rand.NewSource(int64(p)))
			var bal [accounts]uint64
			for i := range bal {
				bal[i] = start
			}
			put := func(ts uint64, i int) { tab.publish(p*accounts+uint64(i), ts, bal[i], bal[i] == 0) }
			for op := 0; op < ops; op++ {
				a, b := rng.Intn(accounts), rng.Intn(accounts)
				if a == b || bal[a] == 0 {
					continue
				}
				amt := 1 + uint64(rng.Intn(int(bal[a])))
				bal[a], bal[b] = bal[a]-amt, bal[b]+amt
				noise := 1000 + p*100_000 + uint64(rng.Intn(2000))
				snapCommit(tier, w, func(ts uint64) {
					put(ts, a)
					put(ts, b)
					tab.publish(noise, ts, uint64(op%2), op%2 == 0)
				})
				if op%64 == 0 {
					forceSweep(tab)
				}
			}
		}()
	}
	for r := 0; r < readers; r++ {
		reads.Add(1)
		go func() {
			defer reads.Done()
			s := tier.newSlot()
			for last := uint64(0); !done.Load(); {
				rt, _ := tier.beginSnapshot(s)
				if rt < last {
					t.Errorf("cut went back from %d to %d", last, rt)
				}
				last = rt
				var sum uint64
				for k := uint64(0); k < publishers*accounts; k++ {
					v, _ := tab.read(k, rt)
					sum += v
				}
				tier.endSnapshot(s)
				if sum != publishers*accounts*start {
					t.Errorf("cut %d sums to %d, want %d", rt, sum, publishers*accounts*start)
					return
				}
			}
		}()
	}
	pubs.Wait()
	done.Store(true)
	reads.Wait()
	forceSweep(tab)
	if got, max := versions(tab), publishers*(accounts+2000); got > max {
		t.Errorf("%d versions left after the last sweep, at most one per key (%d)", got, max)
	}
}
