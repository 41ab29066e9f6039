package core

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"medley/internal/chaos"
)

func txRead(s *Session, o *CASObj[int]) int {
	v, tag := o.NbtcLoad(s)
	s.AddToReadSet(o, tag)
	return v
}

func txWrite(t *testing.T, s *Session, o *CASObj[int], from, to int) {
	t.Helper()
	if !o.NbtcCAS(s, from, to, true, true) {
		t.Fatalf("install %d→%d failed", from, to)
	}
}

func wantAll(t *testing.T, what string, objs []CASObj[int], want int) {
	t.Helper()
	for i := range objs {
		wantSettled(t, fmt.Sprintf("%s[%d]", what, i), &objs[i], want)
	}
}

// settled reports whether o holds want as a real value: no descriptor, and
// no overwritten cell pinned behind it.
func settled(o *CASObj[int], want int) error {
	c := cellOf(o)
	switch {
	case c != nil && c.owner() != nil:
		return errors.New("a descriptor is still installed")
	case c != nil && atomic.LoadPointer(&c.prev) != nil:
		return errors.New("it still pins the cell it was installed over")
	case c.value() != want:
		return fmt.Errorf("it holds %d, want %d", c.value(), want)
	}
	return nil
}

// wantSettled asserts that o holds want as a real value (settled).
func wantSettled(t *testing.T, what string, o *CASObj[int], want int) {
	t.Helper()
	if err := settled(o, want); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
}

// blank reports whether d is ready for a transaction: InPrep, empty sets
// with at least the given capacities.
func blank(d *Desc, reads, writes int) error {
	if d.Status() != InPrep || len(d.readSet) != 0 || len(d.writeSet) != 0 {
		return fmt.Errorf("transaction starts on a descriptor that is not blank: %v, sets %d/%d",
			d.Status(), len(d.readSet), len(d.writeSet))
	}
	if cap(d.readSet) < reads || cap(d.writeSet) < writes {
		return fmt.Errorf("descriptor sets hold %d reads, %d writes; its predecessor's held %d, %d", cap(d.readSet), cap(d.writeSet), reads, writes)
	}
	return nil
}

func wantBlank(t *testing.T, d *Desc, reads, writes int) {
	t.Helper()
	if err := blank(d, reads, writes); err != nil {
		t.Fatal(err)
	}
}

// holdAt starts a real helper, load, and returns once it has stopped at the
// core point. The point is disarmed once the helper is there: the owner's own
// sweep passes the same points and must not stop.
func holdAt(t *testing.T, point string, load func()) *HeldHelper {
	h := NewHeldHelper(t, point, load)
	h.Enter(t)
	chaos.Disarm(point)
	return h
}

// releaseInside releases a stopped helper while another transaction has its
// cell in the object the helper loads. What is left of its stale step must
// leave that transaction alone; its Load then meets the new cell, a fresh
// encounter that would abort it, and stops there instead: leave it once that
// transaction has ended.
func releaseInside(t *testing.T, h *HeldHelper) {
	h.Next(t, "core.tryfinalize.found")
}

// The core points at which a helper that tripped over a cell is stopped, in
// the order it passes them.
var helperPoints = []struct {
	name, point string
	counted     bool // it holds the descriptor's count there
	decided     bool // it has taken the verdict there
}{
	{"cell loaded", "core.tryfinalize.found", false, false},
	{"counted", "core.tryfinalize.counted", true, false},
	{"re-checked", "core.tryfinalize.rechecked", true, false},
	{"inside finalize", "core.finalize.verdict", true, true},
	{"inside uninstall", "core.uninstall.loaded", true, true},
}

// The points of the owner's timeline at which a stopped helper is released.
const (
	beforeTxEnd    = iota // transaction 1 InPrep, every install made
	atInProg              // inside the layer's validation of transaction 1: InProg, no verdict yet
	afterSweep            // inside its cleanup or undo: swept, the count not read
	afterCountRead        // TxEnd has returned, the next TxBegin has not run
	insideNextTx          // the next transaction is open, its installs made
	afterNextTx           // the next transaction has committed
)

var ownerPoints = []string{
	"before TxEnd", "at InProg", "after the sweep", "after the count read", "inside the next transaction", "after the next transaction",
}

// nextTx runs the owner's next transaction on s: three reads, two writes over
// transaction 1's objects (from want to want+10) and five more, so that it
// fills every set entry transaction 1 used and more. It must run on prev
// exactly when reuse holds, and otherwise on a fresh descriptor with prev's
// capacities; mid runs while it is open, after its last install, and must
// leave it alone: still InPrep, every cell still its own, and it commits.
func nextTx(t *testing.T, s *Session, prev *Desc, reuse bool, reads, writes int, first []CASObj[int], want int, mid func()) {
	t.Helper()
	more := make([]CASObj[int], 5)
	rs := make([]CASObj[int], 3)
	s.TxBegin()
	d := s.Desc()
	if (d == prev) != reuse { // not fatal: go on to see whether the helper disturbs it
		t.Errorf("next transaction runs on its predecessor's descriptor: %v, want %v", d == prev, reuse)
	}
	wantBlank(t, d, reads, writes)
	for i := range rs {
		txRead(s, &rs[i])
	}
	for i := range first {
		txWrite(t, s, &first[i], want, want+10)
	}
	for i := range more {
		txWrite(t, s, &more[i], 0, 2)
	}
	mid()
	if d.Status() != InPrep {
		t.Fatalf("next transaction is %v after the stale helper ran, want InPrep", d.Status())
	}
	for i := range first {
		if first[i].installedBy() != d {
			t.Fatalf("stale helper disturbed the next transaction's cell in first[%d]", i)
		}
	}
	for i := range more {
		if more[i].installedBy() != d {
			t.Fatalf("stale helper disturbed the next transaction's cell %d", i)
		}
	}
	if err := s.TxEnd(); err != nil {
		t.Fatalf("next transaction: %v", err)
	}
	wantAll(t, "first", first, want+10)
	wantAll(t, "more", more, 2)
}

// TestStaleHelper names, one by one, placements that TestExploreStaleHelper
// reaches among its interleavings: a helper, a Load of one of transaction
// 1's objects, stopped at each core point of tryFinalize, finalize and
// uninstall — while transaction 1 is InPrep, or InProg — and released at
// every point of the owner's timeline. In every case the owner's next
// transaction runs on the same descriptor exactly when a helper was not
// counted when the owner read the count (stopped past the increment,
// released after the read), and that transaction is never disturbed.
func TestStaleHelper(t *testing.T) {
	for _, parkInProg := range []bool{false, true} {
		for _, hp := range helperPoints {
			for rel, relName := range ownerPoints {
				if parkInProg && rel == beforeTxEnd {
					continue // released before it stopped
				}
				// Stopped past the verdict while InPrep, the helper has
				// aborted transaction 1, which then never reaches InProg.
				if !parkInProg && hp.decided && rel == atInProg {
					continue
				}
				when := "InPrep"
				if parkInProg {
					when = "InProg"
				}
				name := fmt.Sprintf("parked %s %s/released %s", hp.name, when, relName)
				t.Run(name, func(t *testing.T) {
					staleHelperCase(t, parkInProg, hp.point, rel,
						!parkInProg && (hp.decided || rel == beforeTxEnd),
						hp.counted && rel >= afterCountRead)
				})
			}
		}
	}
}

func staleHelperCase(t *testing.T, parkInProg bool, point string, rel int, aborted, countedAtRead bool) {
	mgr := NewTxManager()
	a := mgr.Session()
	var x CASObj[int]
	first := make([]CASObj[int], 2)
	var h *HeldHelper
	hold := func() { h = holdAt(t, point, func() { first[0].Load() }) }
	released := false
	at := func(q int) {
		switch {
		case rel != q:
			return
		case q == insideNextTx:
			releaseInside(t, h)
		default:
			h.Leave()
		}
		released = true
	}
	validated := false
	mgr.SetLayer(validLayer(func(*Session) bool {
		if !validated { // the owner's own call; the helper's passes
			validated = true
			if parkInProg {
				hold()
			}
			at(atInProg)
		}
		return true
	}))

	a.TxBegin()
	d1 := a.Desc()
	txRead(a, &x)
	for i := range first {
		txWrite(t, a, &first[i], 0, 1)
	}
	a.AddToCleanups(Func(func() { at(afterSweep) }), nil, nil)
	a.OnAbort(Func(func() { at(afterSweep) }), nil, nil)
	if !parkInProg {
		hold()
	}
	reads, writes := cap(d1.readSet), cap(d1.writeSet)
	at(beforeTxEnd)
	err := a.TxEnd()
	want := 1
	if aborted {
		want = 0
		if !errors.Is(err, ErrTxAborted) {
			t.Fatalf("transaction 1 = %v, want abort by the helper", err)
		}
	} else if err != nil {
		t.Fatalf("transaction 1: %v", err)
	}
	wantAll(t, "first", first, want)
	at(afterCountRead)

	nextTx(t, a, d1, !countedAtRead, reads, writes, first, want, func() { at(insideNextTx) })
	if rel == insideNextTx {
		h.Leave()
	}
	at(afterNextTx)
	if !released {
		t.Fatal("the release point was never reached")
	}
	wantAll(t, "first", first, want+10)
}

// TestReuseLeavesNothingBehind checks what an idle session holds after a
// transaction: its next descriptor's sets and the record slots cleared over
// their whole capacity, whether the transaction committed, aborted or only
// read.
func TestReuseLeavesNothingBehind(t *testing.T) {
	s := NewTxManager().Session()
	objs := make([]CASObj[int], 4)
	wantIdle := func(when string) {
		t.Helper()
		d := s.spare
		wantBlank(t, d, 0, 0)
		for _, r := range d.readSet[:cap(d.readSet)] {
			if r.slot != nil || r.tag != nil {
				t.Fatalf("%s: the read set still pins an object", when)
			}
		}
		for _, o := range d.writeSet[:cap(d.writeSet)] {
			if o != nil {
				t.Fatalf("%s: the write set still pins an object", when)
			}
		}
		for _, r := range s.cleanups[:cap(s.cleanups)] {
			if r.c != nil || r.a != nil || r.b != nil {
				t.Fatalf("%s: a cleanup record is still reachable", when)
			}
		}
		for _, r := range s.undos[:cap(s.undos)] {
			if r.c != nil || r.a != nil || r.b != nil {
				t.Fatalf("%s: an undo record is still reachable", when)
			}
		}
	}
	body := func() {
		s.TxBegin()
		for i := range objs {
			txRead(s, &objs[i])
		}
		if objs[3].NbtcCAS(s, -1, 0, true, true) {
			t.Fatal("CAS from a value never stored succeeded")
		}
		s.AddToCleanups(Func(func() {}), &objs[0], &objs[1])
		s.OnAbort(Func(func() {}), &objs[2], &objs[3])
	}

	body()
	txWrite(t, s, &objs[0], 0, 1)
	if err := s.TxEnd(); err != nil {
		t.Fatal(err)
	}
	wantIdle("after commit")

	body()
	txWrite(t, s, &objs[1], 0, 1)
	s.TxAbort()
	wantIdle("after abort")
	if objs[1].Load() != 0 {
		t.Fatal("aborted write visible")
	}

	body()
	if err := s.TxEnd(); err != nil {
		t.Fatal(err)
	}
	wantIdle("after read-only commit")
}

// TestReuseHeaderSize pins the descriptor to the 64-byte size class: the
// helper count shares a word with the status.
func TestReuseHeaderSize(t *testing.T) {
	if sz := unsafe.Sizeof(Desc{}); sz > 64 {
		t.Fatalf("Desc is %d bytes, budget 64", sz)
	}
}

// TestReuseLargeSets runs transactions whose sets outgrow any inline tier
// there ever was (25 reads, 13 writes), through every way of ending, on one
// descriptor throughout.
func TestReuseLargeSets(t *testing.T) {
	const nr, nw = 25, 13
	s := NewTxManager().Session()
	other := s.Manager().Session()
	reads := make([]CASObj[int], nr)
	writes := make([]CASObj[int], nw)
	var first *Desc
	open := func(from, to int) *Desc {
		s.TxBegin()
		d := s.Desc()
		if first == nil {
			first = d
		} else if d != first {
			t.Fatal("a transaction with no helper about ran on a new descriptor")
		}
		for i := range reads {
			txRead(s, &reads[i])
		}
		for i := range writes {
			txWrite(t, s, &writes[i], from, to)
		}
		return d
	}

	open(0, 1)
	if err := s.TxEnd(); err != nil {
		t.Fatal(err)
	}
	wantAll(t, "writes", writes, 1)

	open(1, 2)
	s.TxAbort()
	wantAll(t, "writes", writes, 1)

	// The last read goes stale: validation fails, every write rolls back.
	open(1, 2)
	if !reads[nr-1].NbtcCAS(other, 0, 9, true, true) {
		t.Fatal("invalidating CAS failed")
	}
	if err := s.TxEnd(); !errors.Is(err, ErrTxAborted) {
		t.Fatalf("TxEnd = %v, want abort", err)
	}
	wantAll(t, "writes", writes, 1)

	// A helper commits it: the sweep it runs covers the whole write set.
	reads[nr-1].Store(0)
	d := open(1, 3)
	if !d.status.CompareAndSwap(uint32(InPrep), uint32(InProg)) {
		t.Fatal("InPrep→InProg failed")
	}
	writes[nw-1].Load()
	wantAll(t, "writes (swept by the helper)", writes, 3)
	if err := s.TxEnd(); err != nil {
		t.Fatal(err)
	}
	open(3, 4)
	s.TxAbort()
}

// TestReuseRecycle drives 1000 mixed transactions through a session and
// checks the rule of descriptor reuse at every TxBegin: the descriptor is
// the previous transaction's unless a helper was counted in it when that
// transaction finished; then it is one never seen before, with room for its
// predecessor's sets. Whether a transaction committed is taken from TxEnd,
// never from a descriptor that has moved on.
func TestReuseRecycle(t *testing.T) {
	a := NewTxManager().Session()
	objs := make([]CASObj[int], 8)
	var target *CASObj[int]
	h := NewHeldHelper(t, "core.tryfinalize.counted", func() { target.Load() })
	seen := map[*Desc]bool{} // holding the pointers also keeps the addresses from being reused
	var prev *Desc
	var prevReads, prevWrites int
	dropPrev := false
	fresh := 0
	begin := func(i int) *Desc {
		a.TxBegin()
		d := a.Desc()
		switch {
		case prev == nil:
		case !dropPrev && d != prev:
			t.Fatalf("tx %d: no helper was counted, yet the descriptor was not reused", i)
		case dropPrev && (d == prev || seen[d]):
			t.Fatalf("tx %d: a helper was counted, yet the descriptor is not a fresh one", i)
		case dropPrev:
			fresh++
		}
		wantBlank(t, d, prevReads, prevWrites)
		seen[d] = true
		return d
	}
	end := func(d *Desc, held, abort bool) {
		prev, prevReads, prevWrites, dropPrev = d, cap(d.readSet), cap(d.writeSet), held
		if abort {
			a.TxAbort()
		} else if err := a.TxEnd(); err != nil {
			t.Fatal(err)
		}
		if held {
			h.Leave()
		}
	}

	rng := rand.New(rand.NewSource(1))
	dropped := 0
	for i := 0; i < 1000; i++ {
		o := &objs[rng.Intn(len(objs))]
		abort := rng.Intn(4) == 0
		held := false
		d := begin(i)
		switch rng.Intn(4) {
		case 0: // read-only
			txRead(a, o)
		case 1: // every write fails before it installs
			if o.NbtcCAS(a, -1, 0, true, true) {
				t.Fatal("CAS from a value never stored succeeded")
			}
		case 2: // one install
			v := txRead(a, o)
			txWrite(t, a, o, v, v+1)
		default: // one install, and a helper counted in it across the finish
			v := txRead(a, o)
			txWrite(t, a, o, v, v+1)
			target, held = o, true
			h.Enter(t)
			dropped++
		}
		end(d, held, abort)
	}
	if dropped < 100 || len(seen) != fresh+1 {
		t.Fatalf("mix degenerate or descriptors leaked: %d descriptors, %d fresh, %d transactions with a helper at the finish", len(seen), fresh, dropped)
	}
}

// TestReuseContended has four sessions transfer between two objects, so a
// transaction meets another's cell nearly every time and helping is the
// common case. The sum is conserved; across the run some transactions ran on
// their predecessor's descriptor and some found a helper still inside it and
// took a fresh one. The manager's layer yields in validation, so a helper
// that validates a transfer is descheduled inside finalize, at any
// GOMAXPROCS.
func TestReuseContended(t *testing.T) {
	mgr := NewTxManager()
	mgr.SetLayer(validLayer(func(*Session) bool { runtime.Gosched(); return true }))
	var objs [2]CASObj[int]
	objs[0].Store(1000)
	objs[1].Store(1000)
	var reused, dropped atomic.Int64
	deadline := time.Now().Add(20 * time.Second)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := mgr.Session()
			var last *Desc // compared, never read
			for i := 0; i < 2000 || (reused.Load() == 0 || dropped.Load() == 0) && time.Now().Before(deadline); i++ {
				src, dst := &objs[(w+i)%2], &objs[(w+i+1)%2]
				err := s.Run(func() error {
					if d := s.Desc(); last != nil && d == last {
						reused.Add(1)
					} else if last != nil {
						dropped.Add(1)
					}
					last = s.Desc()
					sv := txRead(s, src)
					dv := txRead(s, dst)
					if !src.NbtcCAS(s, sv, sv-1, true, true) || !dst.NbtcCAS(s, dv, dv+1, true, true) {
						return ErrTxAborted
					}
					return nil
				})
				if err != nil {
					t.Errorf("transfer: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if sum := objs[0].Load() + objs[1].Load(); sum != 2000 {
		t.Fatalf("sum = %d, want 2000", sum)
	}
	t.Logf("%d transactions on their predecessor's descriptor, %d on a fresh one", reused.Load(), dropped.Load())
	if reused.Load() == 0 || dropped.Load() == 0 {
		t.Fatalf("reused %d, dropped %d: want both", reused.Load(), dropped.Load())
	}
}

// The points at which the caller stopped inside uninstall is released.
const (
	beforeOwnerSweep = iota
	afterOwnerSweep
	insideLaterInstall // a later transaction has its own cell in the object
	afterLaterTx
)

var uninstallReleases = []string{
	"before the owner's sweep", "after the owner's sweep", "inside a later install", "after the later transaction",
}

// TestStaleHelperInsideUninstall stops a helper, a Load of object o, inside
// uninstall on o while the owner finishes and a later transaction installs
// over o and commits or aborts, transaction 1 committed and aborted.
// Wherever it resumes it must act on transaction 1's cell alone. A reader
// that saw o between the two transactions is the witness that the slot holds
// the very same cell again after the later one aborts. The owner's sweep and
// the helper's are the same uninstall, so this covers a stale sweep too.
func TestStaleHelperInsideUninstall(t *testing.T) {
	windows := []struct {
		name   string
		commit bool
		point  string
	}{
		{"commit, parked after the load", true, "core.uninstall.loaded"},
		{"commit, parked between the clears", true, "core.settle.cleared"},
		{"abort, parked before the CAS", false, "core.uninstall.loaded"},
	}
	for _, w := range windows {
		for rel, relName := range uninstallReleases {
			for _, laterCommits := range []bool{true, false} {
				name := fmt.Sprintf("%s/released %s/later commits=%v", w.name, relName, laterCommits)
				t.Run(name, func(t *testing.T) {
					owner, later, reader := NewTxManager().Session(), NewTxManager().Session(), NewTxManager().Session()
					var o, side, y CASObj[int]

					// o first: a helper that sweeps transaction 1 stops at o's cell.
					owner.TxBegin()
					txWrite(t, owner, &o, 0, 1)
					txWrite(t, owner, &side, 0, 1)
					d := owner.desc
					want := 0
					if w.commit {
						want = 1
						decide(owner)
					} else {
						d.status.CompareAndSwap(uint32(InPrep), uint32(Aborted))
					}
					h := holdAt(t, w.point, func() { o.Load() })
					at := func(q int) {
						switch {
						case rel != q:
						case q == insideLaterInstall:
							releaseInside(t, h)
						default:
							h.Leave()
						}
					}

					at(beforeOwnerSweep)
					if err := owner.finish(d); w.commit != (err == nil) || owner.InTx() {
						t.Fatalf("transaction 1 = %v, want commit %v", err, w.commit)
					}
					at(afterOwnerSweep)
					wantSettled(t, "o", &o, want)
					wantSettled(t, "side", &side, want)

					reader.TxBegin()
					txRead(reader, &o)
					txWrite(t, reader, &y, 0, 1)

					later.TxBegin()
					d2 := later.desc
					txWrite(t, later, &o, want, 7)
					at(insideLaterInstall)
					if o.installedBy() != d2 || d2.Status() != InPrep {
						t.Fatal("the stopped helper disturbed the later transaction's install")
					}
					if !laterCommits {
						later.TxAbort()
					} else if err := later.TxEnd(); err != nil {
						t.Fatalf("later transaction: %v", err)
					} else {
						want = 7
					}
					if rel == insideLaterInstall {
						h.Leave()
					}
					at(afterLaterTx)
					wantSettled(t, "o", &o, want)

					// The reader's cell is back iff the later install aborted.
					if err := reader.TxEnd(); laterCommits != errors.Is(err, ErrTxAborted) {
						t.Fatalf("reader = %v after the later transaction (committed %v)", err, laterCommits)
					}
				})
			}
		}
	}
}
