package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"
	"unsafe"
)

// staleHelper models a helper that loaded an installed cell, passed
// tryFinalize's responsibility check and was descheduled: it parks on its
// own goroutine and, when run, executes the rest of tryFinalize against
// whatever the owner's session has turned into by then.
type staleHelper struct{ release, done chan struct{} }

func parkHelper(o Obj) *staleHelper {
	slot := o.slot()
	d := (*cellHeader)(atomic.LoadPointer(slot)).owner()
	return park(func() { d.finalize(slot) })
}

func park(resume func()) *staleHelper {
	h := &staleHelper{make(chan struct{}), make(chan struct{})}
	go func() {
		<-h.release
		resume()
		close(h.done)
	}()
	return h
}

func (h *staleHelper) run() {
	close(h.release)
	<-h.done
}

// The points at which a stale helper is released, relative to the owner.
const (
	beforeTxEnd = iota
	betweenFreezeAndInProg
	afterFinish
	insideNextTx
	numReleasePoints
)

var releasePointNames = [numReleasePoints]string{
	"before TxEnd", "between freeze and InProg CAS", "after finish", "inside the next transaction",
}

// endWith is s.TxEnd taken apart so that between can run after the freeze and
// before the status CAS. s is the root of its transaction.
func endWith(s *Session, between func()) error {
	freezeTx(s)
	between()
	decide(s)
	return s.finish(s.desc)
}

func freezeTx(s *Session) {
	if d := s.desc; len(d.writeSet) != 0 {
		s.freeze(d)
	}
}

// decide takes the (frozen) transaction of s from InPrep to its verdict.
func decide(s *Session) {
	d := s.desc
	if d.status.CompareAndSwap(uint32(InPrep), uint32(InProg)) {
		if d.validate() {
			d.status.CompareAndSwap(uint32(InProg), uint32(Committed))
		} else {
			d.status.CompareAndSwap(uint32(InProg), uint32(Aborted))
		}
	}
}

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

// wantFrozen asserts that d carries exactly these sets, privately: nothing
// a later transaction does to the session's scratch may show through.
func wantFrozen(t *testing.T, d *Desc, reads, writes []*CASObj[int]) {
	t.Helper()
	if !d.frozen {
		t.Fatal("reachable descriptor not frozen")
	}
	if len(d.readSet) != len(reads) || len(d.writeSet) != len(writes) {
		t.Fatalf("frozen sets have %d reads, %d writes; want %d, %d", len(d.readSet), len(d.writeSet), len(reads), len(writes))
	}
	for i, o := range reads {
		if d.readSet[i].slot != o.slot() {
			t.Fatalf("frozen read %d is not the object the transaction read", i)
		}
	}
	for i, o := range writes {
		if d.writeSet[i] != o.slot() {
			t.Fatalf("frozen write %d is not the object the transaction wrote", i)
		}
	}
	s := d.owner
	if len(reads) > 0 && cap(s.rs) > 0 && &d.readSet[0] == &s.rs[:1][0] {
		t.Fatal("frozen read set aliases the session's scratch")
	}
	if len(writes) > 0 && cap(s.ws) > 0 && &d.writeSet[0] == &s.ws[:1][0] {
		t.Fatal("frozen write set aliases the session's scratch")
	}
}

func wantAll(t *testing.T, what string, objs []CASObj[int], want int) {
	t.Helper()
	for i := range objs {
		wantSettled(t, fmt.Sprintf("%s[%d]", what, i), &objs[i], want)
	}
}

// wantSettled asserts that o holds want as a real value: no descriptor, and
// no overwritten cell pinned behind it.
func wantSettled(t *testing.T, what string, o *CASObj[int], want int) {
	t.Helper()
	c := cellOf(o)
	if c != nil && c.owner() != nil {
		t.Fatalf("%s still has a descriptor installed", what)
	}
	if c != nil && atomic.LoadPointer(&c.prev) != nil {
		t.Fatalf("%s still pins the cell it was installed over", what)
	}
	if got := c.value(); got != want {
		t.Fatalf("%s = %d, want %d", what, got, want)
	}
}

func ptrs(objs []CASObj[int]) []*CASObj[int] {
	out := make([]*CASObj[int], len(objs))
	for i := range objs {
		out[i] = &objs[i]
	}
	return out
}

// secondTx runs a transaction larger than any first transaction of these
// tests on s (three reads, five writes), so it refills every scratch slot
// the first one used and more. mid runs while it is open, after its last
// install. The transaction must commit, on a descriptor other than first,
// and whatever ran in mid must have left it alone.
func secondTx(t *testing.T, s *Session, first *Desc, mid func()) {
	t.Helper()
	reads := make([]CASObj[int], 3)
	writes := make([]CASObj[int], 5)
	s.TxBegin()
	d := s.Desc()
	if d == first {
		t.Fatal("a descriptor that installed cells was reused")
	}
	for i := range reads {
		txRead(s, &reads[i])
	}
	for i := range writes {
		txWrite(t, s, &writes[i], 0, 2)
	}
	mid()
	if d.Status() != InPrep {
		t.Fatalf("second transaction is %v after the stale helper ran, want InPrep", d.Status())
	}
	for i := range writes {
		if writes[i].installedBy() != d {
			t.Fatalf("stale helper disturbed the second transaction's cell %d", i)
		}
	}
	if err := s.TxEnd(); err != nil {
		t.Fatalf("second transaction: %v", err)
	}
	wantAll(t, "second", writes, 2)
	wantFrozen(t, d, ptrs(reads), ptrs(writes))
}

// TestStaleHelper enumerates where a helper that tripped over one of
// transaction 1's cells resumes, and checks at every point that it acts on
// transaction 1 alone: the owner's next transaction, which refills the same
// scratch, commits untouched, and transaction 1's frozen sets still name
// exactly its own objects afterwards.
func TestStaleHelper(t *testing.T) {
	for p := 0; p < numReleasePoints; p++ {
		t.Run(releasePointNames[p], func(t *testing.T) {
			a := NewTxManager().Session()
			var x CASObj[int]
			first := make([]CASObj[int], 2)

			a.TxBegin()
			d1 := a.Desc()
			txRead(a, &x)
			for i := range first {
				txWrite(t, a, &first[i], 0, 1)
			}
			h := parkHelper(&first[0])
			at := func(q int) func() {
				return func() {
					if p == q {
						h.run()
					}
				}
			}

			at(beforeTxEnd)()
			var err error
			if p == betweenFreezeAndInProg {
				err = endWith(a, h.run)
			} else {
				err = a.TxEnd()
			}
			at(afterFinish)()

			// Released while transaction 1 was still InPrep, the helper
			// aborts it; afterwards it can only find it committed.
			want := 1
			if p <= betweenFreezeAndInProg {
				want = 0
				if !errors.Is(err, ErrTxAborted) {
					t.Fatalf("first transaction = %v, want abort by the helper", err)
				}
			} else if err != nil {
				t.Fatalf("first transaction: %v", err)
			}
			wantAll(t, "first", first, want)

			secondTx(t, a, d1, at(insideNextTx))
			wantAll(t, "first", first, want)
			wantFrozen(t, d1, []*CASObj[int]{&x}, ptrs(first))
		})
	}
}

// TestDescFreezeLeavesNothingBehind checks what an idle session holds after
// a transaction: scratch and closure slots cleared over their whole
// capacity, whether the transaction committed, aborted or never published.
func TestDescFreezeLeavesNothingBehind(t *testing.T) {
	s := NewTxManager().Session()
	objs := make([]CASObj[int], 4)
	wantIdle := func(when string) {
		t.Helper()
		for _, r := range s.rs[:cap(s.rs)] {
			if r.slot != nil || r.tag != nil {
				t.Fatalf("%s: read scratch still pins an object", when)
			}
		}
		for _, o := range s.ws[:cap(s.ws)] {
			if o != nil {
				t.Fatalf("%s: write scratch still pins an object", when)
			}
		}
		for _, f := range s.cleanups[:cap(s.cleanups)] {
			if f != nil {
				t.Fatalf("%s: a cleanup closure is still reachable", when)
			}
		}
		for _, f := range s.undos[:cap(s.undos)] {
			if f != nil {
				t.Fatalf("%s: an undo closure is still reachable", when)
			}
		}
	}
	body := func() {
		s.TxBegin()
		for i := range objs {
			txRead(s, &objs[i])
		}
		s.AddToCleanups(func() {})
		s.OnAbort(func() {})
		s.Desc().AddValidator(func() bool { return true })
		s.Desc().AddValidator(func() bool { return true })
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
	if sp := s.spare; sp == nil || sp.readSet != nil || sp.writeSet != nil || sp.vBuf[0] != nil {
		t.Fatal("spare descriptor missing or still holding on to its last transaction")
	}
}

// TestDescFreezeHeaderSize pins the descriptor to its header: the 96-byte
// size class, down from 896 with the sets inline.
func TestDescFreezeHeaderSize(t *testing.T) {
	if sz := unsafe.Sizeof(Desc{}); sz > 96 {
		t.Fatalf("Desc is %d bytes, budget 96", sz)
	}
}

// TestDescFreezeLargeSets runs transactions whose sets outgrow any inline
// tier there ever was (24 reads, 12 writes), through every way of ending.
func TestDescFreezeLargeSets(t *testing.T) {
	const nr, nw = 25, 13
	s := NewTxManager().Session()
	other := s.Manager().Session()
	reads := make([]CASObj[int], nr)
	writes := make([]CASObj[int], nw)
	open := func(from, to int) *Desc {
		s.TxBegin()
		for i := range reads {
			txRead(s, &reads[i])
		}
		for i := range writes {
			txWrite(t, s, &writes[i], from, to)
		}
		return s.Desc()
	}

	d := open(0, 1)
	if err := s.TxEnd(); err != nil {
		t.Fatal(err)
	}
	wantAll(t, "writes", writes, 1)
	wantFrozen(t, d, ptrs(reads), ptrs(writes))

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

	// A helper commits it: the sweep it runs covers the whole frozen set.
	reads[nr-1].Store(0)
	d = open(1, 3)
	h := parkHelper(&writes[nw-1])
	if err := endWith(s, func() {
		if !d.status.CompareAndSwap(uint32(InPrep), uint32(InProg)) {
			t.Fatal("InPrep→InProg failed")
		}
		h.run()
		wantAll(t, "writes (swept by the helper)", writes, 3)
	}); err != nil {
		t.Fatal(err)
	}
}

// TestDescRecycle drives 1000 mixed transactions through a session and
// checks the one rule of descriptor reuse at every TxBegin: a descriptor
// that ever installed a cell is never seen again, while one that did not is
// the very next transaction's descriptor.
func TestDescRecycle(t *testing.T) {
	a := NewTxManager().Session()
	objs := make([]CASObj[int], 8)
	reachable := map[*Desc]string{} // holding the pointers also keeps the addresses from being reused
	spareOf := map[*Session]*Desc{} // the descriptor each session's next TxBegin must reuse
	begin := func(s *Session, i int) *Desc {
		s.TxBegin()
		d := s.Desc()
		if how, bad := reachable[d]; bad {
			t.Fatalf("tx %d reuses a descriptor that %s", i, how)
		}
		if want := spareOf[s]; want != nil && d != want {
			t.Fatalf("tx %d did not reuse the descriptor its predecessor left unreachable", i)
		}
		if d.Status() != InPrep || d.frozen || len(d.readSet) != 0 || len(d.writeSet) != 0 || len(d.validators) != 0 {
			t.Fatalf("tx %d starts on a descriptor that is not blank", i)
		}
		spareOf[s] = nil
		return d
	}
	end := func(s *Session, d *Desc, published string, abort bool) {
		if published != "" {
			reachable[d] = published
		} else {
			spareOf[s] = d
		}
		if abort {
			s.TxAbort()
		} else if err := s.TxEnd(); err != nil {
			t.Fatal(err)
		}
	}

	rng := rand.New(rand.NewSource(1))
	recycled := 0
	for i := 0; i < 1000; i++ {
		o := &objs[rng.Intn(len(objs))]
		abort := rng.Intn(4) == 0
		switch rng.Intn(4) {
		case 0: // read-only
			d := begin(a, i)
			txRead(a, o)
			d.AddValidator(func() bool { return true })
			end(a, d, "", abort)
			recycled++
		case 1: // every write fails before it installs
			d := begin(a, i)
			if o.NbtcCAS(a, -1, 0, true, true) {
				t.Fatal("CAS from a value never stored succeeded")
			}
			end(a, d, "", abort)
			recycled++
		case 2: // one install
			d := begin(a, i)
			v := txRead(a, o)
			txWrite(t, a, o, v, v+1)
			end(a, d, fmt.Sprintf("installed a cell in tx %d", i), abort)
		default: // read-only with one validator more than fits inline
			d := begin(a, i)
			txRead(a, o)
			d.AddValidator(func() bool { return true })
			d.AddValidator(func() bool { return true })
			end(a, d, "", abort)
			recycled++
		}
	}
	if recycled < 100 || len(reachable) < 100 {
		t.Fatalf("mix degenerate: %d recyclable, %d reachable", recycled, len(reachable))
	}
}

// The points inside uninstall at which a caller can be descheduled.
const (
	afterLoad     = iota // it loaded the slot and has not entered settle
	betweenClears        // committed only: it cleared prev and not yet desc
)

// parkInUninstall models a caller of uninstall(o.slot(), d, committed) — the
// owner's sweep, a helper's sweep and the single-cell path are that one
// function — descheduled inside it. Parked after the load it resumes in the
// real settle; between the clears, the second store is made by hand.
func parkInUninstall(o Obj, d *Desc, committed bool, point int) *staleHelper {
	slot := o.slot()
	c := atomic.LoadPointer(slot)
	h := (*cellHeader)(c)
	if point == betweenClears {
		atomic.StorePointer(&h.prev, nil)
		return park(func() { atomic.StorePointer(&h.desc, nil) })
	}
	return park(func() {
		if !settle(slot, c, d, committed) {
			uninstall(slot, d, committed)
		}
	})
}

// The points at which that caller is released.
const (
	beforeOwnerSweep = iota
	afterOwnerSweep
	insideLaterInstall // a later transaction has its own cell in the object
	afterLaterTx
	numUninstallReleases
)

var uninstallReleaseNames = [numUninstallReleases]string{
	"before the owner's sweep", "after the owner's sweep", "inside a later install", "after the later transaction",
}

// TestStaleHelperInsideUninstall enumerates a caller parked inside uninstall
// on object o while the owner finishes and a later transaction installs over
// o and commits or aborts, transaction 1 committed and aborted. Wherever it
// resumes it must act on transaction 1's cell alone. A reader that saw o
// between the two transactions is the witness that the slot holds the very
// same cell again after the later one aborts.
func TestStaleHelperInsideUninstall(t *testing.T) {
	windows := []struct {
		name   string
		commit bool
		point  int
	}{
		{"commit, parked after the load", true, afterLoad},
		{"commit, parked between the clears", true, betweenClears},
		{"abort, parked before the CAS", false, afterLoad},
	}
	for _, w := range windows {
		for rel := 0; rel < numUninstallReleases; rel++ {
			for _, laterCommits := range []bool{true, false} {
				name := fmt.Sprintf("%s/released %s/later commits=%v", w.name, uninstallReleaseNames[rel], laterCommits)
				t.Run(name, func(t *testing.T) {
					owner, later, reader := NewTxManager().Session(), NewTxManager().Session(), NewTxManager().Session()
					var o, side, y CASObj[int]

					owner.TxBegin()
					txWrite(t, owner, &side, 0, 1)
					txWrite(t, owner, &o, 0, 1)
					d := owner.desc
					want := 0
					if w.commit {
						want = 1
						freezeTx(owner)
						decide(owner)
					} else {
						d.status.CompareAndSwap(uint32(InPrep), uint32(Aborted))
					}
					h := parkInUninstall(&o, d, w.commit, w.point)
					at := func(q int) {
						if rel == q {
							h.run()
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
						t.Fatal("the parked caller disturbed the later transaction's install")
					}
					if !laterCommits {
						later.TxAbort()
					} else if err := later.TxEnd(); err != nil {
						t.Fatalf("later transaction: %v", err)
					} else {
						want = 7
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
