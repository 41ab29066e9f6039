package core

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"medley/internal/chaos"
	"medley/internal/history"
)

// The MCNS windows, explored: two owners and one helper are stepped through
// every interleaving of the package's chaos points (desc.go) that preempts a
// goroutine at most twice, the bound doc.go derives ("Where the tests stop a
// goroutine"). Owner A commits a first transaction on o and x and leaves a
// second one open on objects nobody else touches, reading o; owner B writes
// o in a transaction of its own; H loads o. Whoever meets another's cell
// finalizes it, so A, B and H all help, and H only helps.
//
// The oracle is the history checker over everything that committed, and the
// reuse rule and the cells themselves:
//
//   - A's second transaction runs on the first one's descriptor exactly when
//     no helper was counted in it when the first finished, and is never
//     disturbed: still InPrep after every goroutine has returned, its cells
//     its own, and it commits exactly when o still holds the cell it read (a
//     cell that came back after a later install aborted included);
//   - a committed install is the cell that holds the value, whoever swept it
//     (the caller's cell in x, an allocated one in o), and an aborted one
//     leaves the cell it replaced; a cell with no descriptor pins no prev.
//
// A stale helper that acts on the reused descriptor aborts or commits A's
// second transaction, and a stale uninstall that swings the slot back by a
// store loses B's committed write, which the history's last read sees.

// The objects, by their key in the history's map 0.
const (
	keyO  = iota // A's first transaction and B write it, H loads it, A's second reads it
	keyX         // A's first transaction writes it, in a cell A supplies
	keyP0        // A's second transaction writes these two, and nobody else
	keyP1
	numKeys
)

// corePoints are the instants the scheduler stops a goroutine at: the
// package's chaos points.
func corePoints() []string {
	var ps []string
	for _, n := range chaos.Names() {
		if strings.HasPrefix(n, "core.") {
			ps = append(ps, n)
		}
	}
	return ps
}

// exploreRig is one interleaving's state.
type exploreRig struct {
	t       *testing.T
	s       *history.Sched
	rec     history.Recorder
	objs    [numKeys]CASObj[int]
	xcell   Cell[int]
	a, b    *Session
	reused  bool           // A's second transaction runs on the first one's descriptor
	second  *Desc          // and this is its descriptor, left open
	secTag  unsafe.Pointer // the cell of o it read
	secOps  []history.Op
	secCall int64

	// A goroutine that runs long without reaching a point runs beside the
	// next one (history.Sched), so what they share is under mu.
	mu     sync.Mutex
	parked map[string]bool // every point a goroutine was seen parked at
	bDone  bool            // B has returned
	helped bool            // helpers committed A's first transaction in place before A swept
}

func newExploreRig(t *testing.T, s *history.Sched, parked map[string]bool) *exploreRig {
	mgr := NewTxManager()
	r := &exploreRig{t: t, s: s, a: mgr.Session(), b: mgr.Session(), parked: parked}
	var init []history.Op
	for k := range r.objs {
		r.objs[k].Store(100 * (k + 1))
		init = append(init, history.Op{Kind: history.Put, Key: uint64(k), Arg: uint64(100 * (k + 1))})
	}
	r.rec.Complete(history.Event{Proc: 0, Mode: history.Run, Ops: init, Invoke: r.rec.Invoke()})
	return r
}

func put(k, v, old int) history.Op {
	return history.Op{Kind: history.Put, Key: uint64(k), Arg: uint64(v), Val: uint64(old), Ok: true}
}

func get(k, v int) history.Op {
	return history.Op{Kind: history.Get, Key: uint64(k), Val: uint64(v), Ok: true}
}

// sample notes where the other goroutines are parked, and checks that no
// finished cell pins the cell it was installed over: settle clears prev
// before desc.
func (r *exploreRig) sample() {
	r.mu.Lock()
	for _, at := range r.s.Parked() {
		if at != "" {
			r.parked[at] = true
		}
	}
	r.mu.Unlock()
	for k := range r.objs {
		if c := cellOf(&r.objs[k]); c != nil && c.owner() == nil && atomic.LoadPointer(&c.prev) != nil {
			r.t.Errorf("object %d: a cell with no descriptor pins the cell it was installed over", k)
		}
	}
}

// ownerA commits a first transaction, read o then write o and x, and opens a
// second on the same session, which it leaves open.
func (r *exploreRig) ownerA() {
	r.sample()
	a, o, x := r.a, &r.objs[keyO], &r.objs[keyX]
	call := r.rec.Invoke()
	a.TxBegin()
	d := a.Desc()
	x0 := cellOf(x)
	v, tag := o.NbtcLoad(a)
	a.AddToReadSet(o, tag)
	ops := []history.Op{get(keyO, v), put(keyO, 1001, v), put(keyX, 1002, 200)}
	if !o.NbtcCAS(a, v, 1001, true, true) || !x.NbtcCASIn(a, 200, &r.xcell, 1002, true, true) {
		a.TxAbort() // a CAS lost to another's write: nothing to check
		return
	}
	co := cellOf(o)
	err := a.TxEnd()
	counted := d.helpers.Load() != 0 // nobody has run since TxEnd read it
	if err == nil {
		r.rec.Complete(history.Event{Proc: 1, Mode: history.Run, Ops: ops, Invoke: call})
		if cellOf(x) != &r.xcell.c {
			r.t.Error("the commit replaced the caller's cell in x")
		}
		if c := cellOf(o); c.value() == 1001 && c != co {
			r.t.Error("the commit replaced the cell it installed in o")
		}
	} else {
		if cellOf(x) != x0 {
			r.t.Error("the abort left x without the cell it replaced")
		}
		if c := cellOf(o); c.value() == v && unsafe.Pointer(c) != unsafe.Pointer(tag) {
			r.t.Error("the abort left o without the cell it replaced")
		}
	}
	r.sample()

	r.secCall = r.rec.Invoke()
	a.TxBegin()
	r.second = a.Desc()
	if r.reused = r.second == d; r.reused == counted {
		r.t.Errorf("the next transaction runs on its predecessor's descriptor: %v, with a helper counted at the finish: %v", r.reused, counted)
	}
	if err := blank(r.second, cap(d.readSet), cap(d.writeSet)); err != nil {
		r.t.Error(err)
	}
	w, tag := o.NbtcLoad(a)
	a.AddToReadSet(o, tag)
	r.secTag = unsafe.Pointer(tag)
	r.secOps = []history.Op{get(keyO, w), put(keyP0, 3000, 300), put(keyP1, 3001, 400)}
	if !r.objs[keyP0].NbtcCAS(a, 300, 3000, true, true) || !r.objs[keyP1].NbtcCAS(a, 400, 3001, true, true) {
		r.t.Error("an install on an object nobody else touches failed")
	}
	r.sample()
}

// ownerB writes o in one transaction.
func (r *exploreRig) ownerB() {
	r.sample()
	b, o := r.b, &r.objs[keyO]
	call := r.rec.Invoke()
	b.TxBegin()
	v, tag := o.NbtcLoad(b)
	b.AddToReadSet(o, tag)
	if !o.NbtcCAS(b, v, 2001, true, true) {
		b.TxAbort()
	} else if b.TxEnd() == nil {
		r.rec.Complete(history.Event{Proc: 2, Mode: history.Run, Ops: []history.Op{get(keyO, v), put(keyO, 2001, v)}, Invoke: call})
	}
	r.sample()
	r.mu.Lock()
	r.bDone = true
	r.mu.Unlock()
}

// helper loads o: a plain operation, which helps whatever cell it meets.
func (r *exploreRig) helper() {
	r.sample()
	call := r.rec.Invoke()
	v := r.objs[keyO].Load()
	r.rec.Complete(history.Event{Proc: 3, Mode: history.Single, Ops: []history.Op{get(keyO, v)}, Invoke: call})
	r.sample()
	// A has decided nothing and B is not inside a sweep: the helpers have
	// committed A's first transaction in place.
	r.mu.Lock()
	defer r.mu.Unlock()
	if at := r.s.Parked(); v == 1001 && (at[0] == "core.inprog" || at[0] == "core.validated") && (at[1] == "start" || r.bDone) {
		r.helped = true
		if err := settled(&r.objs[keyX], 1002); err != nil {
			r.t.Errorf("x, swept by a helper: %v", err)
		} else if cellOf(&r.objs[keyX]) != &r.xcell.c {
			r.t.Error("a helper's commit replaced the caller's cell in x")
		}
	}
}

// check ends A's second transaction, once every goroutine has returned, and
// checks the history.
func (r *exploreRig) check() {
	t, d := r.t, r.second
	if d != nil {
		if d.Status() != InPrep {
			t.Errorf("A's second transaction is %v after every goroutine returned, want InPrep", d.Status())
		}
		for _, k := range []int{keyP0, keyP1} {
			if r.objs[k].installedBy() != d {
				t.Errorf("A's second transaction's cell in object %d was disturbed", k)
			}
		}
		valid := unsafe.Pointer(cellOf(&r.objs[keyO])) == r.secTag
		err := r.a.TxEnd()
		if (err == nil) != valid {
			t.Errorf("A's second transaction = %v, with o holding the cell it read: %v", err, valid)
		}
		if err == nil {
			r.rec.Complete(history.Event{Proc: 1, Mode: history.Run, Ops: r.secOps, Invoke: r.secCall})
		}
	}
	call := r.rec.Invoke()
	var last []history.Op
	for k := range r.objs {
		v := r.objs[k].Load()
		last = append(last, get(k, v))
		if err := settled(&r.objs[k], v); err != nil {
			t.Errorf("object %d: %v", k, err)
		}
	}
	r.rec.Complete(history.Event{Proc: 4, Mode: history.Run, Ops: last, Invoke: call})
	if err := history.Check(r.rec.Events()); err != nil {
		t.Error(err)
	}
}

// TestExploreStaleHelper runs the exploration, and asserts that it reached
// what it is for: every core point had a goroutine parked at it, A's second
// transaction ran on the reused descriptor in some interleaving and on a
// fresh one in another, and in some a helper committed A's first transaction
// before A swept it.
func TestExploreStaleHelper(t *testing.T) {
	points := corePoints()
	if len(points) == 0 {
		t.Fatal("no core.* chaos point is registered")
	}
	parked := map[string]bool{}
	var reused, fresh, helped int
	n, overran := history.Explore(t, points, 2, func(t *testing.T, s *history.Sched) {
		r := newExploreRig(t, s, parked)
		s.Go(r.ownerA)
		s.Go(r.ownerB)
		s.Go(r.helper)
		s.Wait()
		r.check()
		switch {
		case r.second == nil:
		case r.reused:
			reused++
		default:
			fresh++
		}
		if r.helped {
			helped++
		}
	})
	t.Logf("%d interleavings: A's second transaction on the reused descriptor in %d, on a fresh one in %d; helpers committed the first before A swept it in %d", n, reused, fresh, helped)
	if overran > 0 {
		t.Logf("%d steps ran past the scheduler's wait and the next went beside them: the exploration was not one step at a time", overran)
	}
	if t.Failed() {
		return
	}
	for _, p := range points {
		if !parked[p] {
			t.Errorf("no goroutine was parked at %s", p)
		}
	}
	if reused == 0 || fresh == 0 || helped == 0 {
		t.Error("the exploration missed a class: want each of reused, fresh and helped at least once")
	}
}
