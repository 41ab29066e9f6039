// Package structures_test holds the one contract test of the structures under
// internal/structures: each keeps the contract of a map (msqueue: of a queue)
// that internal/history specifies, alone, in transactions, and under eight
// workers' churn. Every leg records a history and hands it to the checker.
package structures_test

import (
	"errors"
	"math/rand/v2"
	"runtime"
	"sync"
	"testing"

	"medley/internal/core"
	"medley/internal/history"
	"medley/internal/structures/fskiplist"
	"medley/internal/structures/mhash"
	"medley/internal/structures/mlist"
	"medley/internal/structures/msqueue"
	"medley/internal/structures/nmbst"
	"medley/internal/txmap"
)

// subject is one structure under test; each leg builds two, objects 0 and 1.
type subject struct {
	name    string
	build   func() object
	tx      bool // composes into transactions (all but the untransformed list)
	ordered bool // Range visits keys in ascending order
}

type object interface{ Len() int }

type ranger interface{ Range(func(k, v uint64) bool) }

var subjects = []subject{
	{"mhash", func() object { return mhash.NewUint64[uint64](4) }, true, false},
	{"mlist", func() object { return mlist.New[uint64, uint64]() }, true, true},
	{"fskiplist", func() object { return fskiplist.New[uint64, uint64]() }, true, true},
	{"original", func() object { return original{fskiplist.NewOriginal[uint64, uint64]()} }, false, true},
	{"rotating", func() object { return fskiplist.NewRotating[uint64]() }, true, true},
	{"nmbst", func() object { return nmbst.New[uint64]() }, true, true},
	{"msqueue", func() object { return msqueue.New[uint64]() }, true, false},
}

// original is the untransformed skip list as a txmap.Map: it takes no
// session and composes into no transaction.
type original struct {
	*fskiplist.Original[uint64, uint64]
}

func (o original) Get(_ *core.Session, k uint64) (uint64, bool)    { return o.Original.Get(k) }
func (o original) Put(_ *core.Session, k, v uint64) (uint64, bool) { return o.Original.Put(k, v) }
func (o original) Insert(_ *core.Session, k, v uint64) bool        { return o.Original.Insert(k, v) }
func (o original) Remove(_ *core.Session, k uint64) (uint64, bool) { return o.Original.Remove(k) }

// rig is two instances of a subject and the history of what was done to them.
type rig struct {
	subject
	objs [2]object
	rec  history.Recorder
}

func newRig(sub subject) *rig { return &rig{subject: sub, objs: [2]object{sub.build(), sub.build()}} }

func (r *rig) queue() bool { _, ok := r.objs[0].(*msqueue.Queue[uint64]); return ok }

// do runs op on its object through s and returns it with the answer.
func (r *rig) do(s *core.Session, op history.Op) history.Op {
	if q, ok := r.objs[op.Obj].(*msqueue.Queue[uint64]); ok {
		if op.Kind == history.Enqueue {
			q.Enqueue(s, op.Arg)
		} else {
			op.Val, op.Ok = q.Dequeue(s)
		}
		return op
	}
	m := r.objs[op.Obj].(txmap.Map[uint64])
	switch op.Kind {
	case history.Get:
		op.Val, op.Ok = m.Get(s, op.Key)
	case history.Put:
		op.Val, op.Ok = m.Put(s, op.Key, op.Arg)
	case history.Insert:
		op.Ok = m.Insert(s, op.Key, op.Arg)
	case history.Remove:
		op.Val, op.Ok = m.Remove(s, op.Key)
	}
	return op
}

// single records op, run standalone.
func (r *rig) single(proc int, s *core.Session, op history.Op) history.Op {
	inv := r.rec.Invoke()
	op = r.do(s, op)
	r.rec.Complete(history.Event{Proc: proc, Mode: history.Single, Ops: []history.Op{op}, Invoke: inv})
	return op
}

var errAbort = errors.New("contract: business abort")

// yieldLayer is the core.Layer of the managers whose sessions run r.run's
// transactions (txManager): its validation yields, so that concurrent
// transactions interleave inside commits.
type yieldLayer struct{}

func (yieldLayer) Begin(*core.Session)      {}
func (yieldLayer) Valid(*core.Session) bool { runtime.Gosched(); return true }
func (yieldLayer) End(*core.Session, bool)  {}

// txManager returns a manager for r.run's transactions, yieldLayer set.
func txManager() *core.TxManager {
	mgr := core.NewTxManager()
	mgr.SetLayer(yieldLayer{})
	return mgr
}

// run records ops run as one transaction, with the answers of the attempt
// that committed; abort makes it a business abort, which is left out (half of
// them abort explicitly before returning the error). s is a session of a
// txManager, so the commit yields.
func (r *rig) run(proc int, s *core.Session, ops []history.Op, abort bool) {
	got := make([]history.Op, len(ops))
	inv := r.rec.Invoke()
	err := s.Run(func() error {
		for i, op := range ops {
			got[i] = r.do(s, op)
		}
		if !abort {
			return nil
		}
		if len(ops)%2 == 0 {
			s.TxAbort()
		}
		return errAbort
	})
	if err == nil {
		r.rec.Complete(history.Event{Proc: proc, Mode: history.Run, Ops: got, Invoke: inv})
	} else if !abort || !errors.Is(err, errAbort) {
		panic(err)
	}
}

// settle records what each object holds once nothing runs: a map's pairs as
// Range (Get where it has none) visits them, a queue drained; Len must agree,
// and an ordered map's Range must ascend.
func (r *rig) settle(t *testing.T, s *core.Session, keys uint64) {
	for obj, o := range r.objs {
		n, held := o.Len(), 0
		if r.queue() {
			for r.single(-1, s, history.Op{Kind: history.Dequeue, Obj: obj}).Ok {
				held++
			}
		} else {
			seen := map[uint64]uint64{}
			if rm, ok := o.(ranger); ok {
				prev := -1
				rm.Range(func(k, v uint64) bool {
					if r.ordered && int(k) <= prev {
						t.Errorf("%s: Range visits %d after %d", r.name, k, prev)
					}
					prev, seen[k] = int(k), v
					return true
				})
			} else {
				for k := range keys {
					if v, ok := o.(txmap.Map[uint64]).Get(s, k); ok {
						seen[k] = v
					}
				}
			}
			held = len(seen)
			ops := make([]history.Op, keys)
			for k := range keys {
				v, ok := seen[k]
				ops[k] = history.Op{Kind: history.Get, Obj: obj, Key: k, Val: v, Ok: ok}
				delete(seen, k)
			}
			for k := range seen {
				t.Errorf("%s: Range visits key %d, which nobody wrote", r.name, k)
			}
			inv := r.rec.Invoke()
			r.rec.Complete(history.Event{Proc: -1, Mode: history.Run, Ops: ops, Invoke: inv})
		}
		if n != held {
			t.Errorf("%s: Len %d, holding %d", r.name, n, held)
		}
	}
}

// randOp is a random operation on object obj, of a key below keys, writing a
// value no other operation writes.
func (r *rig) randOp(rng *rand.Rand, obj int, keys uint64, val *uint64) history.Op {
	*val++
	if r.queue() {
		return history.Op{Kind: history.Enqueue + history.Kind(rng.IntN(2)), Obj: obj, Arg: *val}
	}
	return history.Op{Kind: history.Kind(rng.IntN(4)), Obj: obj, Key: rng.Uint64N(keys), Arg: *val}
}

func check(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// TestContract runs every structure through three legs:
//
//   - alone: random operations, one at a time, on a few keys, then what Range
//     and Len report;
//   - transactions (not the untransformed list): random transactions of one
//     to four operations over both objects, reading their own writes, a
//     quarter of them business-aborted;
//   - concurrent: eight workers (see concurrentMaps, concurrentQueues).
func TestContract(t *testing.T) {
	for _, sub := range subjects {
		t.Run(sub.name, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(uint64(len(sub.name)), 7))
			var val uint64
			t.Run("alone", func(t *testing.T) {
				for range 40 {
					r, s := newRig(sub), core.NewTxManager().Session()
					for range 100 {
						r.single(0, s, r.randOp(rng, 0, 16, &val))
					}
					r.settle(t, s, 16)
					check(t, history.Check(r.rec.Events()))
				}
			})
			if sub.tx {
				t.Run("transactions", func(t *testing.T) {
					for range 40 {
						r, s := newRig(sub), txManager().Session()
						for i := range 50 {
							ops := make([]history.Op, 1+rng.IntN(4))
							for j := range ops {
								ops[j] = r.randOp(rng, rng.IntN(2), 8, &val)
							}
							r.run(i, s, ops, rng.IntN(4) == 0)
						}
						r.settle(t, s, 8)
						check(t, history.Check(r.rec.Events()))
					}
				})
			}
			t.Run("concurrent", func(t *testing.T) {
				r := newRig(sub)
				if r.queue() {
					concurrentQueues(t, r)
				} else {
					concurrentMaps(t, r)
				}
			})
		})
	}
}

const workers = 8

// concurrentMaps: transfers between the two maps read two accounts — even
// keys, which nothing removes — and write both, while half the workers
// insert and remove the odd key beside one of them (on the untransformed list
// every step is standalone). A Get of an account that finds nothing, a lost
// update, a read of an aborted or overwritten value: each leaves a history
// with no order the spec allows.
func concurrentMaps(t *testing.T, r *rig) {
	for round, c := range []struct {
		accounts uint64
		workers  int
		iters    int
		churn    bool
	}{{16, workers, 200, true}, {1, 4, 500, false}, {1, 4, 500, false}} {
		if round > 0 {
			r = newRig(r.subject)
		}
		mgr := txManager()
		setup := mgr.Session()
		for a := range c.accounts {
			for obj := range 2 {
				r.single(-1, setup, history.Op{Kind: history.Put, Obj: obj, Key: 2 * a, Arg: 1})
			}
		}
		var wg sync.WaitGroup
		for w := range c.workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s := mgr.Session()
				rng := rand.New(rand.NewPCG(uint64(w), uint64(round)))
				val := uint64(w+1) << 32
				for i := range c.iters {
					a1, a2 := 2*rng.Uint64N(c.accounts), 2*rng.Uint64N(c.accounts)
					src, dst := i&1, 1-i&1
					if c.churn && w%2 == 1 {
						val++
						if !r.single(w, s, history.Op{Kind: history.Insert, Obj: src, Key: a1 + 1, Arg: val}).Ok {
							r.single(w, s, history.Op{Kind: history.Remove, Obj: src, Key: a1 + 1})
						}
					}
					val += 2
					ops := []history.Op{
						{Kind: history.Get, Obj: src, Key: a1},
						{Kind: history.Get, Obj: dst, Key: a2},
						{Kind: history.Put, Obj: src, Key: a1, Arg: val - 1},
						{Kind: history.Put, Obj: dst, Key: a2, Arg: val},
					}
					if !r.tx {
						for _, op := range ops {
							r.single(w, s, op)
						}
						continue
					}
					r.run(w, s, ops, false)
				}
			}()
		}
		wg.Wait()
		r.settle(t, setup, 2*c.accounts)
		check(t, history.CheckKeys(r.rec.Events()))
	}
}

// concurrentQueues: workers move elements between the two queues in
// transactions, and enqueue and dequeue beside them. A lost, duplicated or
// reordered element leaves a history with no order the spec allows.
func concurrentQueues(t *testing.T, r *rig) {
	const iters = 200
	mgr := core.NewTxManager()
	setup := mgr.Session()
	for v := range uint64(4) {
		r.single(-1, setup, history.Op{Kind: history.Enqueue, Arg: v + 1})
	}
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := mgr.Session()
			val := uint64(w+1) << 32
			for i := range iters {
				src := (w + i) & 1
				switch i % 4 {
				case 0:
					val++
					r.single(w, s, history.Op{Kind: history.Enqueue, Obj: src, Arg: val})
				case 1: // dequeues outpace enqueues, so that the queues stay short
					r.single(w, s, history.Op{Kind: history.Dequeue, Obj: src})
					r.single(w, s, history.Op{Kind: history.Dequeue, Obj: 1 - src})
				default:
					got := make([]history.Op, 0, 2)
					inv := r.rec.Invoke()
					if err := s.Run(func() error {
						got = got[:0]
						d := r.do(s, history.Op{Kind: history.Dequeue, Obj: src})
						got = append(got, d)
						if d.Ok {
							got = append(got, r.do(s, history.Op{Kind: history.Enqueue, Obj: 1 - src, Arg: d.Val}))
						}
						return nil
					}); err != nil {
						panic(err)
					}
					r.rec.Complete(history.Event{Proc: w, Mode: history.Run, Ops: got, Invoke: inv})
				}
			}
		}()
	}
	wg.Wait()
	r.settle(t, setup, 0)
	check(t, history.CheckKeys(r.rec.Events()))
}
