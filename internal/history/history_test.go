package history

import (
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func get(obj int, k, v uint64, ok bool) Op { return Op{Kind: Get, Obj: obj, Key: k, Val: v, Ok: ok} }
func put(obj int, k, v uint64) Op          { return Op{Kind: Put, Obj: obj, Key: k, Arg: v} }

// ev is an event over [inv, comp] with answers given in ops.
func ev(proc int, mode Mode, inv, comp int64, ts uint64, ops ...Op) Event {
	return Event{Proc: proc, Mode: mode, Ops: ops, Invoke: inv, Complete: comp, TS: ts}
}

// put1 is a Put of k that found it bound to prev (0: unbound).
func put1(k, v, prev uint64) Op {
	op := put(0, k, v)
	op.Val, op.Ok = prev, prev != 0
	return op
}

// blind is a Put of k whose answer was not observed.
func blind(k, v uint64) Op {
	op := put(0, k, v)
	op.Blind = true
	return op
}

// TestCheck: histories the spec allows pass both checkers; each way of
// breaking the contract fails Check, and CheckKeys wherever it is visible
// on one key.
func TestCheck(t *testing.T) {
	for _, c := range []struct {
		name    string
		ok      bool
		keysToo bool // CheckKeys sees the violation too
		events  []Event
	}{
		{"overlapping writes, read in either order", true, true, []Event{
			ev(0, Single, 1, 4, 0, put1(1, 10, 0)),
			ev(1, Single, 2, 5, 0, put1(1, 11, 10)),
			ev(2, Single, 6, 7, 0, get(0, 1, 11, true)),
		}},
		{"stale read", false, true, []Event{
			ev(0, Single, 1, 2, 0, put1(1, 10, 0)),
			ev(0, Single, 3, 4, 0, put1(1, 11, 10)),
			ev(1, Single, 5, 6, 0, get(0, 1, 10, true)),
		}},
		{"lost update", false, true, []Event{
			ev(0, Run, 1, 4, 0, get(0, 1, 0, false), put1(1, 10, 0)),
			ev(1, Run, 2, 5, 0, get(0, 1, 0, false), put1(1, 11, 0)),
		}},
		{"a key never removed read absent", false, true, []Event{
			ev(0, Single, 1, 2, 0, put1(2, 10, 0)),
			ev(1, Run, 3, 6, 0, get(0, 2, 0, false)),
			ev(0, Run, 4, 5, 0, get(0, 2, 10, true), put1(2, 11, 10)),
		}},
		{"a read of what an aborted transaction wrote", false, true, []Event{
			ev(0, Single, 1, 2, 0, get(0, 1, 99, true)),
		}},
		{"a read-only transaction torn between two writes", false, false, []Event{
			ev(0, Run, 1, 2, 0, put1(1, 10, 0), put1(2, 10, 0)),
			ev(1, Run, 3, 8, 0, get(0, 1, 10, true), get(0, 2, 11, true)),
			ev(0, Run, 4, 5, 0, put1(1, 11, 10), put1(2, 11, 10)),
			ev(0, Run, 6, 7, 0, put1(1, 12, 11), put1(2, 12, 11)),
		}},
		{"commits replayed in stamp order, not call order", true, true, []Event{
			ev(0, Run, 1, 4, 7, get(0, 1, 10, true), put1(1, 11, 10)),
			ev(1, Run, 2, 3, 6, get(0, 1, 0, false), put1(1, 10, 0)),
			ev(2, Snapshot, 5, 6, 6, get(0, 1, 10, true)),
		}},
		{"a Run that saw a later stamp", false, true, []Event{
			ev(0, Run, 1, 4, 6, get(0, 1, 0, false), put1(1, 10, 0)),
			ev(1, Run, 2, 3, 7, get(0, 1, 0, false), put1(1, 11, 0)),
		}},
		{"a Run that saw a standalone write stamped after it", false, true, []Event{
			ev(0, Single, 1, 4, 7, put1(1, 10, 0)),
			ev(1, Run, 2, 3, 6, get(0, 1, 10, true), put1(1, 11, 10)),
		}},
		{"a stale snapshot at an old cut", true, true, []Event{
			ev(0, Run, 1, 2, 5, put1(1, 10, 0)),
			ev(0, Run, 3, 4, 6, put1(1, 11, 10)),
			ev(1, Snapshot, 5, 6, 5, get(0, 1, 10, true)),
		}},
		{"a snapshot missing a commit at its cut", false, true, []Event{
			ev(0, Run, 1, 2, 5, put1(1, 10, 0)),
			ev(1, Snapshot, 3, 4, 5, get(0, 1, 0, false)),
		}},
		{"a snapshot torn by one commit", false, true, []Event{
			ev(0, Run, 1, 2, 5, put1(1, 10, 0), put1(2, 10, 0)),
			ev(1, Snapshot, 3, 4, 5, get(0, 1, 10, true), get(0, 2, 0, false)),
		}},
		{"a write stamped with none, missing from a snapshot", false, true, []Event{
			ev(0, Single, 1, 2, 0, put1(1, 10, 0)),
			ev(1, Snapshot, 3, 4, 9, get(0, 1, 0, false)),
		}},
		{"a lane read of another connection's write, stale", true, true, []Event{
			ev(0, Single, 1, 2, 0, put1(1, 10, 0)),
			ev(1, Snapshot, 3, 4, 0, get(0, 1, 0, false)),
		}},
		{"a lane read missing the connection's own write", false, true, []Event{
			ev(0, Single, 1, 4, 0, put1(1, 10, 0)),
			ev(0, Snapshot, 2, 5, 0, get(0, 1, 0, false)),
		}},
		{"reads of two blind writes, 1 then 2 then 1", false, true, []Event{
			ev(0, Single, 1, 9, 0, blind(1, 1)),
			ev(1, Single, 1, 9, 0, blind(1, 2)),
			ev(2, Single, 2, 3, 0, get(0, 1, 1, true)),
			ev(2, Single, 4, 5, 0, get(0, 1, 2, true)),
			ev(2, Single, 6, 7, 0, get(0, 1, 1, true)),
		}},
		{"reads of two blind writes, 2 then 1", true, true, []Event{
			ev(0, Single, 1, 9, 0, blind(1, 1)),
			ev(1, Single, 1, 9, 0, blind(1, 2)),
			ev(2, Single, 2, 3, 0, get(0, 1, 2, true)),
			ev(2, Single, 4, 5, 0, get(0, 1, 1, true)),
		}},
		{"a queue out of order", false, true, []Event{
			ev(0, Single, 1, 2, 0, Op{Kind: Enqueue, Obj: 5, Arg: 1}),
			ev(0, Single, 3, 4, 0, Op{Kind: Enqueue, Obj: 5, Arg: 2}),
			ev(1, Run, 5, 6, 0, Op{Kind: Dequeue, Obj: 5, Val: 2, Ok: true}),
		}},
		{"a queue move between two queues", true, true, []Event{
			ev(0, Single, 1, 2, 0, Op{Kind: Enqueue, Obj: 5, Arg: 1}),
			ev(1, Run, 3, 6, 0, Op{Kind: Dequeue, Obj: 5, Val: 1, Ok: true}, Op{Kind: Enqueue, Obj: 6, Arg: 1}),
			ev(2, Single, 4, 5, 0, Op{Kind: Dequeue, Obj: 5}),
			ev(2, Single, 7, 8, 0, Op{Kind: Dequeue, Obj: 6, Val: 1, Ok: true}),
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			err := Check(c.events)
			if (err == nil) != c.ok {
				t.Fatalf("Check = %v, want ok %v", err, c.ok)
			}
			if kerr := CheckKeys(c.events); (kerr == nil) != (c.ok || !c.keysToo) {
				t.Fatalf("CheckKeys = %v", kerr)
			}
			if err != nil && !strings.Contains(err.Error(), "where the spec answers") {
				t.Errorf("the verdict names no wrong answer: %v", err)
			}
		})
	}
}

// TestExplore: two goroutines of two points each have C(6,3) = 20
// interleavings, every one run once; with no preemption, the two that run
// each to the end; and a goroutine that waits on another is let go after it,
// its step counted and marked as one that ran past blockAfter.
func TestExplore(t *testing.T) {
	for _, c := range []struct{ preemptions, want int }{{0, 2}, {9, 20}} {
		// A goroutine the machine stalls for longer than blockAfter counts
		// as blocked, and the exploration takes another course: the count
		// holds for an exploration without a stall, which a few tries see.
		var n, distinct int
		for range 5 {
			var seen []string
			n, _ = Explore(t, nil, c.preemptions, func(t *testing.T, s *Sched) {
				var mu sync.Mutex
				var order []string
				for _, name := range []string{"a", "b"} {
					s.Go(func() {
						for _, p := range []string{"1", "2", "3"} {
							mu.Lock()
							order = append(order, name+p)
							mu.Unlock()
							if p != "3" {
								s.at(name + p)
							}
						}
					})
				}
				s.Wait()
				seen = append(seen, strings.Join(order, ""))
			})
			slices.Sort(seen)
			if distinct = len(slices.Compact(seen)); n == c.want && distinct == c.want {
				break
			}
		}
		if n != c.want || distinct != c.want {
			t.Errorf("%d preemptions: %d runs, %d distinct interleavings, want %d", c.preemptions, n, distinct, c.want)
		}
	}
	_, overran := Explore(t, nil, 2, func(t *testing.T, s *Sched) {
		var set atomic.Bool
		s.Go(func() {
			for !set.Load() {
				runtime.Gosched()
			}
			s.at("waited")
		})
		s.Go(func() {
			s.at("set")
			set.Store(true)
		})
		s.Wait()
		marked := 0
		for _, step := range s.steps {
			if strings.HasSuffix(step, "~") {
				marked++
			}
		}
		if marked != s.overran {
			t.Errorf("%d steps ran past blockAfter and %d are marked: %s", s.overran, marked, strings.Join(s.steps, " "))
		}
	})
	if overran == 0 {
		t.Error("the goroutine that waits on another never ran past blockAfter")
	}
}
