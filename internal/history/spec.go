// Package history is the test suite's one model of the transactional
// contract. It holds four things:
//
//   - an executable small-step spec of what a Tx, a Map and a Queue promise
//     (State, Tx): begin, read, write, commit, and abort, which is a
//     transaction left uncommitted;
//   - a recorder of what tests run against an engine, a structure or a
//     server: each call's operations, answers, invoke/complete interval and,
//     where the engine stamps one, its commit timestamp or snapshot cut
//     (Recorder, Event);
//   - a checker that decides whether a recorded history is one the spec
//     allows (Check, CheckKeys);
//   - a scheduler that steps two or three goroutines, one at a time, through
//     every interleaving of named chaos points up to a bound (Explore).
//
// Tests import it; no production binary does.
package history

import (
	"fmt"
	"slices"
)

// Kind is one operation of the contract.
type Kind uint8

const (
	Get     Kind = iota // Key → Val, Ok: the binding, if any
	Put                 // Key, Arg → Val, Ok: binds Arg; the binding it replaced, if any
	Insert              // Key, Arg → Ok: binds Arg only if Key was unbound
	Remove              // Key → Val, Ok: unbinds Key; the binding it had, if any
	Enqueue             // Arg: appends Arg to queue Obj
	Dequeue             // → Val, Ok: removes the head of queue Obj, if any
)

func (k Kind) String() string {
	return [...]string{"Get", "Put", "Insert", "Remove", "Enqueue", "Dequeue"}[k]
}

// Op is one operation: what it was asked and what it answered. Obj names the
// map or queue it ran on; a queue's Obj is never also a map's.
type Op struct {
	Kind  Kind
	Obj   int
	Key   uint64
	Arg   uint64
	Val   uint64
	Ok    bool
	Blind bool // its answer was not observed (a static transaction's, a wire Txn's write)
}

func (o Op) String() string {
	var arg string
	switch o.Kind {
	case Put, Insert:
		arg = fmt.Sprintf("%d:%d, %d", o.Obj, o.Key, o.Arg)
	case Enqueue:
		arg = fmt.Sprintf("%d, %d", o.Obj, o.Arg)
	case Dequeue:
		arg = fmt.Sprint(o.Obj)
	default:
		arg = fmt.Sprintf("%d:%d", o.Obj, o.Key)
	}
	switch {
	case o.Blind || o.Kind == Enqueue:
		return fmt.Sprintf("%s(%s)", o.Kind, arg)
	case o.Kind == Insert || !o.Ok:
		return fmt.Sprintf("%s(%s)=%v", o.Kind, arg, o.Ok)
	}
	return fmt.Sprintf("%s(%s)=%d", o.Kind, arg, o.Val)
}

// answers reports whether o answered what want, the spec's step, says it must.
func (o Op) answers(want Op) bool {
	switch {
	case o.Blind || o.Kind == Enqueue:
		return true
	case o.Ok != want.Ok:
		return false
	}
	return o.Kind == Insert || !o.Ok || o.Val == want.Val
}

// writes reports whether o changed the state, by its own answer (a blind
// write is assumed to have).
func (o Op) writes() bool {
	switch o.Kind {
	case Get:
		return false
	case Put, Enqueue:
		return true
	}
	return o.Ok || o.Blind
}

// loc names a map binding, or a whole queue (key 0).
type loc struct {
	obj int
	key uint64
}

func (o Op) loc() loc {
	if o.Kind == Enqueue || o.Kind == Dequeue {
		return loc{obj: o.Obj}
	}
	return loc{o.Obj, o.Key}
}

// State is the spec's state: every map's bindings and every queue's contents.
type State struct {
	maps   map[loc]uint64
	queues map[int][]uint64
	hash   uint64 // of all of the above, kept up to date as it changes
}

// NewState returns the state in which every map is empty and every queue too.
func NewState() *State { return &State{maps: map[loc]uint64{}, queues: map[int][]uint64{}} }

func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

func bindingHash(l loc, v uint64) uint64 { return mix(mix(uint64(l.obj)<<48^l.key) + v) }

func queueHash(obj int, q []uint64) uint64 {
	if len(q) == 0 {
		return 0
	}
	h := mix(uint64(obj) | 1<<63)
	for _, v := range q {
		h = mix(h + v)
	}
	return h
}

func (s *State) bind(l loc, v uint64, ok bool) {
	if old, had := s.maps[l]; had {
		s.hash -= bindingHash(l, old)
		delete(s.maps, l)
	}
	if ok {
		s.maps[l] = v
		s.hash += bindingHash(l, v)
	}
}

func (s *State) setQueue(obj int, q []uint64) {
	s.hash += queueHash(obj, q) - queueHash(obj, s.queues[obj])
	s.queues[obj] = q
}

// Tx is one transaction of the spec, begun on a State: every Do sees the
// transaction's own earlier writes and nothing another transaction has not
// committed; Commit makes all of its writes visible at once. A transaction
// that is never committed is aborted and leaves no trace. A standalone
// operation is a transaction of one operation.
type Tx struct {
	s      *State
	writes []binding   // in order; the last one of a key wins
	queues []queueCopy // each queue it touched, as it sees it
}

type binding struct {
	l   loc
	val uint64
	ok  bool
}

type queueCopy struct {
	obj int
	q   []uint64
}

// Begin begins a transaction on s.
func (s *State) Begin() *Tx { return &Tx{s: s} }

func (t *Tx) get(l loc) (uint64, bool) {
	for i := len(t.writes) - 1; i >= 0; i-- {
		if w := t.writes[i]; w.l == l {
			return w.val, w.ok
		}
	}
	v, ok := t.s.maps[l]
	return v, ok
}

func (t *Tx) queue(obj int) *[]uint64 {
	for i := range t.queues {
		if t.queues[i].obj == obj {
			return &t.queues[i].q
		}
	}
	t.queues = append(t.queues, queueCopy{obj, slices.Clone(t.s.queues[obj])})
	return &t.queues[len(t.queues)-1].q
}

// Do steps one operation and returns it with the spec's answer.
func (t *Tx) Do(op Op) Op {
	l := op.loc()
	op.Val, op.Ok = 0, false
	switch op.Kind {
	case Get:
		op.Val, op.Ok = t.get(l)
	case Put:
		op.Val, op.Ok = t.get(l)
		t.writes = append(t.writes, binding{l, op.Arg, true})
	case Insert:
		if _, had := t.get(l); !had {
			t.writes = append(t.writes, binding{l, op.Arg, true})
			op.Ok = true
		}
	case Remove:
		if op.Val, op.Ok = t.get(l); op.Ok {
			t.writes = append(t.writes, binding{l: l})
		}
	case Enqueue:
		q := t.queue(op.Obj)
		*q = append(*q, op.Arg)
	case Dequeue:
		if q := t.queue(op.Obj); len(*q) > 0 {
			op.Val, op.Ok = (*q)[0], true
			*q = (*q)[1:]
		}
	}
	return op
}

// Undo is what Revert needs to take a commit back.
type Undo struct {
	maps   []binding
	queues []queueCopy
}

// Commit applies the transaction's writes to its State and returns what
// reverts them.
func (t *Tx) Commit() Undo {
	var u Undo
	for _, w := range t.writes {
		old, had := t.s.maps[w.l]
		u.maps = append(u.maps, binding{w.l, old, had})
		t.s.bind(w.l, w.val, w.ok)
	}
	for _, c := range t.queues {
		u.queues = append(u.queues, queueCopy{c.obj, t.s.queues[c.obj]})
		t.s.setQueue(c.obj, c.q)
	}
	return u
}

// Revert takes back the commit u was returned by; commits made since must
// have been reverted first.
func (s *State) Revert(u Undo) {
	for i := len(u.maps) - 1; i >= 0; i-- {
		b := u.maps[i]
		s.bind(b.l, b.val, b.ok)
	}
	for i := len(u.queues) - 1; i >= 0; i-- {
		s.setQueue(u.queues[i].obj, u.queues[i].q)
	}
}
