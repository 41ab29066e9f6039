// Package msqueue implements the Michael & Scott nonblocking FIFO queue
// (PODC 1996), NBTC-transformed so that enqueues and dequeues can take part
// in Medley transactions. The queue demonstrates that NBTC accommodates
// abstractions beyond sets and mappings (Section 1 of the paper: operations
// on a single-linked FIFO queue have no obvious inverse, so transactional
// boosting cannot handle them, and LFTT's critical-node scheme does not
// apply).
//
// Linearization points:
//   - Enqueue linearizes at the CAS that links the new node after the
//     current tail (also its publication point); swinging the tail pointer
//     is post-critical cleanup.
//   - A successful Dequeue linearizes at the CAS advancing head; an empty
//     Dequeue linearizes at the load of head.next observing nil, which is
//     registered in the read set.
package msqueue

import "medley/internal/core"

type node[T any] struct {
	val  T
	next core.CASObj[*node[T]]
}

// Queue is a nonblocking FIFO queue supporting transactional composition.
// Construct with New.
type Queue[T any] struct {
	head core.CASObj[*node[T]] // sentinel; head.val is garbage
	tail core.CASObj[*node[T]]
}

// New returns an empty queue.
func New[T any]() *Queue[T] {
	q := &Queue[T]{}
	sentinel := &node[T]{}
	q.head.Store(sentinel)
	q.tail.Store(sentinel)
	return q
}

// Enqueue appends v to the queue.
func (q *Queue[T]) Enqueue(s *core.Session, v T) {
	s.OpStart()
	nn := &node[T]{val: v}
	for {
		tail, _ := q.tail.NbtcLoad(s)
		next, _ := tail.next.NbtcLoad(s)
		if next != nil {
			// Tail lagging: swing it (helping an already-linearized
			// enqueue; plain CAS unless it touches our own speculation).
			q.tail.NbtcCAS(s, tail, next, false, false)
			continue
		}
		if tail.next.NbtcCAS(s, nil, nn, true, true) {
			// Post-critical: swing tail. Deferred to commit inside a
			// transaction so the speculative node stays private.
			s.AddToCleanups(q, tail, nil)
			return
		}
	}
}

// Dequeue removes and returns the oldest element; ok is false if the queue
// is empty.
func (q *Queue[T]) Dequeue(s *core.Session) (v T, ok bool) {
	s.OpStart()
	for {
		head, htag := q.head.NbtcLoad(s)
		next, ntag := head.next.NbtcLoad(s)
		if next == nil {
			// Empty: linearizes at the load of head.next observing nil;
			// both cells are validated at commit.
			s.AddToReadSet(&q.head, htag)
			s.AddToReadSet(&head.next, ntag)
			var zero T
			return zero, false
		}
		if q.head.NbtcCAS(s, head, next, true, true) {
			s.AddToCleanups(q, nil, head)
			return next.val, true
		}
	}
}

// Cleanup is the post-critical work of an Enqueue or a Dequeue, the
// core.Cleaner they register; it runs after commit, or at once outside a
// transaction. A node's next is set once, so the node names its successor.
// With operands (tail, nil) an enqueue swings the tail from the node it
// linked after to that node's successor, the new node; with (nil, head) a
// dequeue helps the tail past the old head if it lags there.
func (q *Queue[T]) Cleanup(_ *core.Session, linked, dequeued any) {
	if tail, ok := linked.(*node[T]); ok {
		q.tail.CAS(tail, tail.next.Load())
		return
	}
	head := dequeued.(*node[T])
	if q.tail.Load() == head {
		q.tail.CAS(head, head.next.Load())
	}
}

// Peek returns the oldest element without removing it.
func (q *Queue[T]) Peek(s *core.Session) (v T, ok bool) {
	s.OpStart()
	head, htag := q.head.NbtcLoad(s)
	next, ntag := head.next.NbtcLoad(s)
	s.AddToReadSet(&q.head, htag)
	if next == nil {
		s.AddToReadSet(&head.next, ntag)
		var zero T
		return zero, false
	}
	return next.val, true
}

// Len counts elements; diagnostic, non-linearizable.
func (q *Queue[T]) Len() int {
	n := 0
	h := q.head.Load()
	for nd := h.next.Load(); nd != nil; nd = nd.next.Load() {
		n++
	}
	return n
}

// Drain removes all elements, returning them in order. Diagnostic helper
// for tests; not linearizable as a whole.
func (q *Queue[T]) Drain(s *core.Session) []T {
	var out []T
	for {
		v, ok := q.Dequeue(s)
		if !ok {
			return out
		}
		out = append(out, v)
	}
}
