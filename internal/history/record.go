package history

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// Mode is how an event's operations ran.
type Mode uint8

const (
	Run      Mode = iota // as one transaction, which committed
	Single               // as one standalone operation
	Snapshot             // as reads of one snapshot cut
)

// Event is one recorded call that took effect: an aborted transaction, or a
// request a server shed, is left out, and a read that sees its writes is then
// a read of something nobody wrote.
type Event struct {
	Proc     int // the worker or connection: its events are in program order
	Mode     Mode
	Ops      []Op  // in the order they ran, with their answers
	Invoke   int64 // Recorder clock at the call
	Complete int64 // Recorder clock at the return
	// TS places the event in the engine's commit order. A Run's or a Single
	// write's is its commit timestamp, 0 when it was stamped with none (the
	// snapshot tier had not started). A Snapshot's is its cut; 0 means the
	// cut is unknown, and only the process's own earlier writes must be in it.
	TS uint64
}

func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "proc %d %s", e.Proc, [...]string{"Run", "Single", "Snapshot"}[e.Mode])
	if e.TS != 0 {
		fmt.Fprintf(&b, "@%d", e.TS)
	}
	fmt.Fprintf(&b, " [%d,%d]", e.Invoke, e.Complete)
	for _, op := range e.Ops {
		b.WriteString(" " + op.String())
	}
	return b.String()
}

// Recorder collects the events of one history from any number of goroutines
// on one logical clock. A process's events go to a shard of their own, so
// that recording does not serialize the processes it watches. The zero value
// is ready to use.
type Recorder struct {
	clock  atomic.Int64
	shards [16]struct {
		mu     sync.Mutex
		events []Event
	}
}

// Invoke reads the clock for a call about to be made.
func (r *Recorder) Invoke() int64 { return r.clock.Add(1) }

// Complete stamps e as returned now and records it.
func (r *Recorder) Complete(e Event) {
	e.Complete = r.clock.Add(1)
	sh := &r.shards[uint(e.Proc)%uint(len(r.shards))]
	sh.mu.Lock()
	sh.events = append(sh.events, e)
	sh.mu.Unlock()
}

// Events returns the events recorded so far.
func (r *Recorder) Events() []Event {
	var evs []Event
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		evs = append(evs, sh.events...)
		sh.mu.Unlock()
	}
	return evs
}
