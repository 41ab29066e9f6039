package history

import (
	"bytes"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"medley/internal/chaos"
)

// blockAfter is how long a goroutine the scheduler let go may run without
// reaching a point before it counts as blocked (waiting on one that is
// parked), and the scheduler lets another go. One that was only slow runs on
// beside the next: a less orderly interleaving, never a wrong verdict.
const blockAfter = 250 * time.Microsecond

// maxRuns bounds one exploration.
const maxRuns = 20000

// Explore runs body once for every interleaving of the goroutines it starts
// with Sched.Go, stepped one at a time through the named chaos points, until
// every interleaving that preempts a goroutine still able to run at most
// preemptions times has run (a goroutine starts parked, so starting one while
// another could go on is a preemption too). Body builds fresh state, starts
// two or three goroutines, calls Wait and checks what they did. Explore
// returns the number of interleavings it ran and of the steps in them that
// ran past blockAfter, and logs the interleaving that failed, with each of
// its steps that ran past blockAfter marked ~ and their count. Such a step was
// blocked on a parked goroutine or stalled by the machine (the race detector
// slows every step); either way the next one ran beside it, so an
// interleaving with any was not run one step at a time.
func Explore(t *testing.T, points []string, preemptions int, body func(t *testing.T, s *Sched)) (runs, overran int) {
	t.Helper()
	var cur *Sched
	t.Cleanup(func() {
		if cur != nil {
			cur.release()
		}
	})
	var prefix []int
	for runs = 1; ; runs++ {
		s := &Sched{t: t, changed: make(chan struct{}, 1), prefix: prefix, left: preemptions}
		cur = s
		for _, p := range points {
			if err := chaos.Arm(p, chaos.Fault{Kind: chaos.Delay, Action: func() { s.at(p) }}); err != nil {
				t.Fatal(err)
			}
		}
		body(t, s)
		for _, p := range points {
			chaos.Disarm(p)
		}
		overran += s.overran
		if t.Failed() {
			t.Logf("interleaving %d, %d steps past blockAfter (~): %s", runs, s.overran, strings.Join(s.steps, " "))
			return runs, overran
		}
		if prefix = s.next(); prefix == nil || runs == maxRuns {
			return runs, overran
		}
	}
}

// Sched schedules the goroutines of one interleaving.
type Sched struct {
	t        *testing.T
	mu       sync.Mutex
	gs       []*gor
	changed  chan struct{} // a goroutine parked or returned
	released bool

	prefix  []int      // the choices to replay, then the first of each
	trail   []decision // the choices made
	left    int        // preemptions still allowed
	last    *gor       // the goroutine let go last
	steps   []string   // who went, from where, ~ if past blockAfter: for a failure's log
	overran int        // steps that ran past blockAfter
}

type gor struct {
	n      int
	id     uint64
	resume chan struct{}
	state  uint8
	at     string
}

const (
	running uint8 = iota
	parked
	blocked
	returned
)

type decision struct{ options, took int }

// Go starts fn on a goroutine of its own, parked until Wait first lets it go.
func (s *Sched) Go(fn func()) {
	g := &gor{resume: make(chan struct{})}
	s.mu.Lock()
	g.n = len(s.gs)
	s.gs = append(s.gs, g)
	s.mu.Unlock()
	started := make(chan struct{})
	go func() {
		defer s.finish(g)
		s.mu.Lock()
		g.id = goid()
		s.mu.Unlock()
		close(started)
		s.park(g, "start")
		fn()
	}()
	<-started
}

// Wait lets the goroutines started with Go run one at a time, each from one
// point to its next, until all have returned.
func (s *Sched) Wait() {
	for !s.all(func(g *gor) bool { return g.state == parked }) {
		<-s.changed
	}
	for {
		options := s.options()
		if len(options) == 0 {
			if s.all(func(g *gor) bool { return g.state == returned }) {
				return
			}
			if !s.await(nil, 10*time.Second) {
				s.t.Fatalf("history: every goroutine is blocked and none is parked, after %s", strings.Join(s.steps, " "))
			}
			continue
		}
		g := s.choose(options)
		g.resume <- struct{}{}
		if !s.await(g, blockAfter) {
			s.overran++
			s.steps[len(s.steps)-1] += "~"
		}
	}
}

// Parked returns the point each goroutine started with Go is parked at, in the
// order they were started: "" for one running, blocked or returned. Called by
// the goroutine let go last, it sees where every other one stopped.
func (s *Sched) Parked() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	at := make([]string, len(s.gs))
	for i, g := range s.gs {
		if g.state == parked {
			at[i] = g.at
		}
	}
	return at
}

func (s *Sched) all(f func(*gor) bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, g := range s.gs {
		if !f(g) {
			return false
		}
	}
	return true
}

// options are the goroutines that may go next: every parked one, or only the
// one let go last once no preemption is left.
func (s *Sched) options() []*gor {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.left == 0 && s.last != nil && s.last.state == parked {
		return []*gor{s.last}
	}
	var gs []*gor
	for _, g := range s.gs {
		if g.state == parked {
			gs = append(gs, g)
		}
	}
	return gs
}

func (s *Sched) choose(options []*gor) *gor {
	d, k := len(s.trail), 0
	if d < len(s.prefix) && s.prefix[d] < len(options) {
		k = s.prefix[d]
	}
	s.trail = append(s.trail, decision{len(options), k})
	g := options[k]
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.last != nil && s.last.state == parked && g != s.last {
		s.left--
	}
	s.steps = append(s.steps, fmt.Sprintf("g%d@%s", g.n, g.at))
	s.last, g.state = g, running
	return g
}

// await waits until g (nil: any goroutine) parks or returns, or d passes: g
// is blocked then, and await reports false.
func (s *Sched) await(g *gor, d time.Duration) bool {
	timer := time.NewTimer(d)
	defer timer.Stop()
	for {
		s.mu.Lock()
		if g != nil && g.state != running {
			s.mu.Unlock()
			return true
		}
		s.mu.Unlock()
		select {
		case <-s.changed:
			if g == nil {
				return true
			}
		case <-timer.C:
			s.mu.Lock()
			if g != nil && g.state == running {
				g.state = blocked
			}
			s.mu.Unlock()
			return false
		}
	}
}

// next is the prefix of the next interleaving to run, nil when there is none.
func (s *Sched) next() []int {
	for d := len(s.trail) - 1; d >= 0; d-- {
		if s.trail[d].took+1 < s.trail[d].options {
			p := make([]int, d+1)
			for i := range d {
				p[i] = s.trail[i].took
			}
			p[d] = s.trail[d].took + 1
			return p
		}
	}
	return nil
}

// at parks the calling goroutine at point if it is one of the scheduler's.
// Only one that is running can be; while none is, at skips the stack trace
// goid takes.
func (s *Sched) at(point string) {
	if s.all(func(g *gor) bool { return g.state == parked || g.state == returned }) {
		return
	}
	id := goid()
	s.mu.Lock()
	var g *gor
	for _, x := range s.gs {
		if x.id == id {
			g = x
		}
	}
	s.mu.Unlock()
	if g != nil {
		s.park(g, point)
	}
}

func (s *Sched) park(g *gor, point string) {
	s.mu.Lock()
	if s.released {
		s.mu.Unlock()
		return
	}
	g.state, g.at = parked, point
	s.mu.Unlock()
	s.kick()
	<-g.resume
}

func (s *Sched) finish(g *gor) {
	s.mu.Lock()
	g.state = returned
	s.mu.Unlock()
	s.kick()
}

func (s *Sched) kick() {
	select {
	case s.changed <- struct{}{}:
	default:
	}
}

// release lets every goroutine still parked run free: the test is over.
func (s *Sched) release() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.released = true
	for _, g := range s.gs {
		if g.state == parked {
			g.state = running
			close(g.resume)
		}
	}
}

// goid is the calling goroutine's id, which the runtime tells only in a
// stack trace's first line: "goroutine 18 [running]:".
func goid() uint64 {
	var buf [64]byte
	b := bytes.TrimPrefix(buf[:runtime.Stack(buf[:], false)], []byte("goroutine "))
	id, _ := strconv.ParseUint(string(b[:bytes.IndexByte(b, ' ')]), 10, 64)
	return id
}
