package history

import (
	"cmp"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
)

// budget bounds the states one search visits. A history the spec allows
// settles in about one state per event; one it does not may take far more to
// refute, and past this many the search stops and says so.
const budget = 1 << 21

// Check reports whether the spec allows events: whether there is one order of
// them all in which every event's operations, run as one transaction of the
// spec, answer what they answered, and which keeps
//
//   - real time: an event that returned before another was called comes
//     first, unless the later one is a Snapshot, whose cut may be older than
//     its call;
//   - program order: a process's events in the order it called them, except
//     that a Snapshot whose cut is unknown follows only the process's own
//     earlier writes (read-your-writes, no more);
//   - commit order: stamped events in timestamp order, Runs and Single
//     writes alike, and a Snapshot at cut c after every write stamped at or
//     below c, or stamped with none, and before every write stamped above c.
//
// Where every commit is stamped, commit order leaves only the reads to place,
// and the search is a replay in timestamp order: strict serializability of
// Runs, each Snapshot consistent at its cut. Elsewhere it is a depth-first
// search over orders, memoized on the events placed and the state they leave.
// It settles histories the spec allows about as fast as a replay when written
// values are unique; one it does not allow it refutes, or, past a bound,
// reports unsettled: keep such histories small, or use CheckKeys.
func Check(events []Event) error {
	s := newSearch(events)
	if s.dfs(NewState()) {
		return nil
	}
	if s.steps > budget {
		return fmt.Errorf("history: %d events unsettled after %d steps of search", len(s.ev), budget)
	}
	return fmt.Errorf("history: no order of the %d events fits the spec; the longest start of one places %d, then\n%s", len(s.ev), s.best, s.why())
}

// CheckKeys is Check on each map binding's, and each queue's, share of
// events: an event that touches several contributes its operations on each,
// in order. Each share of a history the spec allows is allowed too, and
// shares are small, so it settles histories too large for Check. What it
// cannot see is a transaction without a stamp whose reads of different keys
// are each right but not all at one instant.
func CheckKeys(events []Event) error {
	shares := map[loc][]Event{}
	var order []loc
	for _, e := range events {
		for i, op := range e.Ops {
			l := op.loc()
			if slices.ContainsFunc(e.Ops[:i], func(o Op) bool { return o.loc() == l }) {
				continue
			}
			share := e
			share.Ops = nil
			for _, o := range e.Ops[i:] {
				if o.loc() == l {
					share.Ops = append(share.Ops, o)
				}
			}
			if shares[l] == nil {
				order = append(order, l)
			}
			shares[l] = append(shares[l], share)
		}
	}
	for _, l := range order {
		if err := Check(shares[l]); err != nil {
			return fmt.Errorf("object %d key %d: %w", l.obj, l.key, err)
		}
	}
	return nil
}

type search struct {
	ev     []Event  // by Invoke
	writer []bool   // the event changed the state, by its answers
	zob    []uint64 // a random word per event: the placed set's hash is their sum
	done   []bool
	placed int
	set    uint64
	seen   map[[2]uint64]bool
	steps  int
	best   int           // the most events any order placed
	why    func() string // and what stopped it

	// lists hold events in the order the search tends to place them, each
	// with a cursor before which every event is placed: all events by Invoke
	// (byInvoke), by stamp the stamped Runs and Singles, the Snapshots at a
	// known cut and the writes (unstamped first), then each process's events
	// in program order (byProc+p). A step looks at the unplaced heads of
	// these, not at the whole history.
	lists [][]int
	at    []int
}

const (
	byInvoke = iota
	commitsByTS
	cutsByTS
	writesByTS
	byProc
)

func newSearch(events []Event) *search {
	ev := slices.Clone(events)
	slices.SortStableFunc(ev, func(a, b Event) int { return cmp.Compare(a.Invoke, b.Invoke) })
	s := &search{ev: ev, writer: make([]bool, len(ev)),
		zob: make([]uint64, len(ev)), done: make([]bool, len(ev)), seen: map[[2]uint64]bool{},
		lists: make([][]int, byProc)}
	procs := map[int]int{}
	rng := rand.New(rand.NewPCG(1, 2))
	for i, e := range ev {
		p, ok := procs[e.Proc]
		if !ok {
			p = len(procs)
			procs[e.Proc] = p
			s.lists = append(s.lists, nil)
		}
		s.writer[i] = slices.ContainsFunc(e.Ops, Op.writes)
		s.zob[i] = rng.Uint64()
		s.lists[byInvoke] = append(s.lists[byInvoke], i)
		s.lists[byProc+p] = append(s.lists[byProc+p], i)
		switch {
		case e.Mode != Snapshot && e.TS > 0:
			s.lists[commitsByTS] = append(s.lists[commitsByTS], i)
		case e.Mode == Snapshot && e.TS > 0:
			s.lists[cutsByTS] = append(s.lists[cutsByTS], i)
		}
		if s.writer[i] {
			s.lists[writesByTS] = append(s.lists[writesByTS], i)
		}
	}
	for _, l := range s.lists[commitsByTS : writesByTS+1] {
		slices.SortStableFunc(l, func(a, b int) int { return cmp.Compare(ev[a].TS, ev[b].TS) })
	}
	s.at = make([]int, len(s.lists))
	return s
}

// rest is list l from its first unplaced event on.
func (s *search) rest(l int) []int {
	list := s.lists[l]
	for s.at[l] < len(list) && s.done[list[s.at[l]]] {
		s.at[l]++
	}
	return list[s.at[l]:]
}

// least is the least stamp among list l's unplaced events.
func (s *search) least(l int) uint64 {
	if r := s.rest(l); len(r) > 0 {
		return s.ev[r[0]].TS
	}
	return math.MaxUint64
}

// candidates are the events that may come next (see Check), by Invoke.
func (s *search) candidates() []int {
	commitTS, cut, writeTS := s.least(commitsByTS), s.least(cutsByTS), s.least(writesByTS)
	var c []int
	// A Snapshot at cut c, once every write stamped at or below c is placed.
	for _, i := range s.rest(cutsByTS) {
		if s.ev[i].TS >= writeTS {
			break
		}
		if !s.done[i] {
			c = append(c, i)
		}
	}
	// A Snapshot whose cut is unknown, once its process's earlier writes are
	// placed; an event that is not a Snapshot, once its process's are all.
	var heads []int
	for p := byProc; p < len(s.lists); p++ {
		first := true
		for _, i := range s.rest(p) {
			if s.done[i] {
				continue
			}
			e := &s.ev[i]
			if e.Mode != Snapshot {
				if first {
					heads = append(heads, i)
				}
				break
			}
			if e.TS == 0 {
				c = append(c, i)
			}
			first = false
		}
	}
	// ... and once every event that returned before it was called is placed.
	// Later events by Invoke cannot lower the bound: each returned after it.
	bound := int64(math.MaxInt64)
	for _, i := range s.rest(byInvoke) {
		if s.ev[i].Invoke >= bound {
			break
		}
		if !s.done[i] {
			bound = min(bound, s.ev[i].Complete)
		}
	}
	for _, i := range heads {
		if e := &s.ev[i]; e.Invoke < bound && (e.TS == 0 || commitTS >= e.TS && cut >= e.TS) {
			c = append(c, i)
		}
	}
	slices.Sort(c)
	return c
}

func (s *search) dfs(st *State) bool {
	if s.placed == len(s.ev) {
		return true
	}
	if s.steps++; s.steps > budget {
		return false
	}
	memo := [2]uint64{s.set, st.hash}
	if s.seen[memo] {
		return false
	}
	s.seen[memo] = true
	c := s.candidates()
	at := slices.Clone(s.at) // the cursors for this placed set
	// A read that may come next and answers right here comes next in some
	// order that fits, if any does: it changes nothing, and everything that
	// must precede it is placed. So the search places it and tries nothing
	// else here; if nothing fits after it, it is taken back with the rest.
	for _, i := range c {
		if !s.writer[i] {
			if _, ok := s.try(st, i); ok {
				s.place(i, true)
				if s.dfs(st) {
					return true
				}
				s.place(i, false)
				copy(s.at, at)
				return false
			}
		}
	}
	for _, i := range c {
		if !s.writer[i] {
			continue
		}
		u, ok := s.try(st, i)
		if !ok {
			continue
		}
		s.place(i, true)
		if s.dfs(st) {
			return true
		}
		s.place(i, false)
		copy(s.at, at)
		st.Revert(u)
		if s.steps > budget {
			return false
		}
	}
	if s.placed > s.best {
		s.best, s.why = s.placed, func() string { return "nothing may come next" }
	}
	return false
}

// try runs event i's operations as one transaction of the spec on st and
// commits it if every answer is the spec's.
func (s *search) try(st *State, i int) (Undo, bool) {
	e := &s.ev[i]
	tx := st.Begin()
	for _, op := range e.Ops {
		if want := tx.Do(op); !op.answers(want) {
			if s.placed > s.best || s.why == nil {
				s.best = s.placed
				s.why = func() string { return fmt.Sprintf("%v\n  answered %v where the spec answers %v", e, op, want) }
			}
			return Undo{}, false
		}
	}
	return tx.Commit(), true
}

func (s *search) place(i int, done bool) {
	s.done[i] = done
	if done {
		s.placed++
		s.set += s.zob[i]
	} else {
		s.placed--
		s.set -= s.zob[i]
	}
}
