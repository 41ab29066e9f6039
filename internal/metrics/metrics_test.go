package metrics

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"
)

type testSet struct {
	Commits uint64
	Aborts  uint64 `metric:"ab"`
	Dead    uint64 `metric:"-"`
	Stale   uint64
}

// TestCellsConcurrent: sessions that start while Sum polls each get a cell of
// their own, every bump made before the last Sum is in it, and the list keeps
// every cell.
func TestCellsConcurrent(t *testing.T) {
	const (
		spawners   = 8
		perSpawner = 200
		bumps      = 50
	)
	var c Cells[testSet]
	stop := make(chan struct{})
	var poll sync.WaitGroup
	poll.Add(1)
	go func() { // concurrent totals must not race with New or the bumps
		defer poll.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if s := c.Sum(); s.Aborts > s.Commits {
					t.Errorf("a Sum saw more aborts (%d) than commits (%d): a torn cell", s.Aborts, s.Commits)
					return
				}
			}
		}
	}()
	var wg sync.WaitGroup
	cells := make(chan *testSet, spawners*perSpawner)
	for g := 0; g < spawners; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perSpawner; i++ {
				cell := c.New()
				for b := 0; b < bumps; b++ {
					atomic.AddUint64(&cell.Commits, 1)
				}
				atomic.AddUint64(&cell.Aborts, 1)
				cells <- cell
			}
		}()
	}
	wg.Wait()
	close(stop)
	poll.Wait()
	close(cells)
	seen := map[*testSet]bool{}
	for cell := range cells {
		if seen[cell] {
			t.Fatal("New handed out one cell twice")
		}
		seen[cell] = true
	}
	if n := c.Len(); n != spawners*perSpawner {
		t.Fatalf("Len = %d, want %d", n, spawners*perSpawner)
	}
	want := testSet{Commits: spawners * perSpawner * bumps, Aborts: spawners * perSpawner}
	if got := c.Sum(); got != want {
		t.Fatalf("Sum = %+v, want %+v (the list lost cells or bumps)", got, want)
	}
}

// TestCellPadding: the first fields of adjacent cells sit at least two cache
// lines apart, whatever the set's size, so no two sessions' counters share a
// line or an adjacent-line prefetch pair.
func TestCellPadding(t *testing.T) {
	var small [2]cell[struct{ A uint64 }]
	var large [2]cell[testSet]
	for _, d := range []uintptr{
		uintptr(unsafe.Pointer(&small[1].v)) - uintptr(unsafe.Pointer(&small[0].v)),
		uintptr(unsafe.Pointer(&large[1].v)) - uintptr(unsafe.Pointer(&large[0].v)),
	} {
		if d < 2*cacheLine {
			t.Fatalf("adjacent cells' counters only %d bytes apart, want >= %d", d, 2*cacheLine)
		}
	}
}

// TestNonUint64Panics: a set with a field that is not a plain uint64 — an
// atomic type, a narrower integer — cannot be read as words, and is refused
// when its first cell is made and by every read-path helper.
func TestNonUint64Panics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if r := recover(); r == nil {
				t.Errorf("%s did not panic", name)
			} else if !strings.Contains(r.(string), "not uint64") {
				t.Errorf("%s panicked with %v", name, r)
			}
		}()
		f()
	}
	type atomicField struct{ A atomic.Uint64 }
	type narrow struct {
		A uint64
		B uint32
	}
	mustPanic("Cells.New with an atomic.Uint64", func() { new(Cells[atomicField]).New() })
	mustPanic("Cells.New with a uint32", func() { new(Cells[narrow]).New() })
	mustPanic("Add", func() { Add(&narrow{}, narrow{}) })
	mustPanic("Fields", func() { Fields(narrow{}) })
}

// TestFieldTable: names come from the tag or the lowercased field name, a
// hidden field is left out of the printers and kept in the arithmetic.
func TestFieldTable(t *testing.T) {
	a := testSet{Commits: 5, Aborts: 3, Dead: 7, Stale: 1}
	b := testSet{Commits: 2, Aborts: 1, Dead: 3, Stale: 1}
	if got := Format(a); got != "commits=5 ab=3 stale=1" {
		t.Errorf("Format = %q", got)
	}
	if got, want := Sub(a, b), (testSet{3, 2, 4, 0}); got != want {
		t.Errorf("Sub = %+v, want %+v", got, want)
	}
	Add(&b, a)
	if want := (testSet{7, 4, 10, 2}); b != want {
		t.Errorf("Add = %+v, want %+v", b, want)
	}
	head, row := Columns(a, 4)
	if head != " commits   ab stale" || row != "    5    3    1" {
		t.Errorf("Columns = %q / %q", head, row)
	}
}
