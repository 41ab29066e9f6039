// Package metrics holds the repository's counter sets and its latency
// histogram. A counter set is a plain struct of uint64 fields, and the struct
// is its own field table: Add, Sub, Fields and Format walk it by reflection,
// on read paths only. A field prints under its `metric:"name"` tag, or else
// its lowercased name; `metric:"-"` hides it from Fields and Format but not
// from Add and Sub. Hot paths bump a cell of their own (Cells) with a typed
// atomic add, atomic.AddUint64(&cell.Commits, 1), and never come here.
package metrics

import (
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"unsafe"
)

// cacheLine is the assumed coherence-granule size.
const cacheLine = 64

// Cells is one counter set T kept as a cell per session (worker, connection):
// each session bumps its own cell with atomic adds and Sum totals them. The
// zero value is ready to use. The cells live on a push-only list, so New and
// Sum are lock-free.
type Cells[T any] struct {
	head atomic.Pointer[cell[T]]
}

// cell is one session's counters, padded by two cache lines so that no two
// sessions' counters share a line or an adjacent-line prefetch pair: false
// sharing would serialize exactly the sessions that are meant to run apart.
type cell[T any] struct {
	v    T
	next *cell[T]
	_    [2 * cacheLine]byte
}

// New adds a zeroed cell and returns it for one session to bump. It panics if
// T has a field that is not a uint64.
func (c *Cells[T]) New() *T {
	n := new(cell[T])
	words(&n.v)
	for {
		n.next = c.head.Load()
		if c.head.CompareAndSwap(n.next, n) {
			return &n.v
		}
	}
}

// Sum totals every cell, loading each field atomically, so it may run
// concurrently with New and with the sessions' bumps.
func (c *Cells[T]) Sum() T {
	var total T
	sum := words(&total)
	for n := c.head.Load(); n != nil; n = n.next {
		cw := words(&n.v)
		for i := range cw {
			sum[i] += atomic.LoadUint64(&cw[i])
		}
	}
	return total
}

// Len reports how many cells New has added.
func (c *Cells[T]) Len() int {
	k := 0
	for n := c.head.Load(); n != nil; n = n.next {
		k++
	}
	return k
}

// Add adds every field of src to dst's.
func Add[T any](dst *T, src T) {
	d := words(dst)
	for i, w := range words(&src) {
		d[i] += w
	}
}

// Sub returns a minus b, field by field: the counts between two readings.
func Sub[T any](a, b T) T {
	d := words(&a)
	for i, w := range words(&b) {
		d[i] -= w
	}
	return a
}

// Field is one printed counter.
type Field struct {
	Name  string
	Value uint64
}

// Fields lists v's printed fields in declaration order.
func Fields[T any](v T) []Field {
	t := reflect.TypeFor[T]()
	var out []Field
	for i, w := range words(&v) {
		name := t.Field(i).Tag.Get("metric")
		if name == "" {
			name = strings.ToLower(t.Field(i).Name)
		}
		if name != "-" {
			out = append(out, Field{name, w})
		}
	}
	return out
}

// Format renders v's printed fields as space-separated name=value pairs.
func Format[T any](v T) string {
	var pairs []string
	for _, f := range Fields(v) {
		pairs = append(pairs, fmt.Sprintf("%s=%d", f.Name, f.Value))
	}
	return strings.Join(pairs, " ")
}

// Columns renders v's printed fields as right-aligned columns of width w, each
// preceded by a space: the names for a table's header, v's values for a row.
func Columns[T any](v T, w int) (head, row string) {
	for _, f := range Fields(v) {
		head += fmt.Sprintf(" %*s", w, f.Name)
		row += fmt.Sprintf(" %*d", w, f.Value)
	}
	return head, row
}

// words views a counter set as its uint64 fields, panicking unless T is a
// struct whose every field is one.
func words[T any](v *T) []uint64 {
	t := reflect.TypeFor[T]()
	for i := 0; i < t.NumField(); i++ {
		if f := t.Field(i); f.Type.Kind() != reflect.Uint64 {
			panic(fmt.Sprintf("metrics: %v.%s is %v, not uint64", t, f.Name, f.Type))
		}
	}
	return unsafe.Slice((*uint64)(unsafe.Pointer(v)), t.NumField())
}
