package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// cellOf is the cell o's slot holds right now, descriptor or not.
func cellOf[T comparable](o *CASObj[T]) *cell[T] { return (*cell[T])(atomic.LoadPointer(&o.c)) }

// installedBy reports the descriptor currently installed in o, if any.
func (o *CASObj[T]) installedBy() *Desc {
	if c := cellOf(o); c != nil {
		return c.owner()
	}
	return nil
}

func TestCASObjZeroValue(t *testing.T) {
	var o CASObj[int]
	if got := o.Load(); got != 0 {
		t.Fatalf("zero-value Load = %d, want 0", got)
	}
	if !o.CAS(0, 42) {
		t.Fatal("CAS from zero value failed")
	}
	if got := o.Load(); got != 42 {
		t.Fatalf("Load = %d, want 42", got)
	}
}

func TestCASObjPointer(t *testing.T) {
	type node struct{ v int }
	var o CASObj[*node]
	if o.Load() != nil {
		t.Fatal("zero-value pointer not nil")
	}
	a, b := &node{1}, &node{2}
	o.Store(a)
	if !o.CAS(a, b) {
		t.Fatal("CAS(a,b) failed")
	}
	if o.CAS(a, b) {
		t.Fatal("stale CAS succeeded")
	}
	if o.Load() != b {
		t.Fatal("Load != b")
	}
}

func TestCASObjStruct(t *testing.T) {
	type ref struct {
		p      *int
		marked bool
	}
	var o CASObj[ref]
	x := 5
	o.Store(ref{&x, false})
	if !o.CAS(ref{&x, false}, ref{&x, true}) {
		t.Fatal("struct CAS failed")
	}
	got := o.Load()
	if got.p != &x || !got.marked {
		t.Fatalf("Load = %+v", got)
	}
}

func TestCASObjPlainStoreInstallsNothing(t *testing.T) {
	var o CASObj[int]
	for i := 0; i < 10; i++ {
		o.Store(i)
		if o.installedBy() != nil {
			t.Fatalf("descriptor installed after plain store %d", i)
		}
	}
}

// InitFrom is for a node nobody else can see yet: the zero value takes no
// cell, a tag naming a cell of the same value takes that very cell, another
// value a fresh one, and no call writes a cell, so a second call leaves the
// cell a first one shared as it was (TestBudgetInitFrom counts).
func TestCASObjInitFrom(t *testing.T) {
	var src CASObj[int]
	src.Store(3)
	_, tag := src.NbtcLoad(nil)
	shared := src.c

	var o CASObj[int]
	o.InitFrom(tag, 0)
	if o.c != nil || o.Load() != 0 {
		t.Fatal("InitFrom(zero) took a cell or lost the value")
	}
	o.InitFrom(tag, 3)
	if o.c != shared || o.Load() != 3 {
		t.Fatal("InitFrom did not take the tagged cell of its value")
	}
	o.InitFrom(tag, 4)
	if o.c == shared || o.c == nil || o.Load() != 4 {
		t.Fatal("InitFrom of another value did not take a fresh cell")
	}
	o.InitFrom(nil, 5)
	if o.Load() != 5 {
		t.Fatal("InitFrom with no tag lost the value")
	}
	if src.c != shared || src.Load() != 3 || (*cell[int])(shared).owner() != nil {
		t.Fatal("a later InitFrom wrote the cell an earlier one shared")
	}
	if !o.CAS(5, 9) || o.Load() != 9 || src.Load() != 3 {
		t.Fatal("CAS after InitFrom failed or reached the tagged object")
	}
}

func TestCASObjStoreOverwrites(t *testing.T) {
	var o CASObj[string]
	o.Store("a")
	o.Store("b")
	if got := o.Load(); got != "b" {
		t.Fatalf("Load = %q, want b", got)
	}
}

func TestCASFailureReturnsFalseWithoutChange(t *testing.T) {
	var o CASObj[int]
	o.Store(7)
	if o.CAS(8, 9) {
		t.Fatal("CAS with wrong expected succeeded")
	}
	if got := o.Load(); got != 7 {
		t.Fatalf("value changed to %d after failed CAS", got)
	}
}

// Plain CAS must behave like a hardware CAS under contention: exactly one
// winner per value transition.
func TestCASObjConcurrentCounter(t *testing.T) {
	var o CASObj[int]
	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				for {
					cur := o.Load()
					if o.CAS(cur, cur+1) {
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	if got := o.Load(); got != workers*perWorker {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker)
	}
}

// Property: a sequence of Store/CAS operations on CASObj matches a plain
// variable executed sequentially.
func TestCASObjSequentialModel(t *testing.T) {
	f := func(ops []uint8, vals []int16) bool {
		var o CASObj[int16]
		var model int16
		for i, op := range ops {
			var v int16
			if len(vals) > 0 {
				v = vals[i%len(vals)]
			}
			switch op % 3 {
			case 0:
				o.Store(v)
				model = v
			case 1:
				expected := model
				if op%2 == 0 {
					expected++ // sometimes wrong on purpose
				}
				got := o.CAS(expected, v)
				want := expected == model
				if got != want {
					return false
				}
				if want {
					model = v
				}
			case 2:
				if o.Load() != model {
					return false
				}
			}
		}
		return o.Load() == model
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestNbtcDegradesToPlainOutsideTx(t *testing.T) {
	mgr := NewTxManager()
	s := mgr.Session()
	var o CASObj[int]
	o.Store(1)
	v, _ := o.NbtcLoad(s)
	if v != 1 {
		t.Fatalf("NbtcLoad = %d", v)
	}
	if !o.NbtcCAS(s, 1, 2, true, true) {
		t.Fatal("NbtcCAS outside tx failed")
	}
	if o.installedBy() != nil {
		t.Fatal("descriptor installed outside a transaction")
	}
	if got := o.Load(); got != 2 {
		t.Fatalf("Load = %d, want 2", got)
	}
}

func TestNbtcNilSessionActsPlain(t *testing.T) {
	var o CASObj[int]
	if !o.NbtcCAS(nil, 0, 3, true, true) {
		t.Fatal("NbtcCAS with nil session failed")
	}
	v, tag := o.NbtcLoad(nil)
	if v != 3 {
		t.Fatalf("NbtcLoad = %d", v)
	}
	_ = tag
}
