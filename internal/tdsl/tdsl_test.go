package tdsl

import (
	"errors"
	"math/rand"
	"sync"
	"testing"
)

func TestBasicOps(t *testing.T) {
	tm := NewTM()
	m := NewMap[uint64](16)
	err := tm.Run(func(tx *Tx) error {
		if !m.Insert(tx, 1, 10) {
			t.Error("insert failed")
		}
		if m.Insert(tx, 1, 11) {
			t.Error("dup insert (own write) succeeded")
		}
		if v, ok := m.Get(tx, 1); !ok || v != 10 {
			t.Errorf("Get own write = %d,%v", v, ok)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	err = tm.Run(func(tx *Tx) error {
		if v, ok := m.Get(tx, 1); !ok || v != 10 {
			t.Errorf("Get = %d,%v", v, ok)
		}
		old, had := m.Put(tx, 1, 12)
		if !had || old != 10 {
			t.Errorf("Put = %d,%v", old, had)
		}
		if v, _ := m.Get(tx, 1); v != 12 {
			t.Errorf("Get after own put = %d", v)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	err = tm.Run(func(tx *Tx) error {
		if v, ok := m.Remove(tx, 1); !ok || v != 12 {
			t.Errorf("Remove = %d,%v", v, ok)
		}
		if _, ok := m.Get(tx, 1); ok {
			t.Error("visible after own remove")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Len() != 0 {
		t.Fatalf("Len = %d", m.Len())
	}
}

func TestUserErrorNoRetryNoApply(t *testing.T) {
	tm := NewTM()
	m := NewMap[uint64](16)
	boom := errors.New("boom")
	attempts := 0
	err := tm.Run(func(tx *Tx) error {
		attempts++
		m.Put(tx, 1, 1)
		return boom
	})
	if !errors.Is(err, boom) || attempts != 1 {
		t.Fatalf("err=%v attempts=%d", err, attempts)
	}
	if m.Len() != 0 {
		t.Fatal("aborted write applied")
	}
}

func TestConflictingTxsSerialize(t *testing.T) {
	tm := NewTM()
	m := NewMap[int](4)
	tm.Run(func(tx *Tx) error { m.Put(tx, 1, 0); return nil })
	const workers = 8
	const per = 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				tm.Run(func(tx *Tx) error {
					v, _ := m.Get(tx, 1)
					m.Put(tx, 1, v+1)
					return nil
				})
			}
		}()
	}
	wg.Wait()
	tm.Run(func(tx *Tx) error {
		v, _ := m.Get(tx, 1)
		if v != workers*per {
			t.Errorf("counter = %d, want %d", v, workers*per)
		}
		return nil
	})
}

func TestCrossMapAtomicity(t *testing.T) {
	tm := NewTM()
	m1 := NewMap[int](8)
	m2 := NewMap[int](8)
	tm.Run(func(tx *Tx) error {
		for a := uint64(0); a < 8; a++ {
			m1.Put(tx, a, 1000)
			m2.Put(tx, a, 1000)
		}
		return nil
	})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 400; i++ {
				a1 := uint64(rng.Intn(8))
				a2 := uint64(rng.Intn(8))
				src, dst := m1, m2
				if rng.Intn(2) == 0 {
					src, dst = m2, m1
				}
				tm.Run(func(tx *Tx) error {
					v1, ok := src.Get(tx, a1)
					if !ok || v1 < 1 {
						return nil
					}
					v2, _ := dst.Get(tx, a2)
					src.Put(tx, a1, v1-1)
					dst.Put(tx, a2, v2+1)
					return nil
				})
			}
		}(w)
	}
	wg.Wait()
	total := 0
	tm.Run(func(tx *Tx) error {
		total = 0
		for a := uint64(0); a < 8; a++ {
			v1, _ := m1.Get(tx, a)
			v2, _ := m2.Get(tx, a)
			total += v1 + v2
		}
		return nil
	})
	if total != 16000 {
		t.Fatalf("total = %d", total)
	}
}

// TestNoWriteSkew: two transactions that each read the key the other writes,
// both locked before either validates, cannot both commit.
func TestNoWriteSkew(t *testing.T) {
	tm := NewTM()
	a, b := NewMap[int](1), NewMap[int](1)
	tm.Run(func(tx *Tx) error { a.Put(tx, 1, 0); b.Put(tx, 1, 0); return nil })
	t1, t2 := tm.Begin(), tm.Begin()
	a.Get(t1, 1)
	b.Put(t1, 1, 1)
	b.Get(t2, 1)
	a.Put(t2, 1, 2)
	l1, l2 := t1.lock(), t2.lock()
	if t1.validate(l1) && t2.validate(l2) {
		t.Fatal("both validated, each having read what the other writes")
	}
}

// TestSymmetricConflictsFinish: two workers running transactions that each
// read what the other writes, which abort each other when their commits
// overlap, both finish.
func TestSymmetricConflictsFinish(t *testing.T) {
	tm := NewTM()
	a, b := NewMap[int](1), NewMap[int](1)
	var wg sync.WaitGroup
	for w, from := range []*Map[int]{a, b} {
		to := [2]*Map[int]{b, a}[w]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 2000 {
				tm.Run(func(tx *Tx) error {
					v, _ := from.Get(tx, 1)
					to.Put(tx, 1, v+1)
					return nil
				})
			}
		}()
	}
	wg.Wait()
}

func TestReadValidationCatchesInterference(t *testing.T) {
	tm := NewTM()
	m := NewMap[int](1) // single stripe: all keys conflict
	tm.Run(func(tx *Tx) error { m.Put(tx, 1, 1); m.Put(tx, 2, 2); return nil })

	tx := tm.Begin()
	if v, _ := m.Get(tx, 1); v != 1 {
		t.Fatal("bad read")
	}
	// Interfering commit bumps the stripe version.
	tm.Run(func(tx2 *Tx) error { m.Put(tx2, 2, 99); return nil })
	tx.writes = append(tx.writes, writeRec{hdr: &m.stripes[0].stripeHdr, apply: func() {}})
	if err := tx.Commit(); !errors.Is(err, ErrAborted) {
		t.Fatalf("Commit = %v, want abort", err)
	}
}
