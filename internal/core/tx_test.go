package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

func TestTxCommitMakesWritesVisibleAtomically(t *testing.T) {
	mgr := NewTxManager()
	s := mgr.Session()
	var a, b CASObj[int]
	a.Store(1)
	b.Store(2)

	s.TxBegin()
	if !a.NbtcCAS(s, 1, 10, true, true) {
		t.Fatal("install on a failed")
	}
	if !b.NbtcCAS(s, 2, 20, true, true) {
		t.Fatal("install on b failed")
	}
	// Before commit, another session must not see speculative values.
	s2 := mgr.Session()
	// (s2 outside tx resolves descriptors; reading would abort s. Check the
	// raw cells instead.)
	if a.installedBy() != s.Desc() || b.installedBy() != s.Desc() {
		t.Fatal("descriptors not installed")
	}
	if err := s.TxEnd(); err != nil {
		t.Fatalf("TxEnd: %v", err)
	}
	if got := a.Load(); got != 10 {
		t.Fatalf("a = %d, want 10", got)
	}
	if got, _ := b.NbtcLoad(s2); got != 20 {
		t.Fatalf("b = %d, want 20", got)
	}
	if a.installedBy() != nil || b.installedBy() != nil {
		t.Fatal("descriptor left installed after commit")
	}
}

func TestTxAbortRollsBack(t *testing.T) {
	mgr := NewTxManager()
	s := mgr.Session()
	var a, b CASObj[int]
	a.Store(1)
	b.Store(2)

	s.TxBegin()
	a.NbtcCAS(s, 1, 10, true, true)
	b.NbtcCAS(s, 2, 20, true, true)
	if err := s.TxAbort(); !errors.Is(err, ErrTxAborted) {
		t.Fatalf("TxAbort = %v", err)
	}
	if a.Load() != 1 || b.Load() != 2 {
		t.Fatalf("rollback failed: a=%d b=%d", a.Load(), b.Load())
	}
	if s.InTx() {
		t.Fatal("still in tx after abort")
	}
}

func TestOwnSpeculativeReadAndOverwrite(t *testing.T) {
	mgr := NewTxManager()
	s := mgr.Session()
	var a CASObj[int]
	a.Store(1)

	s.TxBegin()
	if !a.NbtcCAS(s, 1, 5, true, true) {
		t.Fatal("first CAS failed")
	}
	v, _ := a.NbtcLoad(s)
	if v != 5 {
		t.Fatalf("speculative read = %d, want 5", v)
	}
	// Second operation of the same transaction updates the same word.
	if !a.NbtcCAS(s, 5, 9, true, true) {
		t.Fatal("second CAS on own descriptor failed")
	}
	if v, _ := a.NbtcLoad(s); v != 9 {
		t.Fatalf("speculative read = %d, want 9", v)
	}
	// Wrong expected must fail.
	if a.NbtcCAS(s, 5, 11, true, true) {
		t.Fatal("CAS with stale expected succeeded")
	}
	if err := s.TxEnd(); err != nil {
		t.Fatalf("TxEnd: %v", err)
	}
	if a.Load() != 9 {
		t.Fatalf("a = %d, want 9", a.Load())
	}
}

func TestReadValidationAbortsOnConflict(t *testing.T) {
	mgr := NewTxManager()
	s1 := mgr.Session()
	s2 := mgr.Session()
	var a, b CASObj[int]
	a.Store(1)
	b.Store(2)

	s1.TxBegin()
	v, tag := a.NbtcLoad(s1)
	if v != 1 {
		t.Fatal("bad read")
	}
	s1.AddToReadSet(&a, tag)

	// s2 changes a before s1 commits.
	if !a.NbtcCAS(s2, 1, 99, true, true) {
		t.Fatal("s2 CAS failed")
	}

	b.NbtcCAS(s1, 2, 20, true, true)
	if err := s1.TxEnd(); !errors.Is(err, ErrTxAborted) {
		t.Fatalf("TxEnd = %v, want abort", err)
	}
	if b.Load() != 2 {
		t.Fatalf("b = %d, want rollback to 2", b.Load())
	}
	if a.Load() != 99 {
		t.Fatalf("a = %d, want 99", a.Load())
	}
}

func TestReadThenOwnWriteValidates(t *testing.T) {
	// A transaction that reads a word and later writes the same word must
	// still pass read validation (get-then-put composition, paper Fig. 3).
	mgr := NewTxManager()
	s := mgr.Session()
	var a CASObj[int]
	a.Store(1)

	s.TxBegin()
	v, tag := a.NbtcLoad(s)
	s.AddToReadSet(&a, tag)
	if !a.NbtcCAS(s, v, v+1, true, true) {
		t.Fatal("CAS failed")
	}
	// Overwrite again (two writes after the read).
	if !a.NbtcCAS(s, v+1, v+2, true, true) {
		t.Fatal("second CAS failed")
	}
	if err := s.TxEnd(); err != nil {
		t.Fatalf("TxEnd: %v (read-own-write should validate)", err)
	}
	if a.Load() != 3 {
		t.Fatalf("a = %d, want 3", a.Load())
	}
}

func TestEagerConflictAbortsInPrepLoser(t *testing.T) {
	mgr := NewTxManager()
	s1 := mgr.Session()
	s2 := mgr.Session()
	var a CASObj[int]
	a.Store(1)

	s1.TxBegin()
	if !a.NbtcCAS(s1, 1, 10, true, true) {
		t.Fatal("s1 install failed")
	}
	d1 := s1.Desc()

	// s2 (not in tx) encounters s1's descriptor and must finalize it:
	// s1 is InPrep, so it gets aborted and the old value restored.
	if got := a.Load(); got != 1 {
		t.Fatalf("s2 Load = %d, want 1 (s1 aborted, rolled back)", got)
	}
	if d1.Status() != Aborted {
		t.Fatalf("s1 status = %v, want Aborted", d1.Status())
	}
	if err := s1.TxEnd(); !errors.Is(err, ErrTxAborted) {
		t.Fatalf("s1 TxEnd = %v, want abort", err)
	}
	_ = s2
}

func TestHelperCommitsInProgTx(t *testing.T) {
	// Once a descriptor is InProg, an encountering thread helps it commit
	// rather than aborting it.
	mgr := NewTxManager()
	s1 := mgr.Session()
	var a CASObj[int]
	a.Store(1)

	s1.TxBegin()
	a.NbtcCAS(s1, 1, 10, true, true)
	d := s1.Desc()
	if !d.status.CompareAndSwap(uint32(InPrep), uint32(InProg)) {
		t.Fatal("setReady failed")
	}
	// A foreign load now helps commit.
	if got := a.Load(); got != 10 {
		t.Fatalf("Load = %d, want 10 (helper-committed)", got)
	}
	if d.Status() != Committed {
		t.Fatalf("status = %v, want Committed", d.Status())
	}
	// Owner's TxEnd observes the helper's commit.
	if err := s1.TxEnd(); err != nil {
		t.Fatalf("owner TxEnd after helper commit: %v", err)
	}
}

func TestHelperAbortsInProgWithStaleReads(t *testing.T) {
	mgr := NewTxManager()
	s1 := mgr.Session()
	s2 := mgr.Session()
	var a, b CASObj[int]
	a.Store(1)
	b.Store(2)

	s1.TxBegin()
	v, tag := a.NbtcLoad(s1)
	_ = v
	s1.AddToReadSet(&a, tag)
	b.NbtcCAS(s1, 2, 20, true, true)
	d := s1.Desc()

	// Invalidate the read, then push to InProg and let a helper decide.
	if !a.NbtcCAS(s2, 1, 7, true, true) {
		t.Fatal("invalidating CAS failed")
	}
	if !d.status.CompareAndSwap(uint32(InPrep), uint32(InProg)) {
		t.Fatal("setReady failed")
	}
	if got := b.Load(); got != 2 {
		t.Fatalf("b = %d, want 2 (helper must abort invalid tx)", got)
	}
	if d.Status() != Aborted {
		t.Fatalf("status = %v, want Aborted", d.Status())
	}
	if err := s1.TxEnd(); !errors.Is(err, ErrTxAborted) {
		t.Fatalf("TxEnd = %v", err)
	}
}

func TestValidateReadsMidTx(t *testing.T) {
	mgr := NewTxManager()
	s1 := mgr.Session()
	s2 := mgr.Session()
	var a CASObj[int]
	a.Store(1)

	s1.TxBegin()
	_, tag := a.NbtcLoad(s1)
	s1.AddToReadSet(&a, tag)
	if err := s1.ValidateReads(); err != nil {
		t.Fatalf("ValidateReads on valid tx: %v", err)
	}
	a.NbtcCAS(s2, 1, 2, true, true)
	if err := s1.ValidateReads(); !errors.Is(err, ErrTxAborted) {
		t.Fatalf("ValidateReads = %v, want abort", err)
	}
	if s1.InTx() {
		t.Fatal("ValidateReads failure must abort the tx")
	}
}

func TestCleanupsRunOnCommitOnly(t *testing.T) {
	mgr := NewTxManager()
	s := mgr.Session()
	var a CASObj[int]

	ran := 0
	s.TxBegin()
	a.NbtcCAS(s, 0, 1, true, true)
	s.AddToCleanups(Func(func() { ran++ }), nil, nil)
	if ran != 0 {
		t.Fatal("cleanup ran before commit")
	}
	if err := s.TxEnd(); err != nil {
		t.Fatal(err)
	}
	if ran != 1 {
		t.Fatalf("cleanup ran %d times, want 1", ran)
	}

	ran = 0
	s.TxBegin()
	a.NbtcCAS(s, 1, 2, true, true)
	s.AddToCleanups(Func(func() { ran++ }), nil, nil)
	s.TxAbort()
	if ran != 0 {
		t.Fatal("cleanup ran on abort")
	}

	// Outside a transaction cleanups run immediately.
	ran = 0
	s.AddToCleanups(Func(func() { ran++ }), nil, nil)
	if ran != 1 {
		t.Fatal("cleanup not immediate outside tx")
	}
}

func TestOnAbortUndoRunsOnAbortOnly(t *testing.T) {
	mgr := NewTxManager()
	s := mgr.Session()
	var a CASObj[int]

	undone := 0
	s.TxBegin()
	a.NbtcCAS(s, 0, 1, true, true)
	s.OnAbort(Func(func() { undone++ }), nil, nil)
	s.TxAbort()
	if undone != 1 {
		t.Fatalf("undo ran %d times, want 1", undone)
	}

	undone = 0
	s.TxBegin()
	a.NbtcCAS(s, 0, 1, true, true)
	s.OnAbort(Func(func() { undone++ }), nil, nil)
	if err := s.TxEnd(); err != nil {
		t.Fatal(err)
	}
	if undone != 0 {
		t.Fatal("undo ran on commit")
	}
}

// logCleaner is a Cleaner that logs its operands and whether it ran inside
// a transaction.
type logCleaner struct{ log []string }

func (c *logCleaner) Cleanup(s *Session, a, b any) {
	c.log = append(c.log, fmt.Sprintf("%v %v %v", a, b, s.InTx()))
}

// TestCleanupRecords: cleanups and undos are records of a Cleaner and its
// operands. Inside a transaction the cleanups run after commit in the order
// registered and the undos after abort in reverse; either way the session
// then holds none. Outside one a cleanup runs at once and an undo not at all.
func TestCleanupRecords(t *testing.T) {
	s := NewTxManager().Session()
	var a CASObj[int]
	c := &logCleaner{}
	wantLog := func(when string, want ...string) {
		t.Helper()
		if fmt.Sprint(c.log) != fmt.Sprint(want) {
			t.Fatalf("%s: ran %q, want %q", when, c.log, want)
		}
		c.log = nil
		if len(s.cleanups) != 0 || len(s.undos) != 0 {
			t.Fatalf("%s: %d cleanups and %d undos left registered", when, len(s.cleanups), len(s.undos))
		}
		for _, r := range append(s.cleanups[:cap(s.cleanups)], s.undos[:cap(s.undos)]...) {
			if r != (record{}) {
				t.Fatalf("%s: a record is still reachable", when)
			}
		}
	}
	register := func() {
		s.AddToCleanups(c, "c", 1)
		s.OnAbort(c, "u", 1)
		s.AddToCleanups(c, "c", 2)
		s.OnAbort(c, "u", 2)
	}

	s.TxBegin()
	a.NbtcCAS(s, 0, 1, true, true)
	register()
	if len(c.log) != 0 {
		t.Fatalf("ran %q before the transaction finished", c.log)
	}
	if err := s.TxEnd(); err != nil {
		t.Fatal(err)
	}
	wantLog("commit", "c 1 false", "c 2 false")

	s.TxBegin()
	a.NbtcCAS(s, 1, 2, true, true)
	register()
	s.TxAbort()
	wantLog("abort", "u 2 false", "u 1 false")

	register()
	wantLog("outside a transaction", "c 1 false", "c 2 false")
}

// logLayer is a Layer that logs each call with the session it was handed,
// and Begin and End whether that session's transaction was open; Valid
// answers valid.
type logLayer struct {
	log   []string
	valid bool
}

func (l *logLayer) Begin(s *Session) {
	l.log = append(l.log, fmt.Sprintf("begin %d %v", s.ID(), s.InTx()))
}

func (l *logLayer) Valid(s *Session) bool {
	l.log = append(l.log, fmt.Sprintf("valid %d", s.ID()))
	return l.valid
}

func (l *logLayer) End(s *Session, committed bool) {
	l.log = append(l.log, fmt.Sprintf("end %d %v %v", s.ID(), committed, s.InTx()))
}

// validLayer is a Layer whose Valid is the function; Begin and End do
// nothing.
type validLayer func(*Session) bool

func (validLayer) Begin(*Session)          {}
func (f validLayer) Valid(s *Session) bool { return f(s) }
func (validLayer) End(*Session, bool)      {}

// TestLayer drives the manager's Layer through a transaction's life. Begin
// runs at TxBegin, with the transaction open. Valid is asked at commit after
// the read set, which a conflict fails first, with the owner's session also
// when a helper finalizes the transaction; false aborts it and rolls its
// writes back. End runs after the cleanups or undos, with the transaction
// closed and its verdict. Each subtest runs on a fresh manager.
func TestLayer(t *testing.T) {
	type rig struct {
		l        *logLayer
		s, other *Session
		wantLog  func(when string, want ...string)
		logged   func(what string) Func
	}
	newRig := func(t *testing.T) rig {
		l := &logLayer{valid: true}
		mgr := NewTxManager()
		mgr.SetLayer(l)
		s, other := mgr.Session(), mgr.Session()
		return rig{
			l: l, s: s, other: other,
			wantLog: func(when string, want ...string) {
				t.Helper()
				if fmt.Sprint(l.log) != fmt.Sprint(want) {
					t.Fatalf("%s: layer calls %q, want %q", when, l.log, want)
				}
				l.log = nil
			},
			logged: func(what string) Func { return func() { l.log = append(l.log, what) } },
		}
	}

	t.Run("commit", func(t *testing.T) {
		r := newRig(t)
		var a CASObj[int]
		r.s.TxBegin()
		r.wantLog("TxBegin", "begin 0 true")
		a.NbtcCAS(r.s, 0, 1, true, true)
		r.s.AddToCleanups(r.logged("cleanup"), nil, nil)
		if err := r.s.TxEnd(); err != nil {
			t.Fatal(err)
		}
		r.wantLog("commit", "valid 0", "cleanup", "end 0 true false")
		if a.Load() != 1 {
			t.Fatal("committed write lost")
		}
	})

	t.Run("owner_refuses", func(t *testing.T) {
		r := newRig(t)
		var a CASObj[int]
		r.s.TxBegin()
		a.NbtcCAS(r.s, 0, 1, true, true)
		r.s.OnAbort(r.logged("undo"), nil, nil)
		r.l.valid = false
		if err := r.s.TxEnd(); !errors.Is(err, ErrTxAborted) {
			t.Fatalf("TxEnd = %v, want abort by the layer", err)
		}
		r.wantLog("refused by the owner's validation", "begin 0 true", "valid 0", "undo", "end 0 false false")
		if a.Load() != 0 {
			t.Fatal("the layer's abort did not roll back")
		}
	})

	// A helper asks the layer with the owner's session, and its false
	// aborts the transaction there.
	t.Run("helper_refuses", func(t *testing.T) {
		r := newRig(t)
		var b CASObj[int]
		r.l.valid = false
		r.s.TxBegin()
		b.NbtcCAS(r.s, 0, 1, true, true)
		r.s.OnAbort(r.logged("undo"), nil, nil)
		d := r.s.Desc()
		if !d.status.CompareAndSwap(uint32(InPrep), uint32(InProg)) {
			t.Fatal("setReady failed")
		}
		if got := b.Load(); got != 0 { // a foreign load finalizes the transaction
			t.Fatalf("b = %d, want 0: the helper must abort what the layer refuses", got)
		}
		if d.Status() != Aborted {
			t.Fatalf("status = %v after the helper, want Aborted", d.Status())
		}
		if err := r.s.TxEnd(); !errors.Is(err, ErrTxAborted) {
			t.Fatalf("TxEnd = %v, want the helper's abort", err)
		}
		r.wantLog("refused by a helper's validation", "begin 0 true", "valid 0", "undo", "end 0 false false")
	})

	// A read set that fails aborts before the layer is asked.
	t.Run("stale_read", func(t *testing.T) {
		r := newRig(t)
		var a CASObj[int]
		a.Store(1)
		r.s.TxBegin()
		_, tag := a.NbtcLoad(r.s)
		r.s.AddToReadSet(&a, tag)
		if !a.NbtcCAS(r.other, 1, 3, true, true) {
			t.Fatal("invalidating CAS failed")
		}
		if err := r.s.TxEnd(); !errors.Is(err, ErrTxAborted) {
			t.Fatalf("TxEnd = %v, want abort on the stale read", err)
		}
		r.wantLog("stale read", "begin 0 true", "end 0 false false")
	})
}

func TestRunRetriesOnConflictAbort(t *testing.T) {
	mgr := NewTxManager()
	s := mgr.Session()
	attempts := 0
	err := s.Run(func() error {
		attempts++
		if attempts < 3 {
			return s.TxAbort()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if attempts != 3 {
		t.Fatalf("attempts = %d, want 3", attempts)
	}
}

func TestRunReturnsUserErrorWithoutRetry(t *testing.T) {
	mgr := NewTxManager()
	s := mgr.Session()
	var a CASObj[int]
	userErr := errors.New("insufficient funds")
	attempts := 0
	err := s.Run(func() error {
		attempts++
		a.NbtcCAS(s, 0, 1, true, true)
		return userErr
	})
	if !errors.Is(err, userErr) {
		t.Fatalf("err = %v, want user error", err)
	}
	if attempts != 1 {
		t.Fatalf("attempts = %d, want 1 (no retry on user error)", attempts)
	}
	if a.Load() != 0 {
		t.Fatal("user-error path did not roll back")
	}
}

func TestNestedTxBeginPanics(t *testing.T) {
	mgr := NewTxManager()
	s := mgr.Session()
	s.TxBegin()
	defer func() {
		if recover() == nil {
			t.Fatal("nested TxBegin did not panic")
		}
		s.TxAbort()
	}()
	s.TxBegin()
}

func TestStatsAggregation(t *testing.T) {
	mgr := NewTxManager()
	s := mgr.Session()
	var a CASObj[int]
	for i := 0; i < 5; i++ {
		s.TxBegin()
		a.NbtcCAS(s, i, i+1, true, true)
		if err := s.TxEnd(); err != nil {
			t.Fatal(err)
		}
	}
	s.TxBegin()
	s.TxAbort()
	st := mgr.Stats()
	if st.Begins != 6 || st.Commits != 5 || st.Aborts != 1 || st.Installs != 5 {
		t.Fatalf("stats = %+v", st)
	}
}

// Transactions moving value between two counters must preserve their sum.
func TestConcurrentTransfersPreserveSum(t *testing.T) {
	mgr := NewTxManager()
	const workers = 8
	const transfers = 2000
	var a, b CASObj[int]
	a.Store(1000)
	b.Store(1000)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := mgr.Session()
			for i := 0; i < transfers; i++ {
				src, dst := &a, &b
				if (w+i)%2 == 0 {
					src, dst = &b, &a
				}
				err := s.Run(func() error {
					sv, stag := src.NbtcLoad(s)
					s.AddToReadSet(src, stag)
					dv, _ := dst.NbtcLoad(s)
					if !src.NbtcCAS(s, sv, sv-1, true, true) {
						return ErrTxAborted
					}
					if !dst.NbtcCAS(s, dv, dv+1, true, true) {
						return ErrTxAborted
					}
					return nil
				})
				if err != nil {
					t.Errorf("transfer: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if sum := a.Load() + b.Load(); sum != 2000 {
		t.Fatalf("sum = %d, want 2000 (atomicity violated)", sum)
	}
}

// Torture test: many words, random multi-word transactions; the global sum
// across all words must be invariant.
func TestConcurrentMultiWordSumInvariant(t *testing.T) {
	mgr := NewTxManager()
	const nWords = 16
	const workers = 8
	const txns = 1500
	words := make([]CASObj[int], nWords)
	for i := range words {
		words[i].Store(100)
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			s := mgr.Session()
			rng := seed*2654435769 + 12345
			next := func(n int) int {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				return int(rng % uint64(n))
			}
			for i := 0; i < txns; i++ {
				i1, i2 := next(nWords), next(nWords)
				if i1 == i2 {
					continue
				}
				err := s.Run(func() error {
					v1, _ := words[i1].NbtcLoad(s)
					v2, _ := words[i2].NbtcLoad(s)
					if !words[i1].NbtcCAS(s, v1, v1-3, true, true) {
						return ErrTxAborted
					}
					if !words[i2].NbtcCAS(s, v2, v2+3, true, true) {
						return ErrTxAborted
					}
					return nil
				})
				if err != nil {
					t.Errorf("tx: %v", err)
					return
				}
			}
		}(uint64(w + 1))
	}
	wg.Wait()
	sum := 0
	for i := range words {
		if words[i].installedBy() != nil {
			t.Fatal("descriptor left installed")
		}
		sum += words[i].Load()
	}
	if sum != nWords*100 {
		t.Fatalf("sum = %d, want %d", sum, nWords*100)
	}
}

// Obstruction freedom: with a conflicting transaction paused mid-flight
// (descriptor installed, owner suspended), a solo thread must complete its
// own transaction.
func TestObstructionFreedomAgainstStalledTx(t *testing.T) {
	mgr := NewTxManager()
	s1 := mgr.Session()
	s2 := mgr.Session()
	var a CASObj[int]
	a.Store(1)

	// s1 installs and then "stalls" (we simply stop driving it).
	s1.TxBegin()
	if !a.NbtcCAS(s1, 1, 50, true, true) {
		t.Fatal("install failed")
	}

	// s2 runs solo and must commit despite the stalled descriptor.
	err := s2.Run(func() error {
		v, _ := a.NbtcLoad(s2)
		if !a.NbtcCAS(s2, v, v+1, true, true) {
			return ErrTxAborted
		}
		return nil
	})
	if err != nil {
		t.Fatalf("solo tx blocked by stalled tx: %v", err)
	}
	if got := a.Load(); got != 2 {
		t.Fatalf("a = %d, want 2 (stalled InPrep tx aborted)", got)
	}
	// The stalled owner eventually notices.
	if err := s1.TxEnd(); !errors.Is(err, ErrTxAborted) {
		t.Fatalf("stalled owner TxEnd = %v, want abort", err)
	}
}
