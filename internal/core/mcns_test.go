package core

import (
	"errors"
	"sync"
	"testing"
)

// Protocol-level tests for the MCNS descriptor machinery beyond the
// API-level tests in tx_test.go.

func TestSpeculationIntervalPubWithoutLin(t *testing.T) {
	// A CAS with pubPt=true, linPt=false opens the speculation interval;
	// subsequent CASes are critical until one carries linPt (the
	// Natarajan–Mittal pattern of Section 2.2).
	mgr := NewTxManager()
	s := mgr.Session()
	var a, b CASObj[int]
	a.Store(1)
	b.Store(2)

	s.TxBegin()
	s.OpStart()
	if !a.NbtcCAS(s, 1, 10, false, true) { // publication point
		t.Fatal("pub CAS failed")
	}
	if a.installedBy() != s.Desc() {
		t.Fatal("publication CAS did not install descriptor")
	}
	// Still in the speculation interval: this CAS must be critical even
	// though pubPt is false here.
	if !b.NbtcCAS(s, 2, 20, true, false) { // linearization point
		t.Fatal("lin CAS failed")
	}
	if b.installedBy() != s.Desc() {
		t.Fatal("CAS inside speculation interval was not critical")
	}
	if err := s.TxEnd(); err != nil {
		t.Fatal(err)
	}
	if a.Load() != 10 || b.Load() != 20 {
		t.Fatal("commit lost writes")
	}
}

func TestNonCriticalCASExecutesPlainInsideTx(t *testing.T) {
	// Before any publication point, with no own speculative state, a CAS
	// with linPt=pubPt=false is a helping CAS: it executes immediately and
	// survives even if the transaction aborts.
	mgr := NewTxManager()
	s := mgr.Session()
	var helper CASObj[int]
	helper.Store(5)

	s.TxBegin()
	s.OpStart()
	if !helper.NbtcCAS(s, 5, 6, false, false) {
		t.Fatal("helping CAS failed")
	}
	if helper.installedBy() != nil {
		t.Fatal("non-critical CAS installed a descriptor")
	}
	s.TxAbort()
	if helper.Load() != 6 {
		t.Fatal("plain helping CAS was rolled back")
	}
}

func TestOpStartResetsSpeculationInterval(t *testing.T) {
	mgr := NewTxManager()
	s := mgr.Session()
	var a, b CASObj[int]

	s.TxBegin()
	s.OpStart()
	a.NbtcCAS(s, 0, 1, false, true) // open interval, never linearize
	s.OpStart()                     // next operation: fresh interval
	if !b.NbtcCAS(s, 0, 2, false, false) {
		t.Fatal("CAS failed")
	}
	if b.installedBy() != nil {
		t.Fatal("speculation interval leaked across OpStart")
	}
	s.TxAbort()
}

// The status is read before finish: afterwards the descriptor belongs to the
// session's next transaction, and the verdict is TxEnd's to report.
func TestDescStatusTransitionsAreMonotone(t *testing.T) {
	mgr := NewTxManager()
	s := mgr.Session()
	var a CASObj[int]
	s.TxBegin()
	a.NbtcCAS(s, 0, 1, true, true)
	d := s.Desc()
	if d.Status() != InPrep {
		t.Fatalf("fresh desc status = %v", d.Status())
	}
	decide(s)
	if d.Status() != Committed {
		t.Fatalf("status after the verdict = %v", d.Status())
	}
	// A finalized descriptor can never be aborted retroactively: a helper
	// that arrives now, a Load of the installed cell, takes the same verdict.
	if v := a.Load(); v != 1 || d.Status() != Committed {
		t.Fatalf("a late helper read %d, status %v; want 1, Committed", v, d.Status())
	}
	if err := s.finish(d); err != nil {
		t.Fatal(err)
	}
	if a.Load() != 1 {
		t.Fatal("commit lost the write")
	}
}

func TestStatusStringer(t *testing.T) {
	for st, want := range map[Status]string{
		InPrep: "InPrep", InProg: "InProg", Committed: "Committed", Aborted: "Aborted",
	} {
		if st.String() != want {
			t.Fatalf("%d.String() = %q", st, st.String())
		}
	}
}

func TestFailedInstallLeavesNoDescriptor(t *testing.T) {
	// A critical CAS whose expected value mismatches must neither install
	// nor grow the write set.
	mgr := NewTxManager()
	s := mgr.Session()
	var a CASObj[int]
	a.Store(3)
	s.TxBegin()
	if a.NbtcCAS(s, 99, 100, true, true) {
		t.Fatal("CAS with wrong expected succeeded")
	}
	if a.installedBy() != nil {
		t.Fatal("failed CAS installed descriptor")
	}
	if len(s.Desc().writeSet) != 0 {
		t.Fatalf("write set grew to %d after failed CAS", len(s.Desc().writeSet))
	}
	s.TxAbort()
	if a.Load() != 3 {
		t.Fatal("value corrupted")
	}
}

func TestReadTagPrevChainAcrossManyRewrites(t *testing.T) {
	// Read, then overwrite the same word many times in one transaction:
	// the prev chain must keep the original read valid.
	mgr := NewTxManager()
	s := mgr.Session()
	var a CASObj[int]
	a.Store(0)
	s.TxBegin()
	v, tag := a.NbtcLoad(s)
	s.AddToReadSet(&a, tag)
	for i := 0; i < 20; i++ {
		if !a.NbtcCAS(s, v+i, v+i+1, true, true) {
			t.Fatalf("rewrite %d failed", i)
		}
	}
	if err := s.TxEnd(); err != nil {
		t.Fatalf("TxEnd after 20 rewrites: %v", err)
	}
	if a.Load() != 20 {
		t.Fatalf("a = %d", a.Load())
	}
}

func TestHelpersRaceToFinalizeOneWinner(t *testing.T) {
	// Many threads simultaneously trip over the same InPrep descriptor;
	// exactly one outcome must emerge and the word must hold a legal value.
	for round := 0; round < 50; round++ {
		mgr := NewTxManager()
		owner := mgr.Session()
		var a CASObj[int]
		a.Store(1)
		owner.TxBegin()
		if !a.NbtcCAS(owner, 1, 2, true, true) {
			t.Fatal("install failed")
		}
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_ = a.Load() // resolves the descriptor
			}()
		}
		wg.Wait()
		got := a.Load()
		if got != 1 {
			t.Fatalf("round %d: value %d (InPrep desc must be aborted by helpers)", round, got)
		}
		if err := owner.TxEnd(); !errors.Is(err, ErrTxAborted) {
			t.Fatalf("owner TxEnd = %v", err)
		}
	}
}

func TestHelpersCommitInProgConcurrently(t *testing.T) {
	for round := 0; round < 50; round++ {
		mgr := NewTxManager()
		owner := mgr.Session()
		var a, b CASObj[int]
		a.Store(1)
		b.Store(1)
		owner.TxBegin()
		a.NbtcCAS(owner, 1, 2, true, true)
		b.NbtcCAS(owner, 1, 2, true, true)
		d := owner.Desc()
		if !d.status.CompareAndSwap(uint32(InPrep), uint32(InProg)) {
			t.Fatal("setReady failed")
		}
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				if w%2 == 0 {
					_ = a.Load()
				} else {
					_ = b.Load()
				}
			}(w)
		}
		wg.Wait()
		if a.Load() != 2 || b.Load() != 2 {
			t.Fatalf("round %d: helpers failed to commit InProg tx: a=%d b=%d",
				round, a.Load(), b.Load())
		}
		if err := owner.TxEnd(); err != nil {
			t.Fatalf("owner TxEnd = %v", err)
		}
	}
}

func TestMixedTypeObjectsInOneTx(t *testing.T) {
	// The type-erased descriptor machinery must handle heterogeneous
	// CASObj instantiations in a single write set.
	type nodeRef struct {
		p      *int
		marked bool
	}
	mgr := NewTxManager()
	s := mgr.Session()
	var a CASObj[int]
	var b CASObj[string]
	var c CASObj[nodeRef]
	x := 5
	s.TxBegin()
	a.NbtcCAS(s, 0, 7, true, true)
	b.NbtcCAS(s, "", "hello", true, true)
	c.NbtcCAS(s, nodeRef{}, nodeRef{&x, true}, true, true)
	if err := s.TxEnd(); err != nil {
		t.Fatal(err)
	}
	if a.Load() != 7 || b.Load() != "hello" {
		t.Fatal("mixed-type commit lost values")
	}
	if got := c.Load(); got.p != &x || !got.marked {
		t.Fatalf("struct value = %+v", got)
	}
}

func TestSessionStatsTrackHelps(t *testing.T) {
	mgr := NewTxManager()
	s1 := mgr.Session()
	s2 := mgr.Session()
	var a CASObj[int]
	a.Store(1)
	s1.TxBegin()
	a.NbtcCAS(s1, 1, 2, true, true)
	// s2's plain load finalizes s1's descriptor: counted as a help against
	// s1's descriptor.
	_, _ = a.NbtcLoad(s2)
	if got := mgr.Stats().Helps; got == 0 {
		t.Fatal("help not counted")
	}
	s1.TxEnd()
}

func TestZeroValueCASObjInTx(t *testing.T) {
	mgr := NewTxManager()
	s := mgr.Session()
	var a CASObj[*int] // nil cell: implicit zero
	s.TxBegin()
	v, tag := a.NbtcLoad(s)
	if v != nil {
		t.Fatal("zero-value not nil")
	}
	s.AddToReadSet(&a, tag)
	x := 9
	if !a.NbtcCAS(s, nil, &x, true, true) {
		t.Fatal("CAS from nil cell failed")
	}
	if err := s.TxEnd(); err != nil {
		t.Fatal(err)
	}
	if a.Load() != &x {
		t.Fatal("commit lost pointer")
	}
}

// decide takes the open transaction of s from InPrep to its verdict, as TxEnd
// does before it finishes.
func decide(s *Session) {
	if d := s.desc; d.status.CompareAndSwap(uint32(InPrep), uint32(InProg)) {
		d.decide()
	}
}
