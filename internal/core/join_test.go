package core

import (
	"errors"
	"sync"
	"testing"
)

type hookCounts struct{ begins, ends, commits, validated int }

// hooked returns a session of a fresh manager whose begin hook registers a
// validator on the transaction's descriptor, as txMontage's does, and counts
// its calls together with the end hook's.
func hooked() (*Session, *hookCounts) {
	m, c := NewTxManager(), &hookCounts{}
	m.SetBeginHook(func(s *Session) {
		c.begins++
		s.Desc().AddValidator(func() bool { c.validated++; return true })
	})
	m.SetEndHook(func(_ *Session, committed bool) {
		c.ends++
		if committed {
			c.commits++
		}
	})
	return m.Session(), c
}

// TestJoinCommitsAcrossManagers pins the happy path: a session of a second
// manager joins after the root has installed, both install, and root.TxEnd
// commits both on one descriptor and closes both sessions — hooks, cleanups
// and counters of each.
func TestJoinCommitsAcrossManagers(t *testing.T) {
	root, rc := hooked()
	guest, gc := hooked()
	var a, b CASObj[int]
	a.Store(1)
	b.Store(2)
	ran := [2]int{}

	root.TxBegin()
	txWrite(t, root, &a, 1, 10)
	root.AddToCleanups(func() { ran[0]++ })
	guest.TxJoin(root)
	if guest.Desc() != root.Desc() || !guest.InTx() {
		t.Fatal("the guest is not inside the root's descriptor")
	}
	txWrite(t, guest, &b, 2, 20)
	guest.AddToCleanups(func() { ran[1]++ })
	guest.OnAbort(func() { t.Error("undo ran on commit") })
	if v, _ := a.NbtcLoad(guest); v != 10 {
		t.Fatalf("the guest reads %d through the root's install, want its speculative 10", v)
	}
	if a.installedBy() != b.installedBy() {
		t.Fatal("two descriptors installed for one transaction")
	}
	if err := root.TxEnd(); err != nil {
		t.Fatalf("TxEnd: %v", err)
	}
	wantSettled(t, "a", &a, 10)
	wantSettled(t, "b", &b, 20)
	if root.InTx() || guest.InTx() {
		t.Fatal("a session is still in the transaction after TxEnd")
	}
	if ran != [2]int{1, 1} {
		t.Fatalf("cleanups ran %v times, want once per session", ran)
	}
	for i, c := range []*hookCounts{rc, gc} {
		if *c != (hookCounts{begins: 1, ends: 1, commits: 1, validated: 1}) {
			t.Fatalf("session %d hooks = %+v, want one begin, one validation, one committed end", i, *c)
		}
	}
	for i, s := range []*Session{root, guest} {
		if st := s.Manager().Stats(); st.Begins != 1 || st.Commits != 1 || st.Aborts != 0 {
			t.Fatalf("session %d stats = %+v, want one begin and one commit", i, st)
		}
	}
	// Both sessions are free again, in either role.
	guest.TxBegin()
	root.TxJoin(guest)
	if err := guest.TxEnd(); err != nil || root.InTx() {
		t.Fatalf("roles swapped: %v (root still open: %v)", err, root.InTx())
	}
}

// TestJoinValidationAbortsBoth pins the shared fate on the failure side: a
// read made through either session going stale rolls back the writes of both.
func TestJoinValidationAbortsBoth(t *testing.T) {
	for _, readBy := range []string{"root", "guest"} {
		root, guest := NewTxManager().Session(), NewTxManager().Session()
		var a, b, c CASObj[int]
		a.Store(1)
		b.Store(2)
		c.Store(3)
		undone := 0

		root.TxBegin()
		guest.TxJoin(root)
		reader := root
		if readBy == "guest" {
			reader = guest
		}
		if v := txRead(reader, &c); v != 3 {
			t.Fatalf("read c=%d, want 3", v)
		}
		txWrite(t, root, &a, 1, 10)
		txWrite(t, guest, &b, 2, 20)
		guest.OnAbort(func() { undone++ })
		if !c.NbtcCAS(nil, 3, 4, true, true) { // an outside writer invalidates the read
			t.Fatal("outside CAS failed")
		}
		if err := root.TxEnd(); !errors.Is(err, ErrTxAborted) {
			t.Fatalf("read by %s: TxEnd = %v, want ErrTxAborted", readBy, err)
		}
		wantSettled(t, "a", &a, 1)
		wantSettled(t, "b", &b, 2)
		if undone != 1 || guest.InTx() {
			t.Fatalf("read by %s: guest undos ran %d times, still open %v", readBy, undone, guest.InTx())
		}
	}
}

// TestJoinAfterInstallHelperAborts is the case the group pointer existed to
// rule out: the guest joins after the root has installed, a helper trips over
// the guest-installed cell while the transaction is InPrep and aborts it.
// Both cells are restored and both sessions close with one abort each.
func TestJoinAfterInstallHelperAborts(t *testing.T) {
	root, rc := hooked()
	guest, gc := hooked()
	var a, b CASObj[int]
	a.Store(1)
	b.Store(2)
	beforeA, beforeB := cellOf(&a), cellOf(&b)

	root.TxBegin()
	txWrite(t, root, &a, 1, 10)
	guest.TxJoin(root)
	txWrite(t, guest, &b, 2, 20)
	if got := b.Load(); got != 2 { // a plain load helps: aborts the InPrep descriptor
		t.Fatalf("helper read %d, want 2", got)
	}
	if root.Desc().Status() != Aborted {
		t.Fatalf("status %v after the helper, want Aborted", root.Desc().Status())
	}
	if cellOf(&b) != beforeB {
		t.Fatal("the helper did not swing the guest's cell back")
	}
	if a.installedBy() != root.Desc() {
		t.Fatal("an InPrep helper touched a cell other than the one it found")
	}
	if err := root.TxEnd(); !errors.Is(err, ErrTxAborted) {
		t.Fatalf("TxEnd = %v after a helper's abort", err)
	}
	if cellOf(&a) != beforeA || cellOf(&b) != beforeB {
		t.Fatal("slots do not hold the overwritten cells after the abort")
	}
	for i, s := range []*Session{root, guest} {
		if st := s.Manager().Stats(); s.InTx() || st.Aborts != 1 || st.Commits != 0 {
			t.Fatalf("session %d: open=%v stats=%+v, want closed with one abort", i, s.InTx(), st)
		}
	}
	for i, c := range []*hookCounts{rc, gc} {
		if c.ends != 1 || c.commits != 0 {
			t.Fatalf("session %d end hook = %+v, want one aborted end", i, *c)
		}
	}
}

// TestJoinGuestAbortAbortsAll: TxAbort on a guest is TxAbort on the root.
func TestJoinGuestAbortAbortsAll(t *testing.T) {
	root, g1, g2 := NewTxManager().Session(), NewTxManager().Session(), NewTxManager().Session()
	objs := make([]CASObj[int], 3)
	undone := [3]int{}
	root.TxBegin()
	g1.TxJoin(root)
	g2.TxJoin(root)
	for i, s := range []*Session{root, g1, g2} {
		txWrite(t, s, &objs[i], 0, 1)
		s.OnAbort(func() { undone[i]++ })
	}
	if err := g2.TxAbort(); !errors.Is(err, ErrTxAborted) {
		t.Fatalf("guest TxAbort = %v", err)
	}
	wantAll(t, "objs", objs, 0)
	if root.InTx() || g1.InTx() || g2.InTx() || undone != [3]int{1, 1, 1} {
		t.Fatalf("after a guest's abort: open %v %v %v, undos %v", root.InTx(), g1.InTx(), g2.InTx(), undone)
	}
	// ValidateReads on a guest fails the same way.
	root.TxBegin()
	g1.TxJoin(root)
	txRead(root, &objs[0])
	txWrite(t, g1, &objs[1], 0, 1)
	objs[0].Store(5)
	if err := g1.ValidateReads(); !errors.Is(err, ErrTxAborted) || root.InTx() {
		t.Fatalf("guest ValidateReads = %v, root open %v", err, root.InTx())
	}
	wantSettled(t, "objs[1]", &objs[1], 0)
}

// TestJoinGuards pins the misuse panics.
func TestJoinGuards(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	root, guest, third := NewTxManager().Session(), NewTxManager().Session(), NewTxManager().Session()
	mustPanic("TxJoin on an idle session", func() { guest.TxJoin(root) })
	root.TxBegin()
	guest.TxJoin(root)
	mustPanic("TxEnd on a guest", func() { _ = guest.TxEnd() })
	mustPanic("TxJoin on a guest", func() { third.TxJoin(guest) })
	mustPanic("TxJoin inside a transaction", func() { guest.TxJoin(root) })
	mustPanic("TxBegin on a guest", func() { guest.TxBegin() })
	if err := root.TxEnd(); err != nil || guest.InTx() || third.InTx() {
		t.Fatalf("TxEnd after the refused calls: %v", err)
	}
}

// TestJoinTransferStress moves value between an account array of one manager
// and one of another from four workers, each transfer one transaction that
// joins the second manager's session after the debit is installed. The sum
// is conserved and every object ends settled.
func TestJoinTransferStress(t *testing.T) {
	const workers, accounts, transfers, start = 4, 8, 2000, 1000
	mgrs := [2]*TxManager{NewTxManager(), NewTxManager()}
	var acct [2][accounts]CASObj[int]
	for i := range acct {
		for j := range acct[i] {
			acct[i][j].Store(start)
		}
	}
	add := func(s *Session, o *CASObj[int], delta int) bool {
		v := txRead(s, o)
		return o.NbtcCAS(s, v, v+delta, true, true)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ss := [2]*Session{mgrs[0].Session(), mgrs[1].Session()}
			rng := uint64(w)*2654435761 + 1
			for n := 0; n < transfers; {
				rng ^= rng << 13
				rng ^= rng >> 7
				rng ^= rng << 17
				from, to, side := int(rng%accounts), int(rng>>8%accounts), int(rng>>16&1)
				root, guest := ss[side], ss[1-side]
				root.TxBegin()
				ok := add(root, &acct[side][from], -1)
				guest.TxJoin(root)
				ok = ok && add(guest, &acct[1-side][to], +1)
				if !ok {
					root.TxAbort()
					continue
				}
				if root.TxEnd() == nil {
					n++
				}
			}
		}()
	}
	wg.Wait()
	sum := 0
	for i := range acct {
		for j := range acct[i] {
			c := cellOf(&acct[i][j])
			if c.owner() != nil {
				t.Fatalf("account %d/%d still has a descriptor installed", i, j)
			}
			sum += c.value()
		}
	}
	if sum != 2*accounts*start {
		t.Fatalf("sum = %d, want %d", sum, 2*accounts*start)
	}
	for i, m := range mgrs {
		if st := m.Stats(); st.Commits != workers*transfers || st.Begins != st.Commits+st.Aborts {
			t.Fatalf("manager %d stats = %+v, want %d commits and begins = commits + aborts", i, st, workers*transfers)
		}
	}
}
