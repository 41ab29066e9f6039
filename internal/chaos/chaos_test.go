package chaos

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

// pt makes a uniquely named registered point for one test.
func pt(t *testing.T, name string) *Point {
	t.Helper()
	t.Cleanup(DisarmAll)
	return At("test." + name)
}

func TestDisarmedIsNoOp(t *testing.T) {
	p := pt(t, "noop")
	for i := 0; i < 100; i++ {
		if err := p.Hit(); err != nil {
			t.Fatalf("disarmed Hit returned %v", err)
		}
		if n, torn := p.Torn(64); torn || n != 0 {
			t.Fatalf("disarmed Torn returned (%d,%v)", n, torn)
		}
	}
	if Fired(p.Name()) != 0 {
		t.Fatalf("disarmed point reports fired=%d", Fired(p.Name()))
	}
}

func TestErrorFault(t *testing.T) {
	p := pt(t, "error")
	inj := errors.New("boom")
	if err := Arm(p.Name(), Fault{Kind: Error, Err: inj}); err != nil {
		t.Fatal(err)
	}
	if err := p.Hit(); !errors.Is(err, inj) {
		t.Fatalf("Hit = %v, want injected error", err)
	}
	if got := Fired(p.Name()); got != 1 {
		t.Fatalf("fired = %d, want 1", got)
	}
	Disarm(p.Name())
	if err := p.Hit(); err != nil {
		t.Fatalf("Hit after Disarm = %v", err)
	}
}

func TestCrashFaultPanicsAfterAction(t *testing.T) {
	p := pt(t, "crash")
	ran := false
	if err := Arm(p.Name(), Fault{Kind: Crash, Action: func() { ran = true }}); err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			cp, ok := AsCrash(recover())
			if !ok {
				t.Fatalf("expected CrashPanic, got %v", cp)
			}
			if cp.Point != p.Name() {
				t.Fatalf("CrashPanic.Point = %q, want %q", cp.Point, p.Name())
			}
		}()
		p.Hit()
		t.Fatal("Hit returned instead of panicking")
	}()
	if !ran {
		t.Fatal("crash Action did not run before the panic")
	}
}

func TestDelayFault(t *testing.T) {
	p := pt(t, "delay")
	ran := false
	if err := Arm(p.Name(), Fault{Kind: Delay, Delay: 20 * time.Millisecond, Action: func() { ran = true }}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := p.Hit(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 15*time.Millisecond {
		t.Fatalf("delay fault slept only %v", d)
	}
	if !ran {
		t.Fatal("delay Action (a test's hook at the point) did not run")
	}
}

func TestSchedule(t *testing.T) {
	p := pt(t, "sched")
	// Skip 2 hits, then fire every 3rd eligible hit, at most twice.
	if err := Arm(p.Name(), Fault{Kind: Error, After: 2, Every: 3, Times: 2}); err != nil {
		t.Fatal(err)
	}
	var fires []int
	for i := 0; i < 12; i++ {
		if p.Hit() != nil {
			fires = append(fires, i)
		}
	}
	// Hits 0,1 skipped; eligible hits 2,3,4,... fire at 2 and 5; Times=2 stops there.
	want := []int{2, 5}
	if len(fires) != len(want) || fires[0] != want[0] || fires[1] != want[1] {
		t.Fatalf("fired at %v, want %v", fires, want)
	}
	if got := Fired(p.Name()); got != 2 {
		t.Fatalf("fired = %d, want 2", got)
	}
}

func TestTorn(t *testing.T) {
	p := pt(t, "torn")
	if err := Arm(p.Name(), Fault{Kind: Torn}); err != nil {
		t.Fatal(err)
	}
	// Torn faults fire only through Torn, never through Hit.
	if err := p.Hit(); err != nil {
		t.Fatalf("Hit on torn fault = %v", err)
	}
	n, torn := p.Torn(100)
	if !torn || n != 50 {
		t.Fatalf("Torn(100) = (%d,%v), want (50,true)", n, torn)
	}
	if n, _ := p.Torn(101); n >= 101 {
		t.Fatalf("torn prefix %d not shorter than frame", n)
	}
	// Hit did not consume a schedule slot: two Torn calls, two fires.
	if got := Fired(p.Name()); got != 2 {
		t.Fatalf("fired = %d, want 2", got)
	}
}

func TestArmUnknownPoint(t *testing.T) {
	t.Cleanup(DisarmAll)
	if err := Arm("test.never-registered-xyz", Fault{Kind: Error}); err == nil {
		t.Fatal("Arm of unknown point succeeded")
	}
}

func TestRearmResetsSchedule(t *testing.T) {
	p := pt(t, "rearm")
	if err := Arm(p.Name(), Fault{Kind: Error, Times: 1}); err != nil {
		t.Fatal(err)
	}
	p.Hit()
	if p.Hit() != nil {
		t.Fatal("Times=1 fault fired twice")
	}
	if err := Arm(p.Name(), Fault{Kind: Error, Times: 1}); err != nil {
		t.Fatal(err)
	}
	if p.Hit() == nil {
		t.Fatal("re-armed fault did not fire")
	}
}

func TestArmSpec(t *testing.T) {
	p := pt(t, "spec")
	if err := ArmSpec(p.Name() + "=delay:5ms@after=1@times=1"); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	p.Hit() // skipped (after=1)
	if d := time.Since(start); d > 3*time.Millisecond {
		t.Fatalf("first hit should not delay, took %v", d)
	}
	start = time.Now()
	p.Hit()
	if d := time.Since(start); d < 4*time.Millisecond {
		t.Fatalf("second hit should delay 5ms, took %v", d)
	}

	if err := ArmSpec(p.Name() + "=error:injected msg"); err != nil {
		t.Fatal(err)
	}
	if err := p.Hit(); err == nil || !strings.Contains(err.Error(), "injected msg") {
		t.Fatalf("error spec Hit = %v", err)
	}

	if err := ArmSpec(p.Name() + "=torn@every=2"); err != nil {
		t.Fatal(err)
	}
	if _, torn := p.Torn(10); !torn {
		t.Fatal("torn spec did not fire")
	}
	if _, torn := p.Torn(10); torn {
		t.Fatal("every=2 fired on consecutive hits")
	}

	for _, bad := range []string{
		"", "=crash", p.Name(), p.Name() + "=", p.Name() + "=what",
		p.Name() + "=delay:notadur", p.Name() + "=crash@bogus=1", p.Name() + "=crash@after=x",
		"test.unregistered-spec=crash",
	} {
		if err := ArmSpec(bad); err == nil {
			t.Fatalf("ArmSpec(%q) succeeded", bad)
		}
	}
}

func TestArmSpecsCSV(t *testing.T) {
	a, b := pt(t, "csv-a"), pt(t, "csv-b")
	if err := ArmSpecs(a.Name() + "=error, " + b.Name() + "=torn"); err != nil {
		t.Fatal(err)
	}
	if a.Hit() == nil {
		t.Fatal("first spec not armed")
	}
	if _, torn := b.Torn(8); !torn {
		t.Fatal("second spec not armed")
	}
	if err := ArmSpecs(""); err != nil {
		t.Fatal("empty csv should be a no-op")
	}
}

func TestSpecCrashUsesCrashAction(t *testing.T) {
	p := pt(t, "spec-crash")
	ran := false
	SetCrashAction(func() { ran = true })
	t.Cleanup(func() { SetCrashAction(func() {}) })
	if err := ArmSpec(p.Name() + "=crash"); err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if _, ok := AsCrash(recover()); !ok {
				t.Fatal("expected CrashPanic")
			}
		}()
		p.Hit()
	}()
	if !ran {
		t.Fatal("SetCrashAction action did not run")
	}
}

// TestConcurrentHits exercises the armed hot path from many goroutines so the
// race detector can see the schedule counters; with Every=2 exactly half the
// hits fire.
func TestConcurrentHits(t *testing.T) {
	p := pt(t, "concurrent")
	if err := Arm(p.Name(), Fault{Kind: Error, Every: 2}); err != nil {
		t.Fatal(err)
	}
	const goroutines, per = 8, 1000
	var wg sync.WaitGroup
	errs := make([]int, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if p.Hit() != nil {
					errs[g]++
				}
			}
		}(g)
	}
	wg.Wait()
	total := 0
	for _, n := range errs {
		total += n
	}
	if want := goroutines * per / 2; total != want {
		t.Fatalf("fired %d times, want %d", total, want)
	}
}

func TestNamesSortedAndComplete(t *testing.T) {
	p := pt(t, "zz-names")
	names := Names()
	found := false
	for i, n := range names {
		if i > 0 && names[i-1] > n {
			t.Fatalf("Names not sorted: %q after %q", n, names[i-1])
		}
		if n == p.Name() {
			found = true
		}
	}
	if !found {
		t.Fatalf("Names missing %q", p.Name())
	}
}
