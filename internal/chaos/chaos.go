// Package chaos is a registry of named crash/fault-injection points threaded
// through the persistence and serving layers. A point is a zero-cost no-op
// until a test (or a -chaos flag) arms it with a Fault; an armed point fires
// on a configurable schedule (skip the first After hits, then every Every-th,
// at most Times times), which lets a sweep land the same fault at every
// instant of a protocol — after the first payload write, between two shards'
// flushes, mid-frame on the wire — instead of sampling one coarse failure.
//
// Fault kinds:
//
//   - Crash: run the fault's Action (typically crashing a pnvm device fleet,
//     so nothing volatile survives) and then panic with a *CrashPanic. The
//     panic models the process dying at that instant; tests recover it at
//     the top of the "run" (AsCrash), abandon the wounded engine exactly as
//     a restart would, and drive recovery from the surviving media.
//   - Delay: run the fault's Action, if any, then sleep, modelling a stall
//     (slow media, scheduling hiccup). A zero delay with an Action is a
//     test's hook at that instant of the protocol.
//   - Error: return an injected error from Point.Hit. Sites without an error
//     channel (e.g. a write-back that returns nothing) ignore it.
//   - Torn: truncation injection for byte-stream sites. Point.Torn(n)
//     reports a prefix length to emit before killing the stream — a torn
//     frame or partial write.
//
// Points are registered by their owning packages at init time (At), so every
// linked binary sees the full catalog via Names. Arming is programmatic
// (Arm) or textual (ArmSpec: "name=kind[:arg][@after=N][@every=N][@times=N]"
// — the shape of txserver's -chaos flag and the MEDLEY_CHAOS env var).
//
// The disarmed fast path is one atomic load of a package-level counter
// shared by all points, so production paths pay nothing measurable for
// carrying their instrumentation.
package chaos

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind selects what an armed fault does when it fires.
type Kind uint8

const (
	// Crash runs Fault.Action, then panics with a *CrashPanic.
	Crash Kind = iota + 1
	// Delay runs Fault.Action, if set, then sleeps Fault.Delay.
	Delay
	// Error makes Point.Hit return Fault.Err.
	Error
	// Torn makes Point.Torn report a truncation prefix (byte-stream sites).
	Torn
)

func (k Kind) String() string {
	switch k {
	case Crash:
		return "crash"
	case Delay:
		return "delay"
	case Error:
		return "error"
	case Torn:
		return "torn"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Fault configures an armed point. The zero schedule (After/Every/Times all
// zero) fires on every hit from the first.
type Fault struct {
	Kind   Kind
	Delay  time.Duration // Delay: how long to sleep
	Err    error         // Error: what Hit returns
	Action func()        // Crash: run before panicking (e.g. crash a device fleet); Delay: run before sleeping
	After  int           // skip the first After hits
	Every  int           // then fire every Every-th eligible hit (0 or 1: every one)
	Times  int           // fire at most Times times (0: unlimited)
}

// CrashPanic is the value a Crash fault panics with. Tests recover it with
// AsCrash at the boundary that models a process restart.
type CrashPanic struct{ Point string }

func (c *CrashPanic) Error() string { return "chaos: crash injected at " + c.Point }

// AsCrash reports whether a recover() result is a chaos crash panic.
func AsCrash(r any) (*CrashPanic, bool) {
	cp, ok := r.(*CrashPanic)
	return cp, ok
}

// armedFault is a Fault plus its firing schedule state.
type armedFault struct {
	Fault
	hits  atomic.Int64
	fired atomic.Int64
}

// due consumes one hit and reports whether the fault fires on it.
func (a *armedFault) due() bool {
	n := a.hits.Add(1) - 1 // 0-based hit index
	if n < int64(a.After) {
		return false
	}
	if a.Every > 1 && (n-int64(a.After))%int64(a.Every) != 0 {
		return false
	}
	f := a.fired.Add(1)
	return a.Times <= 0 || f <= int64(a.Times)
}

func (a *armedFault) firedCount() int {
	f := int(a.fired.Load())
	if a.Times > 0 && f > a.Times {
		f = a.Times
	}
	return f
}

// Point is one named fault site. Obtain with At (typically in a package-level
// var so the site itself is just a method call).
type Point struct {
	name  string
	armed atomic.Pointer[armedFault]
}

// Name returns the point's registered name.
func (p *Point) Name() string { return p.name }

var (
	regMu       sync.Mutex
	registry    = map[string]*Point{}
	armedPoints atomic.Int32 // global disarmed-fast-path gate
	crashAction atomic.Pointer[func()]
)

// At registers (or returns) the named point. Owning packages call it at init
// time; the name is then part of the catalog Names reports.
func At(name string) *Point {
	regMu.Lock()
	defer regMu.Unlock()
	p := registry[name]
	if p == nil {
		p = &Point{name: name}
		registry[name] = p
	}
	return p
}

// Names returns the sorted catalog of registered points.
func Names() []string {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func lookup(name string) *Point {
	regMu.Lock()
	defer regMu.Unlock()
	return registry[name]
}

// Arm arms the named, already-registered point (unknown names error, so a
// typo in a flag is caught instead of silently never firing). Re-arming
// replaces the previous fault and resets the schedule.
func Arm(name string, f Fault) error {
	p := lookup(name)
	if p == nil {
		return fmt.Errorf("chaos: unknown point %q (registered: %s)", name, strings.Join(Names(), ", "))
	}
	switch f.Kind {
	case Crash, Delay, Torn:
	case Error:
		if f.Err == nil {
			f.Err = errors.New("chaos: injected error at " + name)
		}
	default:
		return fmt.Errorf("chaos: point %q armed with invalid kind %v", name, f.Kind)
	}
	if p.armed.Swap(&armedFault{Fault: f}) == nil {
		armedPoints.Add(1)
	}
	return nil
}

// Disarm disarms the named point (no-op when unknown or already disarmed).
func Disarm(name string) {
	if p := lookup(name); p != nil && p.armed.Swap(nil) != nil {
		armedPoints.Add(-1)
	}
}

// DisarmAll disarms every point (test cleanup).
func DisarmAll() {
	regMu.Lock()
	defer regMu.Unlock()
	for _, p := range registry {
		if p.armed.Swap(nil) != nil {
			armedPoints.Add(-1)
		}
	}
}

// Fired reports how many times the named point's current fault has fired
// (0 when unknown or disarmed). A sweep uses it to tell "the fault landed"
// from "this point is not on the exercised path".
func Fired(name string) int {
	p := lookup(name)
	if p == nil {
		return 0
	}
	a := p.armed.Load()
	if a == nil {
		return 0
	}
	return a.firedCount()
}

// AnyArmed reports whether any point is armed.
func AnyArmed() bool { return armedPoints.Load() != 0 }

// Hit is the generic fault site: a no-op unless this point is armed and due.
// Crash faults do not return (they panic); Delay faults sleep and return
// nil; Error faults return the injected error — sites with an error channel
// propagate it as a failure of the instrumented operation, sites without
// one ignore it. Torn faults never fire through Hit (see Torn), so a site
// consulting both never double-counts a hit.
func (p *Point) Hit() error {
	if armedPoints.Load() == 0 {
		return nil
	}
	return p.hit()
}

func (p *Point) hit() error {
	a := p.armed.Load()
	if a == nil || a.Kind == Torn || !a.due() {
		return nil
	}
	switch a.Kind {
	case Crash:
		if a.Action != nil {
			a.Action()
		}
		panic(&CrashPanic{Point: p.name})
	case Delay:
		if a.Action != nil {
			a.Action()
		}
		time.Sleep(a.Delay)
	case Error:
		return a.Err
	}
	return nil
}

// Torn consults the point for a truncation fault over an n-byte write: when
// armed with Kind Torn and due, it returns the prefix length to emit (n/2 —
// guaranteed < n, so the stream really is torn) and true. Non-Torn faults
// never fire through Torn.
func (p *Point) Torn(n int) (int, bool) {
	if armedPoints.Load() == 0 {
		return 0, false
	}
	return p.torn(n)
}

func (p *Point) torn(n int) (int, bool) {
	a := p.armed.Load()
	if a == nil || a.Kind != Torn || !a.due() {
		return 0, false
	}
	return n / 2, true
}

// SetCrashAction registers the process-wide action Crash faults armed from
// textual specs run before panicking — typically crashing the engine's
// device fleet so the "process death" also loses everything volatile.
// Programmatic Arm callers pass Fault.Action directly instead.
func SetCrashAction(fn func()) { crashAction.Store(&fn) }

// ArmSpec arms one point from a textual spec:
//
//	name=crash
//	name=delay:10ms
//	name=error:message text
//	name=torn
//
// with optional @after=N, @every=N, @times=N modifiers appended (so an error
// message must not contain '@'), e.g. "server.frame.write=torn@every=40".
// Crash specs panic without a device crash unless SetCrashAction was called.
func ArmSpec(spec string) error {
	name, rest, ok := strings.Cut(spec, "=")
	if !ok || name == "" || rest == "" {
		return fmt.Errorf("chaos: bad spec %q, want name=kind[:arg][@after=N][@every=N][@times=N]", spec)
	}
	parts := strings.Split(rest, "@")
	kindArg := parts[0]
	var f Fault
	kind, arg, _ := strings.Cut(kindArg, ":")
	switch kind {
	case "crash":
		f.Kind = Crash
		f.Action = func() {
			if fn := crashAction.Load(); fn != nil {
				(*fn)()
			}
		}
	case "delay":
		d, err := time.ParseDuration(arg)
		if err != nil {
			return fmt.Errorf("chaos: bad delay in %q: %w", spec, err)
		}
		f.Kind, f.Delay = Delay, d
	case "error":
		f.Kind = Error
		if arg != "" {
			f.Err = errors.New("chaos: " + arg)
		}
	case "torn":
		f.Kind = Torn
	default:
		return fmt.Errorf("chaos: unknown fault kind %q in %q", kind, spec)
	}
	for _, mod := range parts[1:] {
		k, v, ok := strings.Cut(mod, "=")
		n, err := strconv.Atoi(v)
		if !ok || err != nil || n < 0 {
			return fmt.Errorf("chaos: bad modifier %q in %q", mod, spec)
		}
		switch k {
		case "after":
			f.After = n
		case "every":
			f.Every = n
		case "times":
			f.Times = n
		default:
			return fmt.Errorf("chaos: unknown modifier %q in %q", k, spec)
		}
	}
	return Arm(name, f)
}

// ArmSpecs arms a comma-separated list of specs (the -chaos flag /
// MEDLEY_CHAOS env shape). Empty input is a no-op.
func ArmSpecs(csv string) error {
	if csv == "" {
		return nil
	}
	for _, spec := range strings.Split(csv, ",") {
		if err := ArmSpec(strings.TrimSpace(spec)); err != nil {
			return err
		}
	}
	return nil
}
