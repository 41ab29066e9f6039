// Package workload is a scenario-driven benchmark subsystem over the
// txengine registry. Where internal/bench regenerates the paper's
// single-map microbenchmark figures, the scenarios here exercise the
// transactional *composition* patterns the paper argues about — operations
// spanning different abstractions (queue + map) and different instances
// (map + map) in one atomic transaction — and they run on every registered
// backend whose capabilities allow, so each engine becomes a comparable
// datapoint.
//
// Scenarios:
//
//   - workqueue: transactional dequeue-and-claim over a FIFO queue plus a
//     job-state map (the composition boosting and LFTT cannot express).
//   - cache: a Zipfian read-mostly mix over a cache map backed by a store
//     map, with transactional invalidate-on-update and refill-on-miss.
//   - transfer: atomic value transfers between two maps (checking/savings)
//     at configurable contention.
//
// Every Result carries the engine's uniform txengine.Stats delta for the
// measured interval, plus scenario-specific Aux counters including the
// post-run invariant checks (lost jobs, stale cache entries, balance
// imbalance) that conformance tests assert on.
package workload

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"medley/internal/metrics"
	"medley/internal/pnvm"
	"medley/internal/txengine"
)

// Config sizes and drives one scenario run. The zero value is usable:
// GOMAXPROCS threads, a short measurement, laptop-sized structures.
type Config struct {
	Threads int           // worker goroutines (0: GOMAXPROCS)
	Dur     time.Duration // measurement duration (0: 1s)
	Scale   float64       // structure-size scale (0: 1.0; sizes below)
	Seed    uint64        // rng seed base (0: fixed default)

	// Latencies and EpochLen configure persistent engines, as in
	// internal/bench.
	Latencies pnvm.Latencies
	EpochLen  time.Duration

	// Shards is txmontage's device count (0: one device); other engines
	// ignore it. It passes through to txengine.Config.Shards.
	Shards int

	// ZipfS is the Zipf skew exponent (>1.0). Higher values concentrate
	// traffic on fewer hot keys. The cache scenario always skews (0: 1.2);
	// the transfer scenario draws accounts uniformly unless ZipfS is set,
	// making it the contention knob for latch measurements.
	ZipfS float64
	// ReadPct is the cache scenario's lookup percentage, 0–100 (0: 90;
	// negative: an all-update mix). The remainder are invalidating updates.
	ReadPct int
	// Accounts is the transfer scenario's account count (0: 1024 scaled by
	// Scale). Fewer accounts mean hotter contention.
	Accounts int

	// Snapshot serves the cache scenario's read-only probes through
	// txengine.SnapshotRead — validation-free MVCC reads at a consistent
	// cut that never abort or restart — instead of OCC RunRead
	// transactions. Requires an engine with txengine.CapSnapshot (Run
	// rejects others, like CanRun gates). The A/B control for measuring
	// what read validation costs a read-mostly mix.
	Snapshot bool

	// Latency enables latency percentiles (Result.P50 and P99), at the
	// cost of two clock reads per iteration. One iteration is one logical
	// scenario transaction; on some paths (a cache miss's probe + refill)
	// that comprises more than one engine transaction.
	Latency bool

	// Warmup runs the workers for this long before measurement begins:
	// iterations completed during the ramp-up are not counted in Txns,
	// Throughput, Stats, or the latency histograms, so committed numbers
	// stop including JIT/cache/footprint-learning warm-up noise. The
	// scenario-specific Aux counters still span the whole run — they feed
	// the post-run invariant audits, which must see everything. Zero keeps
	// the old measure-from-start behavior.
	Warmup time.Duration

	// NoHints disables the footprint hints scenarios pass to the engine
	// (txengine.HintKeys). Hints let a transaction that knows its keys up
	// front — a transfer knows both accounts — queue on its keys' latches on
	// the Medley family; disabling them measures the undeclared path (no
	// latches). No-ops on other engines either way.
	NoHints bool
}

// Validate rejects configurations that would otherwise be silently
// reinterpreted. The one current case: a Zipf exponent in (0, 1] — Go's
// rand.NewZipf requires s > 1, so the transfer scenario used to fall back
// to uniform draws and the cache scenario to its default skew without a
// word, which silently invalidates any measurement sweep over -zipf.
func (c Config) Validate() error {
	if c.ZipfS > 0 && c.ZipfS <= 1 {
		return fmt.Errorf("workload: ZipfS must be > 1.0 (got %g); the Zipf distribution is undefined at s <= 1 and draws would silently fall back", c.ZipfS)
	}
	return nil
}

func (c Config) threads() int {
	if c.Threads > 0 {
		return c.Threads
	}
	return runtime.GOMAXPROCS(0)
}

func (c Config) dur() time.Duration {
	if c.Dur > 0 {
		return c.Dur
	}
	return time.Second
}

func (c Config) scale() float64 {
	if c.Scale > 0 {
		return c.Scale
	}
	return 1.0
}

func (c Config) seed() uint64 {
	if c.Seed != 0 {
		return c.Seed
	}
	return 0x9e3779b97f4a7c15
}

// scaled returns base scaled by cfg.Scale, floored at min.
func (c Config) scaled(base, min int) int {
	n := int(float64(base) * c.scale())
	if n < min {
		return min
	}
	return n
}

func (c Config) zipfS() float64 {
	if c.ZipfS > 1 {
		return c.ZipfS
	}
	return 1.2
}

func (c Config) readPct() int {
	switch {
	case c.ReadPct < 0:
		return 0
	case c.ReadPct == 0:
		return 90
	case c.ReadPct > 100:
		return 100
	}
	return c.ReadPct
}

func (c Config) accounts() uint64 {
	if c.Accounts > 0 {
		return uint64(c.Accounts)
	}
	return uint64(c.scaled(1024, 8))
}

// AuxCount is one scenario-specific counter of a Result.
type AuxCount struct {
	Name string
	N    uint64
}

// Result is one measured scenario point.
type Result struct {
	Workload   string
	System     string
	Threads    int
	Txns       uint64 // completed application transactions
	Duration   time.Duration
	Throughput float64        // transactions per second
	Stats      txengine.Stats // engine stats delta over the measured run
	P50, P99   time.Duration  // per-iteration latency percentiles (see Config.Latency)
	Aux        []AuxCount     // scenario counters + invariant checks
}

// attachLatency fills the percentile fields from a measured histogram.
func (r *Result) attachLatency(h *metrics.Hist) {
	if h != nil && h.Count() > 0 {
		r.P50 = h.Percentile(0.50)
		r.P99 = h.Percentile(0.99)
	}
}

// AuxN returns the named Aux counter (0 if absent).
func (r Result) AuxN(name string) uint64 {
	for _, a := range r.Aux {
		if a.Name == name {
			return a.N
		}
	}
	return 0
}

// AuxString renders the Aux counters for reports.
func (r Result) AuxString() string {
	s := ""
	for i, a := range r.Aux {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%s=%d", a.Name, a.N)
	}
	return s
}

// Scenario is one registered workload.
type Scenario struct {
	// Key is the name -workload flags accept.
	Key string
	// Doc is a one-line description for CLI help.
	Doc string
	// CanRun reports whether the engine can host this scenario.
	CanRun func(b txengine.Builder) error
	// run executes the scenario on a freshly built engine.
	run func(eng txengine.Engine, caps txengine.Caps, cfg Config) (Result, error)
}

var scenarios = []Scenario{workqueueScenario, cacheScenario, transferScenario}

// Scenarios returns the registered scenarios in presentation order.
func Scenarios() []Scenario {
	out := make([]Scenario, len(scenarios))
	copy(out, scenarios)
	return out
}

// Lookup returns the scenario registered under key.
func Lookup(key string) (Scenario, bool) {
	for _, s := range scenarios {
		if s.Key == key {
			return s, true
		}
	}
	return Scenario{}, false
}

// Names returns the registered scenario keys.
func Names() []string {
	out := make([]string, len(scenarios))
	for i, s := range scenarios {
		out[i] = s.Key
	}
	return out
}

// Engines returns the default engine series for a scenario: every capable
// registry entry not marked Slow (explicit selection still runs those).
func Engines(scenario string) []string {
	sc, ok := Lookup(scenario)
	if !ok {
		return nil
	}
	var out []string
	for _, b := range txengine.Builders() {
		if b.Slow {
			continue
		}
		if sc.CanRun(b) == nil {
			out = append(out, b.Key)
		}
	}
	return out
}

// Run builds the named engine and executes the named scenario on it.
func Run(scenario, engine string, cfg Config) (Result, error) {
	sc, ok := Lookup(scenario)
	if !ok {
		return Result{}, fmt.Errorf("workload: unknown scenario %q (have %v)", scenario, Names())
	}
	b, ok := txengine.Lookup(engine)
	if !ok {
		return Result{}, fmt.Errorf("workload: unknown engine %q", engine)
	}
	if err := sc.CanRun(b); err != nil {
		return Result{}, err
	}
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if cfg.Snapshot && !b.Caps.Has(txengine.CapSnapshot) {
		return Result{}, fmt.Errorf("workload: engine %q cannot serve snapshot reads (needs CapSnapshot): %w", engine, txengine.ErrUnsupported)
	}
	eng, err := b.New(txengine.Config{Latencies: cfg.Latencies, EpochLen: cfg.EpochLen, Shards: cfg.Shards})
	if err != nil {
		return Result{}, err
	}
	defer eng.Close()
	res, err := sc.run(eng, b.Caps, cfg)
	if err != nil {
		return Result{}, fmt.Errorf("workload %s on %s: %w", scenario, engine, err)
	}
	res.Workload = scenario
	res.System = eng.Name()
	res.Threads = cfg.threads()
	return res, nil
}

// needDynamicTx is the CanRun gate of scenarios whose transaction logic
// branches on values read inside the transaction.
func needDynamicTx(b txengine.Builder) error {
	if !b.Caps.Has(txengine.CapTx | txengine.CapDynamicTx) {
		return fmt.Errorf("workload: engine %q needs dynamic transactions: %w",
			b.Key, txengine.ErrUnsupported)
	}
	return nil
}

// mapKind picks the map shape an engine supports, preferring hash.
func mapKind(caps txengine.Caps) txengine.MapKind {
	if caps.Has(txengine.CapHashMap) {
		return txengine.KindHash
	}
	return txengine.KindSkip
}

// drive spawns threads workers, each constructed by newWorker (per-worker
// state: tx handle, rng) and then iterated until warmup+dur elapses; it
// returns the transaction count completed inside the measured window, the
// measured wall time, and — when lat is set — a merged per-iteration
// latency histogram (nil otherwise). Each iteration returns the number of
// completed transactions it performed.
//
// When warmup is positive, workers run for that long before measurement
// begins: ramp-up iterations are discarded from the count and the
// histograms. onMeasure, if non-nil, fires once at the start of the
// measured window (with workers already running), so callers can
// re-snapshot engine stats to the same boundary.
func drive(threads int, dur, warmup time.Duration, lat bool, newWorker func(tid int) func() uint64, onMeasure func()) (uint64, time.Duration, *metrics.Hist) {
	var stop atomic.Bool
	var measuring atomic.Bool
	var total atomic.Uint64
	var wg sync.WaitGroup
	var ready, start sync.WaitGroup
	ready.Add(threads)
	start.Add(1)
	hists := make([]*metrics.Hist, threads)
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			iter := newWorker(tid)
			var h *metrics.Hist
			if lat {
				h = &metrics.Hist{}
				hists[tid] = h
			}
			ready.Done()
			start.Wait()
			n := uint64(0)
			if lat {
				for !stop.Load() {
					t0 := time.Now()
					c := iter()
					// Weight the sample by the iteration's transaction count
					// and skip empty iterations (audit sweeps, lost
					// conflicts): the percentiles are per *transaction*, and
					// an iteration that completed several (or none) would
					// otherwise skew them. Warm-up iterations are discarded
					// whole; one iteration spanning the boundary lands on
					// whichever side its commit did.
					if measuring.Load() {
						if c > 0 {
							h.RecordN(time.Since(t0), c)
						}
						n += c
					}
				}
			} else {
				for !stop.Load() {
					c := iter()
					if measuring.Load() {
						n += c
					}
				}
			}
			total.Add(n)
		}(t)
	}
	ready.Wait()
	// t0 must be taken no later than the measuring flip: a transaction that
	// commits after Store(true) is counted in the measured total, so the
	// elapsed window has to cover it or throughput is inflated.
	var t0 time.Time
	if warmup > 0 {
		start.Done()
		time.Sleep(warmup)
		t0 = time.Now()
		measuring.Store(true)
		if onMeasure != nil {
			onMeasure()
		}
	} else {
		measuring.Store(true)
		if onMeasure != nil {
			onMeasure()
		}
		start.Done()
		t0 = time.Now()
	}
	time.Sleep(dur)
	stop.Store(true)
	wg.Wait()
	el := time.Since(t0)
	if !lat {
		return total.Load(), el, nil
	}
	merged := &metrics.Hist{}
	for _, h := range hists {
		if h != nil {
			merged.Merge(h)
		}
	}
	return total.Load(), el, merged
}
