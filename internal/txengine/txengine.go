// Package txengine unifies the repository's transactional systems behind a
// single Engine abstraction: one name-keyed registry of backends (Medley,
// txMontage over one device or several — see medley.go —, OneFile, POneFile,
// TDSL, LFTT, Boost and the untransformed Original baseline), each exposing
// per-worker transaction handles and transactional map factories. The
// benchmark harness (internal/bench), the TPC-C workload (internal/tpcc), and
// the CLI tools all consume engines through this package, so a new backend
// registered here runs every workload for free.
//
// # Model
//
// An Engine owns whatever shared state its system needs (a Medley
// TxManager, a OneFile STM, a TDSL version clock, ...). Workers obtain a Tx
// handle, one per goroutine, and execute transactions with
//
//	err := tx.Run(func() error {
//	    v, _ := m.Get(tx, k)
//	    m.Put(tx, k, v+1)
//	    return nil
//	})
//
// Run retries internally on conflict aborts; any other error from the
// closure aborts the transaction once and passes through to the caller
// (the business-abort idiom — see ErrBusinessAbort and Tx.Abort).
//
// Map operations invoked on a Tx that is not inside Run execute standalone,
// as single auto-committed operations.
//
// # Capabilities
//
// Engines differ in what they can express; Caps declares it. LFTT supports
// only static transactions (the op list is buffered during Run and executed
// atomically at the end, so reads inside Run return zero values), which is
// why it carries CapTx but not CapDynamicTx and cannot run TPC-C. The
// Original baseline supports no transactions at all (CapNoTx only).
package txengine

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"medley/internal/core"
	"medley/internal/montage"
	"medley/internal/pnvm"
)

// Caps declares what an engine supports.
type Caps uint32

const (
	// CapTx: Run executes closure transactions atomically.
	CapTx Caps = 1 << iota
	// CapDynamicTx: reads inside Run return real values, so transaction
	// logic may branch on them (required by TPC-C). Absent on LFTT, whose
	// transactions are static.
	CapDynamicTx
	// CapNoTx: NoTx runs operations genuinely uninstrumented (the TxOff
	// and Original modes of the paper's Figure 10). Engines without it
	// fall back to wrapping NoTx bodies in a transaction.
	CapNoTx
	// CapHashMap: NewUintMap/NewRowMap accept KindHash.
	CapHashMap
	// CapSkipMap: NewUintMap/NewRowMap accept KindSkip.
	CapSkipMap
	// CapRowMaps: NewRowMap is available (any-valued tables for TPC-C).
	CapRowMaps
	// CapQueue: NewUintQueue is available. Queues are the abstraction the
	// paper uses to separate NBTC from boosting (no inverse operations) and
	// LFTT (no critical "key" nodes), so only Medley-family engines and the
	// untransformed Original baseline carry it.
	CapQueue
	// CapSnapshot: the engine stamps committed transactions with commit
	// timestamps, so SnapshotRead(tx, fn) serves read-only transactions from
	// a consistent versioned cut — validation-free, never aborting, never
	// restarting (see snapshot.go). Carried by the Medley family; engines
	// without versions gate out exactly like CapQueue.
	CapSnapshot
)

// Has reports whether c contains every capability in want.
func (c Caps) Has(want Caps) bool { return c&want == want }

// MapKind selects the shape of a transactional map.
type MapKind uint8

const (
	// KindHash is a hash table (buckets sized by MapSpec.Buckets).
	KindHash MapKind = iota
	// KindSkip is an ordered skiplist.
	KindSkip
)

func (k MapKind) String() string {
	if k == KindHash {
		return "hash"
	}
	return "skip"
}

// MapSpec configures one map created on an engine.
type MapSpec struct {
	Kind    MapKind
	Buckets int // hash bucket / lock-shard count hint (0: engine default)
	Stripes int // partition count for striped engines (0: engine default)
}

// Config carries engine-construction parameters. Engines ignore fields they
// do not need.
type Config struct {
	// Latencies drives the simulated NVM device of persistent engines
	// (txMontage, POneFile). The zero value costs nothing.
	Latencies pnvm.Latencies
	// Devices, if non-empty, are the simulated NVM devices persistent
	// engines attach to instead of constructing their own from Latencies.
	// ponefile takes exactly one; txmontage takes its device count of them
	// (Shards, or len(Devices) when Shards is 0), index-aligned with the
	// order its Devices() method reports. Recovery flows use this to crash a
	// device fleet and rebuild an engine on the survivors.
	Devices []*pnvm.Device
	// EpochLen, if positive, runs txMontage's epoch advancer at this period,
	// from the first map the engine builds or recovers (so devices
	// reattached for recovery see no fresh-clock marker before it); Close
	// stops it.
	EpochLen time.Duration
	// RowCodec encodes row values into NVM payload bytes; required by
	// txMontage row maps (TPC-C), unused elsewhere.
	RowCodec montage.Codec[any]
	// LockShards bounds Boost's semantic-lock tables (0: default).
	LockShards int
	// Shards is txmontage's device count (0: len(Devices), or one device
	// when Devices is empty): each map is still one index, and each key's
	// payloads go to the device it hash-routes to. Other engines ignore it.
	// Validated centrally by every registry construction path — see
	// Validate.
	Shards int
}

// MaxShards bounds Config.Shards: a larger count is almost certainly a typo
// and would build that many devices.
const MaxShards = 1024

// Validate rejects malformed configurations with a clear error. Register
// wraps every builder with it, so all construction paths (Build, bench,
// tpcc, workload, the CLIs) share one validation point.
func (c Config) Validate() error {
	if c.Shards < 0 {
		return fmt.Errorf("txengine: Config.Shards must be >= 1 (got %d); 0 means one device", c.Shards)
	}
	if c.Shards > MaxShards {
		return fmt.Errorf("txengine: Config.Shards %d exceeds MaxShards %d (that many devices is almost certainly unintended)", c.Shards, MaxShards)
	}
	return nil
}

// ErrBusinessAbort is the no-retry abort returned by Tx.Abort: Run passes it
// through to the caller instead of retrying, after rolling the transaction
// back. Workload harnesses treat it as deliberately completed work.
var ErrBusinessAbort = errors.New("txengine: business abort")

// ErrUnsupported reports a map kind or transaction shape an engine cannot
// provide; check Caps before constructing.
var ErrUnsupported = errors.New("txengine: unsupported")

// Tx is a per-worker transaction handle. Not goroutine-safe: one per
// goroutine, like core.Session.
type Tx interface {
	// Run executes fn as one transaction, retrying internally (with
	// backoff) whenever it aborts due to a conflict. A non-nil error from
	// fn — including ErrBusinessAbort from Abort — rolls back once and is
	// returned without retry; so is ErrBusinessAbort when fn called Abort
	// and returned nil.
	Run(fn func() error) error
	// RunRead executes fn as a read-only transaction, retried until it
	// observes a consistent snapshot. Engines with cheaper read-only
	// protocols (OneFile) exploit it; others delegate to Run.
	RunRead(fn func())
	// NoTx executes fn's operations outside any transaction where the
	// engine supports that (CapNoTx); otherwise it wraps fn in Run.
	NoTx(fn func())
	// Abort dooms the current transaction for business reasons, rolls back
	// its effects, and returns ErrBusinessAbort for fn to propagate.
	Abort() error
}

// Map is a transactional map from uint64 keys to V, bound to the engine
// that created it. Operations must be passed the worker's own Tx; called
// outside Run they execute as standalone auto-committed operations.
//
// The key ^uint64(0) (2^64-1) is reserved across all engines for engine
// metadata: persistent montage-backed engines store their durable frontier
// markers under it (pnvm.MarkerKey) and panic on an attempt to bind
// it. Portable callers must keep user keys below it.
//
// On engines without CapDynamicTx, in-transaction return values are
// undefined (zero): the operation is only recorded for atomic execution.
type Map[V any] interface {
	// Get returns the value bound to k, if any.
	Get(tx Tx, k uint64) (V, bool)
	// Put binds k to v, returning the previous value if k was present.
	Put(tx Tx, k uint64, v V) (V, bool)
	// Insert adds k→v only if absent, reporting whether insertion happened.
	Insert(tx Tx, k uint64, v V) bool
	// Remove deletes k, returning its value if present.
	Remove(tx Tx, k uint64) (V, bool)
}

// Queue is a transactional FIFO queue bound to the engine that created it.
// Like Map, operations take the worker's own Tx and execute standalone when
// called outside Run.
type Queue[V any] interface {
	// Enqueue appends v.
	Enqueue(tx Tx, v V)
	// Dequeue removes and returns the oldest element; ok is false if the
	// queue is empty.
	Dequeue(tx Tx) (V, bool)
}

// Engine is one transactional system.
type Engine interface {
	// Name is the display name ("Medley", "txMontage", ...).
	Name() string
	// Caps declares what the engine supports.
	Caps() Caps
	// NewUintMap creates a uint64-valued transactional map (the
	// microbenchmark shape).
	NewUintMap(spec MapSpec) (Map[uint64], error)
	// NewRowMap creates an any-valued transactional map (the table shape;
	// requires CapRowMaps).
	NewRowMap(spec MapSpec) (Map[any], error)
	// NewUintQueue creates a uint64-valued transactional FIFO queue
	// (requires CapQueue).
	NewUintQueue() (Queue[uint64], error)
	// NewWorker returns a transaction handle for one goroutine.
	NewWorker(tid int) Tx
	// Stats snapshots the engine's cumulative transaction outcomes.
	Stats() Stats
	// Close releases background resources (epoch advancers etc.).
	Close()
}

// Persister is the optional interface of engines backed by simulated NVM
// devices (txMontage, POneFile). Recovery flows drive the crash/recover
// cycle through it. The contract is multi-device: POneFile reports one
// device and txMontage its device count. Engines whose type carries the
// methods but whose instance is transient (Medley, OneFile) return nil
// Devices; callers must check.
type Persister interface {
	// Devices returns the engine's simulated NVM devices (length 1 for
	// single-device engines), or nil when the instance is transient. The
	// order is stable and matches the dump order RecoverUintMap expects.
	Devices() []*pnvm.Device
	// Sync makes everything committed so far durable on every device at a
	// mutually consistent cut: a coordinated epoch-boundary sync for the
	// montage family (all devices advanced together), a no-op for eagerly
	// persisting engines.
	Sync()
	// RecoverUintMap rebuilds one logical uint64 map from the post-crash
	// dumps of every device (pnvm.Device.Recover output, index-aligned
	// with Devices — see pnvm.DumpAll) on this — freshly constructed —
	// engine. Every engine recovers through the one pipeline,
	// pnvm.RecoverDomain: the dumps are merged at the domain's cut (state
	// some devices persisted beyond it is discarded, so no transaction is
	// recovered torn), the media is scrubbed down to the live records plus
	// one marker per device, and the engine resumes past the cut. A dump
	// count that does not match the device count (txmontage: the device
	// count the state was written under) and a failed marker write
	// are returned as errors; recovery can then be rerun, as it can after a
	// crash inside it.
	RecoverUintMap(dumps [][]pnvm.Record, spec MapSpec) (Map[uint64], error)
}

// HintKeys pre-declares map keys the worker's next Run will touch, on the
// Medley family; on other engines it is a no-op, so portable workload code
// can hint unconditionally. A declaration of two to latchMaxKeys distinct
// keys latches those keys' stripes (see latch.go), so declared transactions
// on the same hot keys wait for each other instead of aborting each other;
// one key has nothing to wait behind, and more than latchMaxKeys run
// unlatched. Successive HintKeys calls before a Run accumulate into one
// declaration; the next Run consumes it whole. Hinting inside Run is a
// no-op. A wrong declaration is safe: latches only schedule, and an
// operation on an undeclared key simply runs (Stats.FootprintHits counts the
// declarations of two keys or more).
func HintKeys(tx Tx, keys ...uint64) {
	t, ok := tx.(*sessionTx)
	if !ok || t.inRun {
		return
	}
	for _, k := range keys {
		t.decl.add(k)
	}
}

// Builder is one registry entry.
type Builder struct {
	// Key is the registry name (lowercase; what -systems flags accept).
	Key string
	// Caps mirrors the built engine's capabilities, so callers can select
	// backends without constructing them.
	Caps Caps
	// Doc is a one-line description for CLI help and the README matrix.
	Doc string
	// Slow marks engines impractically slow at default benchmark durations
	// (eager per-write persistence); default workload series exclude them,
	// explicit -systems selection still works.
	Slow bool
	// New constructs the engine.
	New func(cfg Config) (Engine, error)
}

var registry []Builder

// Register adds a builder to the registry. Registration order is
// presentation order (Builders, Names). Duplicate keys panic. The builder's
// New is wrapped with Config.Validate, so every construction path shares
// one validation point.
func Register(b Builder) {
	key := strings.ToLower(b.Key)
	for _, have := range registry {
		if have.Key == key {
			panic("txengine: duplicate engine " + key)
		}
	}
	b.Key = key
	inner := b.New
	b.New = func(cfg Config) (Engine, error) {
		if err := cfg.Validate(); err != nil {
			return nil, err
		}
		return inner(cfg)
	}
	registry = append(registry, b)
}

// aliases are names Lookup and Build accept for an engine Builders and
// Names list under another. Both exist only because the repository
// benchmark (benchmark/) builds them by name, with Config{Shards: 4}, and
// both go when it is next refreshed: medley-sharded is medley, which has no
// device to spread, and txmontage-sharded is txmontage, which takes its
// device count from Config.
var aliases = map[string]string{"medley-sharded": "medley", "txmontage-sharded": "txmontage"}

// Lookup returns the builder registered under name (case-insensitive), or
// under the name it is an alias of.
func Lookup(name string) (Builder, bool) {
	name = strings.ToLower(name)
	if to, ok := aliases[name]; ok {
		name = to
	}
	for _, b := range registry {
		if b.Key == name {
			return b, true
		}
	}
	return Builder{}, false
}

// Build constructs the named engine.
func Build(name string, cfg Config) (Engine, error) {
	b, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("txengine: unknown engine %q (have %s)", name, strings.Join(Names(), ", "))
	}
	return b.New(cfg)
}

// Builders returns the registry in registration order.
func Builders() []Builder {
	out := make([]Builder, len(registry))
	copy(out, registry)
	return out
}

// Names returns the registered keys in registration order.
func Names() []string {
	out := make([]string, len(registry))
	for i, b := range registry {
		out[i] = b.Key
	}
	return out
}

// Builtin engines, in the paper's presentation order. A single init keeps
// the ordering independent of file names.
func init() {
	Register(Builder{Key: "medley", Caps: medleyCaps, Doc: "Medley NBTC transactional maps (the paper's system)",
		New: func(cfg Config) (Engine, error) { return newMedleyEngine(cfg, false) }})
	Register(Builder{Key: "txmontage", Caps: medleyCaps, Doc: "Medley + nbMontage epoch-based periodic persistence over N devices on one epoch clock",
		New: func(cfg Config) (Engine, error) { return newMedleyEngine(cfg, true) }})
	Register(Builder{Key: "onefile", Caps: onefileCaps, Doc: "OneFile-lite STM (transient)", New: newOneFileEngine})
	Register(Builder{Key: "ponefile", Caps: onefileCaps, Doc: "OneFile-lite with eager per-write persistence", Slow: true, New: newPOneFileEngine})
	Register(Builder{Key: "tdsl", Caps: tdslCaps, Doc: "TDSL-lite striped transactional skiplists", New: newTDSLEngine})
	Register(Builder{Key: "lftt", Caps: lfttCaps, Doc: "LFTT-style static transactions over a skiplist", New: newLFTTEngine})
	Register(Builder{Key: "boost", Caps: boostCaps, Doc: "transactional boosting over a lock-based map", New: newBoostEngine})
	Register(Builder{Key: "original", Caps: originalCaps, Doc: "untransformed Fraser skiplist (no transactions)", New: newOriginalEngine})
}

// backoff is per-worker state for core.Backoff, the shared randomized
// exponential backoff that prevents livelock among mutually aborting
// transactions.
type backoff struct{ rng uint64 }

func (b *backoff) wait(attempt int) { core.Backoff(attempt, &b.rng) }
