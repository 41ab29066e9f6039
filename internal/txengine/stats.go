package txengine

import (
	"sync/atomic"

	"medley/internal/metrics"
)

// Stats is a uniform snapshot of an engine's transaction outcomes, counted
// at the adapter layer so that every backend reports the same events with
// the same meaning regardless of where its retry loop lives:
//
//   - Commits: Run/RunRead calls that completed successfully (including
//     transactions with no operations).
//   - Aborts: transaction attempts that did not commit — conflict aborts
//     that were retried plus business aborts that were passed through.
//   - Retries: re-executions after a conflict abort (always ≤ Aborts;
//     the difference is the business aborts).
//   - Fallbacks: NoTx bodies the engine could not run uninstrumented and
//     wrapped in a transaction instead (engines without CapNoTx).
//   - CrossShardRestarts: always 0, and hidden from printers. A sharded
//     engine used to re-execute an attempt that touched a shard outside its
//     known footprint; no engine routes an operation any more. The field
//     stays only because benchmark/serve.go reads it.
//   - FootprintHits: Runs whose HintKeys declaration named two distinct keys
//     or more, latched or (past latchMaxKeys) not. At most one per Run;
//     undeclared Runs and one-key declarations do not move it.
//   - FootprintMisses: always 0, and hidden from printers. It counted
//     declarations an operation escaped, which took tracking the shards each
//     operation touched; nothing tracks them. The field stays only because
//     benchmark/serve.go reads it.
//   - LatchWaits: key latches a latched attempt had to queue
//     for because another latched transaction held them (see latch.go). A
//     high rate relative to Commits means declared footprints overlap on
//     hot keys — traffic is pipelining through the latch FIFO rather than
//     aborting, which is the latch layer doing its job.
//   - LatchFallbacks: always 0, and hidden from printers, for the same reason
//     as FootprintMisses: it counted attempts that came to span a second
//     shard without latches. The field stays only because benchmark/serve.go
//     reads it.
//   - SnapshotReads: SnapshotRead transactions served from the MVCC version
//     tier (see snapshot.go). Each also counts as a Commit — a snapshot is
//     a committed read-only transaction — and by construction contributes
//     zero Aborts and zero Retries. Zero on engines without CapSnapshot.
//   - SnapshotStale: SnapshotReads whose pinned cut trailed the newest
//     drawn commit timestamp at begin time (a writer was still in flight).
//     The snapshot is still consistent — just not the absolute freshest
//     state; a persistently high ratio means long-running writers are
//     holding the seal back.
//
// Standalone map operations called outside Run count here only on engines
// that implement them as one-shot transactions (OneFile, TDSL, LFTT). Boost
// runs them uninstrumented, and so does Medley until its snapshot tier
// starts; from then on a standalone write is a one-op transaction on the
// worker's session (snapMap.write), which core.Stats counts and Stats does
// not.
//
// Each worker bumps a cell of its own (metrics.Cells); Engine.Stats sums the
// engine's cells. The metric tags are the printers' column names.
type Stats struct {
	Commits            uint64
	Aborts             uint64
	Retries            uint64
	Fallbacks          uint64
	CrossShardRestarts uint64 `metric:"-"`
	FootprintHits      uint64 `metric:"fphit"`
	FootprintMisses    uint64 `metric:"-"`
	LatchWaits         uint64 `metric:"latchw"`
	LatchFallbacks     uint64 `metric:"-"`
	SnapshotReads      uint64 `metric:"snapread"`
	SnapshotStale      uint64 `metric:"snapstale"`
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) { metrics.Add(s, o) }

// Delta returns the counters accumulated since the prev snapshot.
func (s Stats) Delta(prev Stats) Stats { return metrics.Sub(s, prev) }

func (s Stats) String() string { return metrics.Format(s) }

// countSnapshotN accounts n logical snapshot-read transactions served from
// one pinned cut: each counts as its own commit (a snapshot is a committed
// read-only transaction that by construction cannot abort or retry) and
// snapshot read, staleness included — the cut is shared, the transactions
// are not.
func (s *Stats) countSnapshotN(stale bool, n uint64) {
	atomic.AddUint64(&s.Commits, n)
	atomic.AddUint64(&s.SnapshotReads, n)
	if stale {
		atomic.AddUint64(&s.SnapshotStale, n)
	}
}

// countRun wraps an engine's native closure-retrying Run (anything with the
// shape "execute fn, re-executing it after conflict aborts") and accounts
// one commit or terminal abort plus one abort+retry per extra execution.
// Engines whose retry loop does not re-execute fn (LFTT's static
// transactions) count inside their own loop instead.
func (s *Stats) countRun(run func(func() error) error, fn func() error) error {
	execs := 0
	err := run(func() error { execs++; return fn() })
	s.countAttempts(execs, err)
	return err
}

// countAttempts accounts a finished Run that executed its body execs times
// and ended with err: one commit or terminal abort, plus one abort and one
// retry per earlier execution. Engines that own their retry loop (the Medley
// family) call it directly with the loop's own count.
func (s *Stats) countAttempts(execs int, err error) {
	if execs > 1 {
		atomic.AddUint64(&s.Retries, uint64(execs-1))
		atomic.AddUint64(&s.Aborts, uint64(execs-1))
	}
	if err == nil {
		atomic.AddUint64(&s.Commits, 1)
	} else {
		atomic.AddUint64(&s.Aborts, 1)
	}
}

// fallback is NoTx on a handle that cannot run fn uninstrumented: fn runs as
// a transaction through run, and counts as one fallback.
func (s *Stats) fallback(run func(func() error) error, fn func()) {
	atomic.AddUint64(&s.Fallbacks, 1)
	_ = run(func() error { fn(); return nil })
}

// countRead is countRun for read-only paths that retry by re-executing fn
// until a consistent snapshot is observed; they always commit.
func (s *Stats) countRead(runRead func(func()), fn func()) {
	execs := 0
	runRead(func() { execs++; fn() })
	s.countAttempts(execs, nil)
}
