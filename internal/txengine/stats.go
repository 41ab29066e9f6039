package txengine

import (
	"fmt"
	"sync/atomic"
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
//   - CrossShardRestarts: always 0. A sharded engine used to re-execute an
//     attempt that touched a shard outside its known footprint; now the
//     operation simply runs, in the one transaction (sharded.go). The field
//     stays only because benchmark/serve.go reads it.
//   - FootprintHits: Runs whose HintKeys/HintQueues declaration spanned
//     several shards and covered every operation of the first attempt, so
//     the Run knew its whole shard set up front. At most one per Run.
//   - FootprintMisses: Runs whose multi-shard declaration proved wrong (an
//     operation of the first attempt escaped it and reached its shard late,
//     under latches that cover the declared keys only). At most one per Run.
//     Hits and misses count declared Runs only: undeclared Runs, and
//     declarations that route to a single shard, move neither.
//   - LatchWaits: key latches a latched cross-shard attempt had to queue
//     for because another latched transaction held them (see latch.go). A
//     high rate relative to Commits means declared footprints overlap on
//     hot keys — traffic is pipelining through the latch FIFO rather than
//     aborting, which is the latch layer doing its job.
//   - LatchFallbacks: attempts that came to span a second shard without
//     latches — no declared keys, or an oversized declaration (>
//     latchMaxKeys keys). Counted once per attempt. Conflicts among them are
//     resolved optimistically (abort, back off, retry) instead of by
//     queueing. Zero on unsharded engines.
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
// Standalone map operations called outside Run count only on engines that
// implement them as one-shot transactions (OneFile, TDSL, LFTT); Medley and
// Boost run them genuinely uninstrumented.
type Stats struct {
	Commits            uint64
	Aborts             uint64
	Retries            uint64
	Fallbacks          uint64
	CrossShardRestarts uint64
	FootprintHits      uint64
	FootprintMisses    uint64
	LatchWaits         uint64
	LatchFallbacks     uint64
	SnapshotReads      uint64
	SnapshotStale      uint64
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.Commits += o.Commits
	s.Aborts += o.Aborts
	s.Retries += o.Retries
	s.Fallbacks += o.Fallbacks
	s.FootprintHits += o.FootprintHits
	s.FootprintMisses += o.FootprintMisses
	s.LatchWaits += o.LatchWaits
	s.LatchFallbacks += o.LatchFallbacks
	s.SnapshotReads += o.SnapshotReads
	s.SnapshotStale += o.SnapshotStale
}

// Delta returns the counters accumulated since the prev snapshot.
func (s Stats) Delta(prev Stats) Stats {
	return Stats{
		Commits:         s.Commits - prev.Commits,
		Aborts:          s.Aborts - prev.Aborts,
		Retries:         s.Retries - prev.Retries,
		Fallbacks:       s.Fallbacks - prev.Fallbacks,
		FootprintHits:   s.FootprintHits - prev.FootprintHits,
		FootprintMisses: s.FootprintMisses - prev.FootprintMisses,
		LatchWaits:      s.LatchWaits - prev.LatchWaits,
		LatchFallbacks:  s.LatchFallbacks - prev.LatchFallbacks,
		SnapshotReads:   s.SnapshotReads - prev.SnapshotReads,
		SnapshotStale:   s.SnapshotStale - prev.SnapshotStale,
	}
}

func (s Stats) String() string {
	return fmt.Sprintf("commits=%d aborts=%d retries=%d fallbacks=%d fphits=%d fpmisses=%d latchw=%d latchfb=%d snapreads=%d snapstale=%d",
		s.Commits, s.Aborts, s.Retries, s.Fallbacks, s.FootprintHits, s.FootprintMisses,
		s.LatchWaits, s.LatchFallbacks, s.SnapshotReads, s.SnapshotStale)
}

// counters is the shared engine-level accumulator behind Engine.Stats.
// Fields are atomic: all of an engine's Tx handles bump the same instance.
type counters struct {
	commits, aborts, retries, fallbacks atomic.Uint64
	fpHits, fpMisses                    atomic.Uint64
	latchWaits, latchFallbacks          atomic.Uint64
	snapReads, snapStale                atomic.Uint64
}

func (c *counters) snapshot() Stats {
	return Stats{
		Commits:         c.commits.Load(),
		Aborts:          c.aborts.Load(),
		Retries:         c.retries.Load(),
		Fallbacks:       c.fallbacks.Load(),
		FootprintHits:   c.fpHits.Load(),
		FootprintMisses: c.fpMisses.Load(),
		LatchWaits:      c.latchWaits.Load(),
		LatchFallbacks:  c.latchFallbacks.Load(),
		SnapshotReads:   c.snapReads.Load(),
		SnapshotStale:   c.snapStale.Load(),
	}
}

// countSnapshotN accounts n logical snapshot-read transactions served from
// one pinned cut: each counts as its own commit (a snapshot is a committed
// read-only transaction that by construction cannot abort or retry) and
// snapshot read, staleness included — the cut is shared, the transactions
// are not.
func (c *counters) countSnapshotN(stale bool, n uint64) {
	c.commits.Add(n)
	c.snapReads.Add(n)
	if stale {
		c.snapStale.Add(n)
	}
}

// countRun wraps an engine's native closure-retrying Run (anything with the
// shape "execute fn, re-executing it after conflict aborts") and accounts
// one commit or terminal abort plus one abort+retry per extra execution.
// Engines whose retry loop does not re-execute fn (LFTT's static
// transactions) count inside their own loop instead.
func (c *counters) countRun(run func(func() error) error, fn func() error) error {
	execs := 0
	err := run(func() error { execs++; return fn() })
	c.countAttempts(execs, err)
	return err
}

// countAttempts accounts a finished Run that executed its body execs times
// and ended with err: one commit or terminal abort, plus one abort and one
// retry per earlier execution. Engines that own their retry loop (Medley,
// the sharded decorator) call it directly with the loop's own count.
func (c *counters) countAttempts(execs int, err error) {
	if execs > 1 {
		c.retries.Add(uint64(execs - 1))
		c.aborts.Add(uint64(execs - 1))
	}
	if err == nil {
		c.commits.Add(1)
	} else {
		c.aborts.Add(1)
	}
}

// countRead is countRun for read-only paths that retry by re-executing fn
// until a consistent snapshot is observed.
func (c *counters) countRead(runRead func(func()), fn func()) {
	execs := 0
	runRead(func() { execs++; fn() })
	c.commits.Add(1)
	if execs > 1 {
		c.retries.Add(uint64(execs - 1))
		c.aborts.Add(uint64(execs - 1))
	}
}
