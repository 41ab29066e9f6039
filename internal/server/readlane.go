package server

import (
	"sync"

	"medley/internal/txengine"
)

// The read fast lane serves read-only work — Gets and all-Read Txn batches —
// from the engine's MVCC snapshot tier instead of running OCC transactions.
// Snapshot reads never validate, never abort, never retry; and because one
// pinned cut can answer any number of read closures, pending reads from many
// connections are combined into a single tier pin.
//
// The combining discipline is flat combining: each connection submits a read
// run — the whole contiguous stretch of reads in its current burst, however
// long — as one job to its assigned stripe; the first submitter to find the
// stripe idle becomes the leader, drains every pending job under one
// SnapshotReadBatch cut, keeps draining while new jobs arrive, then hands
// the stripe back. Followers just enqueue and wait — no per-job engine
// interaction, no token admission. Leadership exclusivity also makes the
// stripe's dedicated engine session safe: only the leader touches it, and
// the mutex hands it off with full ordering.

// readJob is one connection's pending read run. Each connection reuses a
// single job value (it is embedded in proc), so the lane allocates nothing
// per submission. The submitter owns batch/results/minTS before submit and
// after done; the leader owns them in between.
type readJob struct {
	batch   []pendReq    // the read run: OpGets and all-Read OpTxns
	results []ReadResult // one entry per read, in request order
	// minTS is the submitting connection's last write timestamp. If the
	// pinned cut hasn't reached it (a concurrent writer elsewhere holds the
	// seal back), serving would violate read-your-writes: the leader sets
	// fallback instead and the submitter re-executes the run through OCC.
	minTS    uint64
	fallback bool
	done     chan struct{} // buffered(1); leader signals completion
}

// combiner is one read-lane stripe: a flat-combining point with a dedicated
// engine session used only by the current leader.
type combiner struct {
	s  *Server
	tx txengine.Tx

	// The current wakeup, touched only by the leader. Fields rather than
	// locals captured by a closure, and each bound to serve once, so a
	// wakeup allocates nothing.
	jobs   []*readJob
	served uint64
	each   func(i int, cut uint64)

	mu      sync.Mutex
	active  bool       // a leader is draining
	pending []*readJob // jobs awaiting the leader
	scratch []*readJob // spare backing array; ping-pongs with pending
}

// readLane is the set of combiner stripes. Connections are assigned to
// stripes round-robin by accept sequence number: fewer stripes combine
// harder, more stripes admit more read parallelism.
type readLane struct {
	stripes []*combiner
}

// newReadLane builds n stripes, or returns nil when the engine's sessions
// don't implement batched snapshot reads (CapSnapshot advertised but the
// decorator stack hides the tier — then reads just use the OCC path).
func newReadLane(s *Server, n int) *readLane {
	l := &readLane{stripes: make([]*combiner, 0, n)}
	for i := 0; i < n; i++ {
		tx := s.eng.NewWorker(int(s.nextTid.Add(1)))
		if _, ok := tx.(txengine.SnapshotBatchReader); !ok {
			return nil
		}
		cb := &combiner{s: s, tx: tx}
		cb.each = cb.serve
		l.stripes = append(l.stripes, cb)
	}
	return l
}

func (l *readLane) stripeFor(seq uint64) *combiner {
	return l.stripes[seq%uint64(len(l.stripes))]
}

// submit hands a job to the stripe and blocks until it is served (or marked
// fallback). The caller that finds the stripe idle becomes the leader and
// drains everyone, including itself.
func (cb *combiner) submit(j *readJob) {
	cb.mu.Lock()
	cb.pending = append(cb.pending, j)
	if cb.active {
		cb.mu.Unlock()
		<-j.done
		return
	}
	cb.active = true
	for {
		jobs := cb.pending
		if len(jobs) == 0 {
			cb.active = false
			cb.mu.Unlock()
			break
		}
		cb.pending = cb.scratch[:0]
		cb.mu.Unlock()
		cb.run(jobs)
		for i, jb := range jobs {
			jb.done <- struct{}{}
			jobs[i] = nil // release: don't pin dead connections' jobs
		}
		cb.scratch = jobs[:0]
		cb.mu.Lock()
	}
	<-j.done
}

// run serves one wakeup's worth of jobs from a single pinned snapshot cut.
func (cb *combiner) run(jobs []*readJob) {
	cb.jobs, cb.served = jobs, 0
	_, ok := txengine.SnapshotReadBatch(cb.tx, len(jobs), cb.each)
	cb.jobs = nil
	if !ok {
		// No snapshot tier behind this session after all; OCC serves them.
		for _, j := range jobs {
			j.fallback = true
		}
		return
	}
	cb.s.cSnapServed.Add(cb.served)
	if len(jobs) > 1 {
		cb.s.cCombined.Add(cb.served)
	}
}

// serve answers the wakeup's i-th job at the pinned cut.
func (cb *combiner) serve(i int, cut uint64) {
	j := cb.jobs[i]
	if j.minTS > cut {
		j.fallback = true
		return
	}
	j.results = j.results[:0]
	for bi := range j.batch {
		r := &j.batch[bi].req
		if r.Op == OpGet {
			v, found := cb.s.m.Get(cb.tx, r.Key)
			j.results = append(j.results, ReadResult{Found: found, Val: v})
		} else {
			for oi := range r.Ops {
				v, found := cb.s.m.Get(cb.tx, r.Ops[oi].Key)
				j.results = append(j.results, ReadResult{Found: found, Val: v})
			}
		}
	}
	cb.served += uint64(len(j.batch))
}
