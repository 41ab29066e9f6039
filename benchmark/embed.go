package main

import (
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"medley/internal/bench"
	"medley/internal/txengine"
)

// Embedded workloads: the engine used as a library by `drivers` worker
// goroutines, no server. A run is warm-up → measured window (tput_per_s,
// alloc_b_op). The traced run times 1 call in 16 of its measured window, adds
// a second window in which 1 transaction in 64 records spans, and then the
// ledger replay.

const (
	latEvery    = 16
	mixAccounts = 1 << 16
	mixGroup    = 8 // accounts per conservation group
)

// stepper is one worker's transaction source: gen picks the next
// transaction (harness time), exec runs it (system time) and reports whether
// its outcome was right.
type stepper interface {
	gen()
	exec() bool
}

// embedWorker drives one stepper until told to stop.
type embedWorker struct {
	st   stepper
	done counter
	bad  int64
	lat  *samples // traced run: call durations of the measured window
	log  *spanLog
	ref  *reference
}

// embedPhase is what the coordinator tells the workers.
type embedPhase struct {
	stop, timing, tracing atomic.Bool
	calibReq              atomic.Uint32 // bumped to ask every worker for a reference sample
}

func (w *embedWorker) loop(r *run, id uint64, ph *embedPhase) {
	var calibSeen uint32
	for n := uint64(1); !ph.stop.Load(); n++ {
		if c := ph.calibReq.Load(); c != calibSeen {
			calibSeen = c
			w.ref.sample()
		}
		switch {
		case n%traceEvery == 0 && ph.tracing.Load():
			t0 := r.since()
			w.st.gen()
			t1 := r.since()
			ok := w.st.exec()
			t2 := r.since()
			if !ok {
				w.bad++
			}
			trace := id<<48 | n
			w.log.add(trace, 1, 0, "txn", t0, t2)
			w.log.add(trace, 2, 1, "txn.gen", t0, t1)
			w.log.add(trace, 3, 1, "txn.run", t1, t2)
		case n%latEvery == 0 && ph.timing.Load():
			w.st.gen()
			t1 := time.Now()
			ok := w.st.exec()
			w.lat.add(time.Since(t1).Nanoseconds())
			if !ok {
				w.bad++
			}
		default:
			w.st.gen()
			if !w.st.exec() {
				w.bad++
			}
		}
		w.done.n.Add(1)
	}
}

// embedWindows runs the workers through warm-up, the measured window and (in
// the traced run) the traced window, snapshotting at each boundary. tput is
// the raw completion rate of the measured window.
func embedWindows(r *run, eng txengine.Engine, steppers []stepper, warm, measured, traced time.Duration) (ws []*embedWorker, tput float64, s0, s1, s2 snap) {
	var ph embedPhase
	pr := &probe{eng: eng}
	start := time.Now()
	for i, st := range steppers {
		w := &embedWorker{st: st, ref: newReference(uint64(i))}
		if r.cfg.trace {
			w.lat, w.log = newSamples(1<<20), newSpanLog(1<<16)
			r.logs = append(r.logs, w.log)
		}
		ws = append(ws, w)
		pr.done = append(pr.done, &w.done)
	}
	var wg sync.WaitGroup
	for i, w := range ws {
		wg.Add(1)
		go func(i int, w *embedWorker) {
			defer wg.Done()
			w.loop(r, uint64(i+1), &ph)
		}(i, w)
	}
	sleepUntil(start.Add(warm))
	ph.timing.Store(r.cfg.trace)
	s0 = pr.take()
	tput = pr.watch(start.Add(warm), start.Add(warm+measured), &ph.calibReq)
	s1 = pr.take()
	ph.timing.Store(false)
	s2 = s1
	if traced > 0 {
		ph.tracing.Store(true)
		pr.watch(start.Add(warm+measured), start.Add(warm+measured+traced), &ph.calibReq)
		s2 = pr.take()
	}
	ph.stop.Store(true)
	wg.Wait()
	for _, w := range ws {
		r.attempted += w.done.n.Load()
		r.failed += w.bad
	}
	return ws, tput, s0, s1, s2
}

// embedReport publishes what both embedded workloads measure the same way.
func embedReport(r *run, ws []*embedWorker, setupS, heapBaseMB, tput float64, s0, s1, s2 snap) error {
	var refs []*reference
	for _, w := range ws {
		refs = append(refs, w.ref)
	}
	if !r.cfg.trace {
		r.setEndToEnd(refs, setupS, heapBaseMB, tput, s0, s1, r.attempted)
		return nil
	}
	var parts []*samples
	for _, w := range ws {
		parts = append(parts, w.lat)
	}
	st, err := latStatOf(r, "the measured window", parts)
	if err != nil {
		return err
	}
	r.detail["call_samples"], r.detail["call_dropped"] = st.n, st.dropped
	r.set("txengine.call_p50_us", st.p50)
	r.set("txengine.call_tail_us", st.tail)
	_, refNs := speedFactor(refs...)
	r.set("bench.ref_ns_op", refNs)
	r.set("bench.trace_overhead_share", 1-s2.rate(s1)/s1.rate(s0))
	r.set("bench.gc_cpu_share", s2.gcShare(s0))
	r.set("bench.gc_cycles_per_s", float64(s2.mem.NumGC-s0.mem.NumGC)/s2.at.Sub(s0.at).Seconds())
	engineCounts(r, s2.eng.Delta(s0.eng))
	return nil
}

func share(seconds, s float64) time.Duration {
	return time.Duration(s * seconds * float64(time.Second))
}

// ---- embed_compose -------------------------------------------------------

// composeSys is one medley engine with one hash map (one bucket per key of
// the keyspace, as in the paper) under the paper's microbenchmark.
type composeSys struct {
	eng txengine.Engine
	m   txengine.Map[uint64]
	wl  bench.Workload
}

func buildCompose(wl bench.Workload) (*composeSys, error) {
	eng, err := txengine.Build("medley", txengine.Config{})
	if err != nil {
		return nil, err
	}
	m, err := eng.NewUintMap(txengine.MapSpec{Kind: txengine.KindHash, Buckets: int(wl.KeySpace)})
	if err != nil {
		eng.Close()
		return nil, err
	}
	c := &composeSys{eng: eng, m: m, wl: wl}
	step := wl.KeySpace / uint64(wl.Preload)
	var wg sync.WaitGroup
	for w := 0; w < drivers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tx := eng.NewWorker(1000 + w)
			tx.NoTx(func() {
				for i := w; i < wl.Preload; i += drivers {
					m.Put(tx, uint64(i)*step, uint64(i)*step+1)
				}
			})
		}(w)
	}
	wg.Wait()
	return c, nil
}

func (c *composeSys) close() { c.eng.Close() }

// composeStepper generates and runs the paper's transactions, counting the
// inserts and removes that took effect in committed transactions so the size
// audit can balance them against the final map.
type composeStepper struct {
	c        *composeSys
	tx       txengine.Tx
	rng      *rand.Rand
	ops      []bench.Op
	ins, rem int64 // committed
	ai, ar   int64 // current attempt
	body     func() error
	readBody func()
}

func newComposeStepper(c *composeSys, tid int, seed uint64) *composeStepper {
	s := &composeStepper{c: c, tx: c.eng.NewWorker(tid), rng: rand.New(rand.NewPCG(seed, uint64(tid))), ops: make([]bench.Op, 0, c.wl.MaxOps)}
	s.body = func() error { s.apply(); return nil }
	s.readBody = func() { s.apply() }
	return s
}

func (s *composeStepper) apply() {
	s.ai, s.ar = 0, 0
	for _, op := range s.ops {
		switch op.Kind {
		case bench.Get:
			s.c.m.Get(s.tx, op.Key)
		case bench.Insert:
			if s.c.m.Insert(s.tx, op.Key, op.Val) {
				s.ai++
			}
		case bench.Remove:
			if _, ok := s.c.m.Remove(s.tx, op.Key); ok {
				s.ar++
			}
		}
	}
}

func (s *composeStepper) gen() { s.ops = s.c.wl.GenTx(s.rng, s.ops) }

func (s *composeStepper) exec() bool {
	if readOnly(s.ops) {
		s.tx.RunRead(s.readBody)
	} else if err := s.tx.Run(s.body); err != nil {
		return false
	}
	s.ins, s.rem = s.ins+s.ai, s.rem+s.ar
	return true
}

func readOnly(ops []bench.Op) bool {
	for _, op := range ops {
		if op.Kind != bench.Get {
			return false
		}
	}
	return true
}

// auditSize checks successful inserts - removes = final size - preload.
func (c *composeSys) auditSize(r *run, steppers []*composeStepper) {
	tx := c.eng.NewWorker(3000)
	size := int64(0)
	tx.NoTx(func() {
		for k := uint64(0); k < c.wl.KeySpace; k++ {
			if _, ok := c.m.Get(tx, k); ok {
				size++
			}
		}
	})
	var ins, rem int64
	for _, s := range steppers {
		ins, rem = ins+s.ins, rem+s.rem
	}
	if size-int64(c.wl.Preload) != ins-rem {
		r.violate("final size %d - preload %d != inserts %d - removes %d", size, c.wl.Preload, ins, rem)
	}
}

func runCompose(r *run) error {
	scale := 1.0
	if r.cfg.smoke {
		scale = 0.01
	}
	wl := bench.PaperWorkload(2, 1, 1, scale)

	med, setupS, heapBaseMB, err := setupMedian(r, func() (*composeSys, error) { return buildCompose(wl) }, (*composeSys).close)
	if err != nil {
		return err
	}
	defer med.close()
	warm, measured, traced := share(r.cfg.seconds, 0.15), share(r.cfg.seconds, 0.85), time.Duration(0)
	if r.cfg.trace {
		warm, measured, traced = share(r.cfg.seconds, 0.06), share(r.cfg.seconds, 0.25), share(r.cfg.seconds, 0.25)
	}
	var steppers []stepper
	var cs []*composeStepper
	for i := 0; i < drivers; i++ {
		s := newComposeStepper(med, i+1, r.cfg.seed)
		cs, steppers = append(cs, s), append(steppers, s)
	}
	ws, tput, s0, s1, s2 := embedWindows(r, med.eng, steppers, warm, measured, traced)
	if err := embedReport(r, ws, setupS, heapBaseMB, tput, s0, s1, s2); err != nil {
		return err
	}
	if r.cfg.trace {
		ledger := newComposeStepper(med, drivers+1, r.cfg.seed)
		cs = append(cs, ledger)
		if err := composeLedger(r, med, ledger); err != nil {
			return err
		}
	}
	med.auditSize(r, cs)
	return nil
}

// ---- embed_sharded_mix ---------------------------------------------------

// mixSys is medley-sharded with two account maps. Accounts come in groups of
// mixGroup; a transfer moves one unit between two accounts of one group,
// from one map to the other, so every group's total over both maps is
// conserved and a snapshot of one group's 8 account pairs can check it.
type mixSys struct {
	eng      txengine.Engine
	a, b     txengine.Map[uint64]
	accounts int
}

func buildMix(accounts int) (*mixSys, error) {
	eng, err := txengine.Build("medley-sharded", txengine.Config{Shards: 4})
	if err != nil {
		return nil, err
	}
	s := &mixSys{eng: eng, accounts: accounts}
	spec := txengine.MapSpec{Kind: txengine.KindHash, Buckets: accounts}
	if s.a, err = eng.NewUintMap(spec); err == nil {
		s.b, err = eng.NewUintMap(spec)
	}
	if err != nil {
		eng.Close()
		return nil, err
	}
	var wg sync.WaitGroup
	for w := 0; w < drivers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tx := eng.NewWorker(1000 + w)
			for k := w; k < accounts; k += drivers {
				s.a.Put(tx, uint64(k), startBalance)
				s.b.Put(tx, uint64(k), startBalance)
			}
		}(w)
	}
	wg.Wait()
	return s, nil
}

func (s *mixSys) close() { s.eng.Close() }

const groupTotal = 2 * mixGroup * startBalance

type mixStepper struct {
	s        *mixSys
	tx       txengine.Tx
	rng      *rand.Rand
	snapshot bool
	rev      bool   // transfer from map b to map a
	g        uint64 // group base key
	from, to uint64
	sum      uint64
	xfer     func() error
	read     func()
}

func newMixStepper(s *mixSys, tid int, seed uint64) *mixStepper {
	m := &mixStepper{s: s, tx: s.eng.NewWorker(tid), rng: rand.New(rand.NewPCG(seed, uint64(tid)))}
	// Deliberately no HintKeys: the transfer's footprint is discovered.
	m.xfer = func() error {
		src, dst := s.a, s.b
		if m.rev {
			src, dst = s.b, s.a
		}
		v, _ := src.Get(m.tx, m.from)
		if v == 0 {
			return m.tx.Abort()
		}
		u, _ := dst.Get(m.tx, m.to)
		src.Put(m.tx, m.from, v-1)
		dst.Put(m.tx, m.to, u+1)
		return nil
	}
	m.read = func() {
		m.sum = 0
		for k := m.g; k < m.g+mixGroup; k++ {
			va, _ := s.a.Get(m.tx, k)
			vb, _ := s.b.Get(m.tx, k)
			m.sum += va + vb
		}
	}
	return m
}

func (m *mixStepper) gen() {
	x := m.rng.Uint64()
	m.snapshot = x&1 == 1
	m.g = (x >> 16) % uint64(m.s.accounts/mixGroup) * mixGroup
	m.from = m.g + (x>>1)&(mixGroup-1)
	m.to = m.g + (x>>4)&(mixGroup-1)
	if m.from == m.to {
		m.to = m.g + (m.to+1)&(mixGroup-1)
	}
	m.rev = x>>7&1 == 1
}

func (m *mixStepper) exec() bool {
	if m.snapshot {
		return txengine.SnapshotRead(m.tx, m.read) && m.sum == groupTotal
	}
	return m.tx.Run(m.xfer) == nil
}

func runMix(r *run) error {
	accounts := mixAccounts
	if r.cfg.smoke {
		accounts = 1 << 12
	}
	sys, setupS, heapBaseMB, err := setupMedian(r, func() (*mixSys, error) { return buildMix(accounts) }, (*mixSys).close)
	if err != nil {
		return err
	}
	defer sys.close()
	warm, measured, traced := share(r.cfg.seconds, 0.15), share(r.cfg.seconds, 0.85), time.Duration(0)
	if r.cfg.trace {
		warm, measured, traced = share(r.cfg.seconds, 0.06), share(r.cfg.seconds, 0.25), share(r.cfg.seconds, 0.25)
	}
	var steppers []stepper
	for i := 0; i < drivers; i++ {
		steppers = append(steppers, newMixStepper(sys, i+1, r.cfg.seed))
	}
	ws, tput, s0, s1, s2 := embedWindows(r, sys.eng, steppers, warm, measured, traced)
	if err := embedReport(r, ws, setupS, heapBaseMB, tput, s0, s1, s2); err != nil {
		return err
	}
	if r.cfg.trace {
		if err := mixLedger(r, sys); err != nil {
			return err
		}
	}
	// Final audit: every group still holds its total.
	tx := sys.eng.NewWorker(3000)
	for g := 0; g < accounts; g += mixGroup {
		var sum uint64
		for k := g; k < g+mixGroup; k++ {
			va, _ := sys.a.Get(tx, uint64(k))
			vb, _ := sys.b.Get(tx, uint64(k))
			sum += va + vb
		}
		if sum != groupTotal {
			r.violate("group at account %d holds %d, want %d", g, sum, uint64(groupTotal))
			break
		}
	}
	return nil
}
