package main

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"medley/internal/pnvm"
	"medley/internal/server"
	"medley/internal/txengine"
)

// Serving workloads: an in-process server.Server on 127.0.0.1:0, driven over
// real loopback TCP by `drivers` goroutines, one connection each. The untraced
// run is warm-up → closed loop with pipelineDepth requests in flight per
// connection (tput_per_s, alloc_b_op). No latency is reported from it: the
// response time of a saturated closed loop is its depth over its throughput
// (Little's law) and says nothing throughput does not. The traced run is
// shorter: closed loop untraced, closed loop traced
// (bench.trace_overhead_share), then the open-loop ladder at three frozen
// rates with latency timed from each request's due time, then the ledger.

const (
	readHotKeys     = 1 << 16
	durableAccounts = 1 << 18
	startBalance    = 1 << 20
	opRing          = 1 << 20 // pregenerated requests per driver, cycled (a power of two)
	// pipelineDepth keeps both CPUs busy. At the usual depth of 16 the loop
	// is bound by goroutine wake-ups, which on a 2-vCPU VM are as fast as the
	// host's halt-polling mood: 380k or 800k req/s from the same binary.
	pipelineDepth = 256
	maxInFlight   = 1 << 14 // open-loop window cap per connection
	traceEvery    = 64      // traced run: 1 request in 64 records spans
	drainTimeout  = 5 * time.Second
)

// mix turns the i-th entry of a driver's pregenerated stream into a wire
// request and checks the matching response. emit returns an audit token that
// verify gets back.
type mix interface {
	emit(i, id uint64, buf []byte) ([]byte, uint64)
	verify(expect uint64, r *server.Response) bool
	release() // drop the pregenerated stream, keep the audit state
}

// readHotMix: Zipf keys, 95% Get / 5% Put. A Put writes tag<<32|seq so a
// later Get on the same connection can check read-your-writes: it must see
// its own last write to that key or some other connection's, never the
// preload value and never an older write of its own.
type readHotMix struct {
	tag  uint64
	keys []uint32
	put  []bool
	last []uint32 // last seq this connection wrote to each key
	seq  uint32
	req  server.Request
}

const putToken = ^uint64(0)

func newReadHotMix(tag int, seed uint64, keys, ring int) *readHotMix {
	rng := rand.New(rand.NewPCG(seed, uint64(tag)))
	z := rand.NewZipf(rng, 1.1, 1, uint64(keys-1))
	m := &readHotMix{tag: uint64(tag), keys: make([]uint32, ring), put: make([]bool, ring), last: make([]uint32, keys)}
	for i := range m.keys {
		m.keys[i] = uint32(z.Uint64())
		m.put[i] = rng.IntN(100) < 5
	}
	return m
}

func (m *readHotMix) emit(i, id uint64, buf []byte) ([]byte, uint64) {
	j := i & uint64(len(m.keys)-1)
	k := m.keys[j]
	if m.put[j] {
		m.seq++
		m.last[k] = m.seq
		m.req = server.Request{ID: id, Op: server.OpPut, Key: uint64(k), Val: m.tag<<32 | uint64(m.seq)}
		return server.AppendRequest(buf, &m.req), putToken
	}
	m.req = server.Request{ID: id, Op: server.OpGet, Key: uint64(k)}
	return server.AppendRequest(buf, &m.req), uint64(m.last[k])
}

func (m *readHotMix) release() { m.keys, m.put, m.last = nil, nil, nil }

func (m *readHotMix) verify(expect uint64, r *server.Response) bool {
	if !r.Found { // every key is preloaded and nothing removes
		return false
	}
	if expect == putToken {
		return r.Op == server.OpPut
	}
	switch r.Val >> 32 {
	case m.tag:
		return r.Val&0xffffffff >= expect
	case 0: // preload value
		return expect == 0
	}
	return true // another connection's write
}

// durableMix: every request is the four-op transfer (read source, -1, +1,
// per-connection stamp write). The op list is the declared footprint.
type durableMix struct {
	stampKey uint64
	from, to []uint32
	seq      uint64 // last stamp sent
	acked    uint64 // last stamp acknowledged OK
	ops      []server.TxnOp
	req      server.Request
}

func newDurableMix(tag int, seed uint64, accounts, ring int) *durableMix {
	rng := rand.New(rand.NewPCG(seed, uint64(tag)))
	z := rand.NewZipf(rng, 1.1, 1, uint64(accounts-1))
	m := &durableMix{stampKey: uint64(accounts + tag), from: make([]uint32, ring), to: make([]uint32, ring)}
	for i := range m.from {
		f, t := z.Uint64(), z.Uint64()
		if f == t {
			t = (t + 1) % uint64(accounts)
		}
		m.from[i], m.to[i] = uint32(f), uint32(t)
	}
	return m
}

func (m *durableMix) emit(i, id uint64, buf []byte) ([]byte, uint64) {
	j := i & uint64(len(m.from)-1)
	m.seq++
	m.ops = transferOps(m.ops, uint64(m.from[j]), uint64(m.to[j]), m.stampKey, m.seq)
	m.req = server.Request{ID: id, Op: server.OpTxn, Ops: m.ops}
	return server.AppendRequest(buf, &m.req), m.seq
}

// transferOps is the four-op transfer: read the source, move one unit, stamp.
func transferOps(buf []server.TxnOp, from, to, stampKey, seq uint64) []server.TxnOp {
	return append(buf[:0],
		server.TxnOp{Kind: server.TxnRead, Key: from},
		server.AddDelta(from, -1),
		server.AddDelta(to, +1),
		server.TxnOp{Kind: server.TxnWrite, Key: stampKey, Arg: seq})
}

func (m *durableMix) release() { m.from, m.to = nil, nil }

func (m *durableMix) verify(expect uint64, r *server.Response) bool {
	if r.Op != server.OpTxn || len(r.Reads) != 1 || !r.Reads[0].Found {
		return false
	}
	m.acked = expect
	return true
}

// pending is one request in flight on a connection.
type pending struct {
	id, expect           uint64
	due                  int64 // ns since run start; latency is timed from here
	measured, traced     bool
	enc0, enc1, fl0, fl1 int64
}

// rungResult is what one driver saw on one open-loop rung.
type rungResult struct {
	lat, lag               *samples
	backlogMid, backlogEnd int64
}

// driver is one load-generating goroutine and its connection.
type driver struct {
	r    *run
	conn uint64 // 1-based connection number, the high bits of its trace ids
	nc   net.Conn
	br   *bufio.Reader
	wbuf []byte
	mix  mix
	resp server.Response

	ring             []pending
	head, tail, sent uint64 // sent: entries already flushed
	nextID           uint64 // requests sent so far; request n is entry n-1 of the stream

	done      counter
	bad       int64
	tracing   bool
	log       *spanLog // spans of the current phase
	ladderLog *spanLog
	rungs     []rungResult
	err       error

	calibReq  *atomic.Uint32 // bumped by the coordinator to ask for a reference sample
	calibSeen uint32
	ref       *reference
}

func (d *driver) now() int64 { return time.Since(d.r.t0).Nanoseconds() }

func (d *driver) inFlight() int { return int(d.tail - d.head) }

func (d *driver) send(due int64, measured bool) {
	p := &d.ring[d.tail&(maxInFlight-1)]
	d.nextID++
	*p = pending{id: d.nextID, due: due, measured: measured}
	if d.tracing && d.nextID%traceEvery == 0 {
		p.traced, p.enc0 = true, d.now()
	}
	d.wbuf, p.expect = d.mix.emit(d.nextID-1, d.nextID, d.wbuf)
	if p.traced {
		p.enc1 = d.now()
	}
	d.tail++
}

func (d *driver) flush() error {
	if len(d.wbuf) == 0 {
		return nil
	}
	var f0 int64
	if d.tracing {
		f0 = d.now()
	}
	_, err := d.nc.Write(d.wbuf)
	d.wbuf = d.wbuf[:0]
	if d.tracing {
		f1 := d.now()
		for i := d.sent; i < d.tail; i++ {
			if p := &d.ring[i&(maxInFlight-1)]; p.traced {
				p.fl0, p.fl1 = f0, f1
			}
		}
	}
	d.sent = d.tail
	return err
}

// frame returns the next response body without consuming it (complete does).
// With block false it returns nil unless a whole frame is
// already buffered; with block true it waits, and returns nil if the read
// deadline passes first.
func (d *driver) frame(block bool) ([]byte, error) {
	if !block && d.br.Buffered() < 4 {
		return nil, nil
	}
	hdr, err := d.br.Peek(4)
	if err != nil {
		return nil, ignoreTimeout(err)
	}
	n := int(binary.BigEndian.Uint32(hdr))
	if n == 0 || n > server.MaxFrame {
		return nil, fmt.Errorf("response frame of %d bytes", n)
	}
	if !block && d.br.Buffered() < 4+n {
		return nil, nil
	}
	body, err := d.br.Peek(4 + n)
	if err != nil {
		return nil, ignoreTimeout(err)
	}
	return body[4:], nil
}

func ignoreTimeout(err error) error {
	if errors.Is(err, os.ErrDeadlineExceeded) {
		return nil
	}
	return err
}

// complete matches one response body to the oldest request in flight.
func (d *driver) complete(body []byte, now int64, lat *samples) {
	p := &d.ring[d.head&(maxInFlight-1)]
	d.head++
	var dec0 int64
	if p.traced {
		dec0 = d.now()
	}
	err := server.DecodeResponse(body, &d.resp)
	if err != nil || d.resp.ID != p.id || d.resp.Status != server.StatusOK || !d.mix.verify(p.expect, &d.resp) {
		d.bad++
	}
	d.br.Discard(4 + len(body))
	d.done.n.Add(1)
	if p.measured {
		lat.add(now - p.due)
	}
	if p.traced {
		dec1, trace := d.now(), d.conn<<48|p.id
		d.log.add(trace, 1, 0, "req", p.due, dec1)
		d.log.add(trace, 2, 1, "req.encode", p.enc0, p.enc1)
		d.log.add(trace, 3, 1, "req.flush", p.fl0, p.fl1)
		d.log.add(trace, 4, 1, "req.wait", p.fl1, dec0)
		d.log.add(trace, 5, 1, "req.decode", dec0, dec1)
	}
}

// receive blocks for one response (or until the read deadline) and then
// takes every further response that is already buffered.
func (d *driver) receive(lat *samples) error {
	body, err := d.frame(true)
	if err != nil || body == nil {
		return err
	}
	now := d.now()
	for body != nil {
		d.complete(body, now, lat)
		if body, err = d.frame(false); err != nil {
			return err
		}
	}
	return nil
}

// closedLoop keeps depth requests in flight until the deadline. When the
// coordinator asks for a reference sample both drivers drain their pipelines
// first, so the sample is timed beside the other driver's sample and not
// beside whatever the server happens to be doing.
func (d *driver) closedLoop(depth int, until time.Time) error {
	d.nc.SetReadDeadline(time.Time{})
	for time.Now().Before(until) {
		if c := d.calibReq.Load(); c != d.calibSeen {
			d.calibSeen = c
			if err := d.drain(nil); err != nil {
				return err
			}
			d.nc.SetReadDeadline(time.Time{})
			d.ref.sample()
		}
		if d.inFlight() < depth {
			now := d.now()
			for d.inFlight() < depth {
				d.send(now, false)
			}
			if err := d.flush(); err != nil {
				return err
			}
		}
		if err := d.receive(nil); err != nil {
			return err
		}
	}
	return nil
}

// drain waits for every request in flight.
func (d *driver) drain(lat *samples) error {
	d.nc.SetReadDeadline(time.Now().Add(drainTimeout))
	for d.inFlight() > 0 {
		before := d.head
		if err := d.receive(lat); err != nil {
			return err
		}
		if d.head == before {
			return fmt.Errorf("%d responses still missing %v after the last send", d.inFlight(), drainTimeout)
		}
	}
	return nil
}

// openLoop sends on a fixed schedule, whatever the responses do: request k
// is due at start + offset + k/rate and its latency runs from that due time,
// so a stall is charged to every request it delayed. Between events the
// goroutine blocks in a read whose deadline is the next due time.
func (d *driver) openLoop(rate float64, start time.Time, offset, settle, length time.Duration, res *rungResult) error {
	startNs := start.Sub(d.r.t0).Nanoseconds() + offset.Nanoseconds()
	measureNs := startNs + settle.Nanoseconds()
	endNs := startNs + (settle + length).Nanoseconds()
	midNs := (measureNs + endNs) / 2
	interval := 1e9 / rate
	dueAt := func(k int64) int64 { return startNs + int64(float64(k)*interval) }
	var k int64
	doneAtStart := d.done.n.Load()
	midTaken := false
	sleepUntil(d.r.t0.Add(time.Duration(startNs)))
	for {
		now := d.now()
		if !midTaken && now >= midNs {
			midTaken = true
			res.backlogMid = int64(float64(midNs-startNs)/interval) + 1 - (d.done.n.Load() - doneAtStart)
		}
		if now >= endNs {
			break
		}
		for dueAt(k) <= now && d.inFlight() < maxInFlight {
			due := dueAt(k)
			measured := due >= measureNs
			if measured {
				res.lag.add(now - due)
			}
			d.send(due, measured)
			k++
		}
		if err := d.flush(); err != nil {
			return err
		}
		next := min(dueAt(k), endNs)
		if d.inFlight() == 0 {
			sleepUntil(d.r.t0.Add(time.Duration(next)))
			continue
		}
		if d.inFlight() >= maxInFlight {
			next = endNs // window full: only a response can unblock us
		}
		if d.br.Buffered() == 0 {
			d.nc.SetReadDeadline(d.r.t0.Add(time.Duration(next)))
		}
		if err := d.receive(res.lat); err != nil {
			return err
		}
	}
	res.backlogEnd = k - (d.done.n.Load() - doneAtStart)
	return d.drain(res.lat)
}

// servePlan is the schedule of one serving run, as offsets from its start.
type servePlan struct {
	warm, closed, traced time.Duration // closed loop: unmeasured, measured, measured with spans
	settle, rung         time.Duration // open-loop rungs (traced run only)
	rates                []int
	gap                  time.Duration // between phases, for draining
}

func servePlanFor(workload string, seconds float64, trace bool) servePlan {
	if trace {
		rates := ladder[workload]
		return servePlan{warm: share(seconds, 0.06), closed: share(seconds, 0.12), traced: share(seconds, 0.12),
			settle: share(seconds, 0.02), rung: share(seconds, 0.08), rates: rates[:], gap: 50 * time.Millisecond}
	}
	return servePlan{warm: share(seconds, 0.15), closed: share(seconds, 0.85)}
}

func (p servePlan) rungStart(i int) time.Duration {
	return p.warm + p.closed + p.traced + p.gap + time.Duration(i)*(p.settle+p.rung+p.gap)
}

// serveRig is one built serving stack: engine, server, listener, dialed
// connections. Building it is what setup_s times.
type serveRig struct {
	workload string
	eng      txengine.Engine
	srv      *server.Server
	served   chan error
	conns    []net.Conn
	spec     txengine.MapSpec
	keys     int
	addr     string
	closing  sync.Once
}

func (g *serveRig) durable() bool { return g.workload == serveTxnDurable }

func buildServe(workload string, keys int, trace bool) (*serveRig, error) {
	g := &serveRig{workload: workload, keys: keys, served: make(chan error, 1)}
	name, cfg := "medley-sharded", txengine.Config{Shards: 4}
	g.spec = txengine.MapSpec{Kind: txengine.KindHash, Buckets: 1 << 16}
	if g.durable() {
		name = "txmontage-sharded"
		g.spec.Buckets = keys
		if !trace {
			cfg.EpochLen = 10 * time.Millisecond
		} // the traced run drives the epochs itself to time every sync
	}
	eng, err := txengine.Build(name, cfg)
	if err != nil {
		return nil, err
	}
	g.eng = eng
	g.srv, err = server.New(eng, server.Options{MapSpec: g.spec})
	if err != nil {
		eng.Close()
		return nil, err
	}
	g.preload()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		eng.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	g.addr = ln.Addr().String()
	go func() { g.served <- g.srv.Serve(ln) }()
	for i := 0; i < drivers; i++ {
		c, err := net.Dial("tcp", g.addr)
		if err != nil {
			g.close()
			return nil, fmt.Errorf("dial: %w", err)
		}
		g.conns = append(g.conns, c)
	}
	return g, nil
}

// preload fills the hosted map in-process, one goroutine per driver.
func (g *serveRig) preload() {
	m := g.srv.Map()
	var wg sync.WaitGroup
	for w := 0; w < drivers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tx := g.eng.NewWorker(1000 + w)
			for k := w; k < g.keys; k += drivers {
				v := uint64(k) + 1
				if g.durable() {
					v = startBalance
				}
				m.Put(tx, uint64(k), v)
			}
		}(w)
	}
	wg.Wait()
	if g.durable() {
		tx := g.eng.NewWorker(1000 + drivers)
		for i := 1; i <= drivers+1; i++ {
			m.Put(tx, uint64(g.keys+i), 0) // stamp keys: one per driver, one for the ledger
		}
		g.eng.(txengine.Persister).Sync()
	}
}

// close stops the server (Drain syncs a persistent engine first) and then
// the engine; further calls do nothing.
func (g *serveRig) close() {
	g.closing.Do(func() {
		for _, c := range g.conns {
			c.Close()
		}
		g.srv.Drain()
		<-g.served
		g.eng.Close()
	})
}

// latStat summarises one latency distribution, both drivers together.
type latStat struct {
	p50, p99   float64
	tail       float64 // mean of the slowest 5%
	n, dropped int
}

// latStatOf merges the drivers' exact samples. The tail is the mean of the
// slowest 5%, not a single high percentile: every workload here has a cliff
// somewhere between its 95th and 99.5th percentile (calls that met a GC
// assist or a descheduled peer are 5-10x slower than the rest, and they are
// 1-5% of all calls), and a percentile that lands on the cliff moves 30-60%
// from run to run while the mass beyond it barely moves.
func latStatOf(r *run, what string, parts []*samples) (latStat, error) {
	var st latStat
	for _, p := range parts {
		st.dropped += p.dropped
	}
	all := mergeSorted(parts...)
	st.n = len(all)
	if st.n < 1000 && !r.cfg.smoke {
		return st, fmt.Errorf("%s recorded %d latency samples: too few for a tail", what, st.n)
	}
	st.p50, st.p99 = percentileUs(all, 0.50), percentileUs(all, 0.99)
	var sum float64
	slow := all[len(all)*95/100:]
	for _, ns := range slow {
		sum += float64(ns)
	}
	if len(slow) > 0 {
		st.tail = sum / float64(len(slow)) / 1e3
	}
	return st, nil
}

func runServe(r *run) error {
	keys := readHotKeys
	if r.cfg.workload == serveTxnDurable {
		keys = durableAccounts
	}
	ring := opRing
	if r.cfg.smoke {
		keys, ring = min(keys, 1<<14), 1<<14
	}
	g, setupS, heapBaseMB, err := setupMedian(r, func() (*serveRig, error) { return buildServe(r.cfg.workload, keys, r.cfg.trace) }, (*serveRig).close)
	if err != nil {
		return err
	}
	defer g.close()
	// The request streams are the harness's: generated after the heap
	// baseline is taken, dropped before the live heap is measured.
	mixes := make([]mix, drivers)
	for i := range mixes {
		if r.cfg.workload == serveTxnDurable {
			mixes[i] = newDurableMix(i+1, r.cfg.seed, keys, ring)
		} else {
			mixes[i] = newReadHotMix(i+1, r.cfg.seed, keys, ring)
		}
	}

	plan := servePlanFor(r.cfg.workload, r.cfg.seconds, r.cfg.trace)
	start := time.Now()
	ds := make([]*driver, drivers)
	var calibReq atomic.Uint32
	for i := range ds {
		d := &driver{r: r, conn: uint64(i + 1), nc: g.conns[i], br: bufio.NewReaderSize(g.conns[i], 64<<10), mix: mixes[i], ring: make([]pending, maxInFlight),
			calibReq: &calibReq, ref: newReference(uint64(i))}
		if r.cfg.trace {
			// One log per phase kind, so the saturated closed loop cannot
			// fill the buffer before the ladder starts.
			d.log, d.ladderLog = newSpanLog(1<<15), newSpanLog(1<<15)
			r.logs = append(r.logs, d.log, d.ladderLog)
		}
		for _, rate := range plan.rates {
			n := int(float64(rate)/drivers*plan.rung.Seconds()*1.1) + 1024
			d.rungs = append(d.rungs, rungResult{lat: newSamples(n), lag: newSamples(n)})
		}
		ds[i] = d
	}
	pr := &probe{srv: g.srv, eng: g.eng}
	if p, ok := g.eng.(txengine.Persister); ok {
		pr.devs = p.Devices()
	}
	for _, d := range ds {
		pr.done = append(pr.done, &d.done)
	}

	var syncs *syncTicker
	if g.durable() && r.cfg.trace {
		syncs = startSyncTicker(r, g.eng.(txengine.Persister))
	}

	var wg sync.WaitGroup
	for i, d := range ds {
		wg.Add(1)
		go func(i int, d *driver) {
			defer wg.Done()
			d.err = d.script(plan, start, i)
		}(i, d)
	}
	sleepUntil(start.Add(plan.warm))
	s0 := pr.take()
	tput := pr.watch(start.Add(plan.warm), start.Add(plan.warm+plan.closed), &calibReq)
	s1 := pr.take()
	s2 := s1
	if plan.traced > 0 {
		pr.watch(start.Add(plan.warm+plan.closed), start.Add(plan.warm+plan.closed+plan.traced), &calibReq)
		s2 = pr.take()
	}
	wg.Wait()
	if syncs != nil {
		syncs.stop()
	}
	for i, d := range ds {
		if d.err != nil {
			return fmt.Errorf("driver %d: %w", i, d.err)
		}
		r.attempted += int64(d.nextID)
		r.failed += d.bad
	}

	var refs []*reference
	for _, d := range ds {
		refs = append(refs, d.ref)
	}
	if !r.cfg.trace {
		// Live heap of the system, not of the harness: drop the request
		// streams before collecting.
		for _, d := range ds {
			d.ring = nil
			d.mix.release()
		}
		r.setEndToEnd(refs, setupS, heapBaseMB, tput, s0, s1, pr.completions())
	} else {
		_, refNs := speedFactor(refs...)
		r.set("bench.ref_ns_op", refNs)
		if err := serveTraceReport(r, g, ds, plan, pr, syncs, s0, s1, s2); err != nil {
			return err
		}
	}

	if g.durable() {
		return crashAndRecover(r, g, mixes)
	}
	return nil
}

// serveTraceReport publishes the traced run's per-layer numbers: the curve
// behind the ladder, counter ratios over the traced closed-loop window, and
// the ledger replay.
func serveTraceReport(r *run, g *serveRig, ds []*driver, plan servePlan, pr *probe, syncs *syncTicker, s0, s1, s2 snap) error {
	r.set("bench.trace_overhead_share", 1-s2.rate(s1)/s1.rate(s0))
	r.set("bench.gc_cpu_share", s2.gcShare(s0))
	r.set("bench.gc_cycles_per_s", float64(s2.mem.NumGC-s0.mem.NumGC)/s2.at.Sub(s0.at).Seconds())
	// A rung is met when its 99th percentile is within the limit, nothing
	// failed, and the backlog did not grow between the middle and the end of
	// the rung (64 in flight is depth, not growth). Latency runs from the due
	// time, so it already contains whatever the generator was late by: a late
	// generator can make a rung miss, never meet. A rung is on time when the
	// generator was late by at most a tenth of the limit at p99; a rung that
	// is late and missed says nothing about the server, and
	// bench.rungs_on_time says how many rungs can be taken at face value.
	limit := latLimitUs[r.cfg.workload]
	rateOK, onTime := 0, 0
	for ri, rate := range plan.rates {
		var parts, lags []*samples
		var backlogMid, backlogEnd int64
		for _, d := range ds {
			parts, lags = append(parts, d.rungs[ri].lat), append(lags, d.rungs[ri].lag)
			backlogMid, backlogEnd = backlogMid+d.rungs[ri].backlogMid, backlogEnd+d.rungs[ri].backlogEnd
		}
		st, err := latStatOf(r, fmt.Sprintf("rung %d/s", rate), parts)
		if err != nil {
			return err
		}
		lagP99 := percentileUs(mergeSorted(lags...), 0.99)
		met := st.p99 <= limit && backlogEnd <= 2*backlogMid+64 && r.failed == 0
		late := lagP99 > limit/10
		r.detail[fmt.Sprintf("rung_%d", rate)] = map[string]any{"samples": st.n, "dropped": st.dropped, "p50_us": st.p50, "p99_us": st.p99,
			"tail_us": st.tail, "gen_lag_p99_us": lagP99, "backlog_mid": backlogMid, "backlog_end": backlogEnd, "met": met, "on_time": !late}
		name := fmt.Sprintf("_r%d", ri+1)
		r.set("server.lat_p50_us"+name, st.p50)
		r.set("server.lat_p99_us"+name, st.p99)
		if ri == 1 {
			r.set("bench.gen_lag_p99_us", lagP99)
		}
		if ri == 2 {
			r.set("server.backlog_end_r3", float64(backlogEnd))
		}
		if met {
			rateOK = rate
		}
		if !late {
			onTime++
		}
	}
	r.set("bench.rungs_on_time", float64(onTime))
	r.set("server.rate_ok_per_s", float64(rateOK))
	serverCounts(r, s2.srv, s1.srv)
	engineCounts(r, s2.eng.Delta(s1.eng))
	if syncs != nil {
		syncs.report(r, s1.at, s2.at)
	}
	if len(pr.devs) > 0 {
		commits := float64(s2.eng.Commits - s1.eng.Commits)
		r.set("pnvm.writes_per_commit", float64(s2.devW-s1.devW)/commits)
		r.set("pnvm.writebacks_per_commit", float64(s2.devWB-s1.devWB)/commits)
		r.set("pnvm.fences_per_s", float64(s2.devF-s1.devF)/s2.at.Sub(s1.at).Seconds())
	}
	return serveLedger(r, g)
}

// script is one driver's whole run.
func (d *driver) script(p servePlan, start time.Time, idx int) error {
	if err := d.closedLoop(pipelineDepth, start.Add(p.warm+p.closed)); err != nil {
		return err
	}
	if p.traced > 0 {
		d.tracing = true
		if err := d.closedLoop(pipelineDepth, start.Add(p.warm+p.closed+p.traced)); err != nil {
			return err
		}
	}
	if err := d.drain(nil); err != nil {
		return err
	}
	d.log = d.ladderLog
	for i, rate := range p.rates {
		perConn := float64(rate) / drivers
		// The connections send half an interval apart, not in lockstep.
		offset := time.Duration(float64(idx) / drivers / perConn * float64(time.Second))
		if err := d.openLoop(perConn, start.Add(p.rungStart(i)), offset, p.settle, p.rung, &d.rungs[i]); err != nil {
			return err
		}
	}
	return nil
}

// serverCounts turns the server's counter deltas into useful-work ratios.
func serverCounts(r *run, now, prev server.Counters) {
	ok := float64(now.SnapServed-prev.SnapServed) + float64(now.OCCServed-prev.OCCServed)
	reqs := float64(now.Requests - prev.Requests)
	if ok > 0 {
		r.set("server.lane_share", float64(now.SnapServed-prev.SnapServed)/ok)
		r.set("server.combined_share", float64(now.Combined-prev.Combined)/ok)
	}
	if b := now.Batches - prev.Batches; b > 0 {
		r.set("server.batch_fill", float64(now.BatchedOps-prev.BatchedOps)/float64(b))
	}
	if reqs > 0 {
		r.set("server.shed_share", float64(now.Shed-prev.Shed+now.Drained-prev.Drained)/reqs)
	}
}

// engineCounts turns an engine Stats delta into outcome-per-attempt ratios.
func engineCounts(r *run, d txengine.Stats) {
	attempts := float64(d.Commits + d.Aborts + d.CrossShardRestarts)
	if attempts == 0 {
		return
	}
	commits := float64(max(d.Commits, 1))
	r.set("txengine.abort_share", float64(d.Aborts)/attempts)
	r.set("txengine.xrestart_share", float64(d.CrossShardRestarts)/attempts)
	if fp := d.FootprintHits + d.FootprintMisses; fp > 0 {
		r.set("txengine.fp_hit_share", float64(d.FootprintHits)/float64(fp))
	}
	r.set("txengine.latch_wait_share", float64(d.LatchWaits)/commits)
	r.set("txengine.latch_fallback_share", float64(d.LatchFallbacks)/commits)
	if d.SnapshotReads > 0 {
		r.set("txengine.snap_stale_share", float64(d.SnapshotStale)/float64(d.SnapshotReads))
	}
}

// crashAndRecover ends the durable workload the way a power failure would:
// drain (durable cut), crash every device, dump, recover on a fresh engine,
// and audit that every balance is conserved and every acknowledged stamp
// survived.
func crashAndRecover(r *run, g *serveRig, mixes []mix) error {
	devs := g.eng.(txengine.Persister).Devices()
	g.close() // Drain syncs the engine before closing it
	t0 := r.since()
	var liveBefore int
	for _, d := range devs {
		liveBefore += d.Live()
	}
	dumps := pnvm.DumpAll(devs)
	t1 := r.since()
	eng, err := txengine.Build("txmontage-sharded", txengine.Config{Shards: 4, Devices: devs})
	if err != nil {
		return fmt.Errorf("rebuild: %w", err)
	}
	defer eng.Close()
	began := time.Now()
	m, err := eng.(txengine.Persister).RecoverUintMap(dumps, g.spec)
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	recoverS := time.Since(began).Seconds()
	t2 := r.since()
	records := 0
	for _, d := range dumps {
		records += len(d)
	}
	if r.cfg.trace {
		log := newSpanLog(4)
		r.logs = append(r.logs, log)
		log.add(1<<62, 1, 0, "recover", t0, t2)
		log.add(1<<62, 2, 1, "recover.dump", t0, t1)
		log.add(1<<62, 3, 1, "recover.rebuild", t1, t2)
		r.set("montage.recover_s", recoverS)
		r.set("montage.recover_ns_rec", recoverS*1e9/float64(records))
		r.set("pnvm.live_per_key", float64(liveBefore)/float64(g.keys+drivers))
	}
	r.detail["recovered_records"] = records

	tx := eng.NewWorker(0)
	var sum uint64
	for k := 0; k < g.keys; k++ {
		v, ok := m.Get(tx, uint64(k))
		if !ok {
			r.violate("account %d missing after recovery", k)
			break
		}
		sum += v
	}
	if want := uint64(g.keys) * startBalance; sum != want {
		r.violate("recovered balances sum to %d, want %d: a transfer recovered torn", sum, want)
	}
	for i, mx := range mixes {
		dm := mx.(*durableMix)
		got, ok := m.Get(tx, dm.stampKey)
		if !ok || got < dm.acked || got > dm.seq {
			r.violate("connection %d: recovered stamp %d (found %v), acknowledged %d, sent %d", i, got, ok, dm.acked, dm.seq)
		}
	}
	return nil
}
