package server

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"medley/internal/chaos"
	"medley/internal/metrics"
	"medley/internal/txengine"
)

// Fault-injection points on the wire path. server.frame.read fires once per
// request frame, before it is taken off the connection (error faults drop the
// connection as a failed read would); server.frame.write fires once per
// response write, which carries a whole burst — armed with a torn fault it
// pushes a strict prefix of the encoded frames onto the wire and kills the
// connection, which is how the client retry tests manufacture torn frames
// and forced reconnects.
var (
	cpFrameRead  = chaos.At("server.frame.read")
	cpFrameWrite = chaos.At("server.frame.write")
)

// Options tunes a Server: deployment timeouts and the hosted map's shape.
// The zero value is serviceable: a half-second drain grace, no idle or write
// limit, a 1<<16-bucket hash map. Batching, admission and the burst size are
// constants (batchMax, admitWait, queueDepth; the token count derives from
// the host), and the read fast lane is on wherever the engine has
// CapSnapshot.
type Options struct {
	// DrainGrace bounds how long Drain waits for each connection's
	// in-flight requests (0: DefaultDrainGrace). Requests arriving after
	// drain begins are rejected with StatusDraining.
	DrainGrace time.Duration
	// MapSpec shapes the hosted map (zero: hash, 1<<16 buckets). Recovery
	// flows must rebuild with the same spec.
	MapSpec txengine.MapSpec
	// IdleTimeout closes a connection whose next frame does not arrive
	// within it (0: no idle limit), so a hung or vanished client cannot pin
	// its engine session and goroutine forever. The deadline is re-armed
	// before each blocking read and suspended once drain begins — drain's
	// own absolute deadline (DrainGrace) takes over.
	IdleTimeout time.Duration
	// WriteTimeout bounds each response write (0: no limit): a client that
	// stops reading while the server still owes it responses is cut off
	// instead of blocking its connection on TCP backpressure forever.
	// Suspended during drain, like IdleTimeout.
	WriteTimeout time.Duration
}

// DefaultDrainGrace is the drain grace when Options.DrainGrace is 0.
const DefaultDrainGrace = 500 * time.Millisecond

// The scheduler's settings are constants: no deployment has needed another
// value, and one becomes a knob again only when a value other than these buys
// throughput or tail latency on a measured row.
const (
	// batchMax is the most adjacent single-op requests (OpGet/OpPut) from one
	// connection the scheduler coalesces into a single hinted transaction.
	// Coalescing amortizes admission, scheduling, and commit overhead across
	// the batch; because members are adjacent in one connection's burst,
	// program order per connection is preserved.
	batchMax = 16
	// admitWait is how long a batch may wait for one of the admission tokens
	// before it is shed with StatusRetry — bounded queueing instead of
	// collapse. There are 4×GOMAXPROCS tokens (see New): the request batches
	// allowed to execute on the engine at once. Read-lane runs take no token:
	// a snapshot read takes no latch, validates nothing and cannot abort, so
	// it never adds to the contention the tokens bound.
	admitWait = 2 * time.Millisecond
	// queueDepth is the most requests a connection decodes into one burst —
	// the server side of the pipelining window. Whatever the client pipelined
	// beyond it stays in the socket until the burst is executed and answered,
	// pushing back on the client through TCP flow control rather than
	// buffering unboundedly.
	queueDepth = 128
)

func (o Options) drainGrace() time.Duration {
	if o.DrainGrace > 0 {
		return o.DrainGrace
	}
	return DefaultDrainGrace
}

func (o Options) mapSpec() txengine.MapSpec {
	if o.MapSpec == (txengine.MapSpec{}) {
		return txengine.MapSpec{Kind: txengine.KindHash, Buckets: 1 << 16}
	}
	return o.MapSpec
}

// Counters are the server-level counters (the engine's transactional
// counters stay on Engine.Stats). Each connection bumps the cell that travels
// with its session (worker); Server.Counters sums the cells.
type Counters struct {
	Conns      uint64 // connections accepted
	Requests   uint64 // requests decoded
	Shed       uint64 // requests shed with StatusRetry (admission)
	Drained    uint64 // requests rejected with StatusDraining
	Batches    uint64 // coalesced multi-op batches executed
	BatchedOps uint64 // single-op requests executed inside those batches
	SnapServed uint64 // requests answered from the snapshot read lane
	Combined   uint64 `metric:"-"` // always 0 and hidden from printers: no cut is shared between connections any more (benchmark/ still reads the field)
	OCCServed  uint64 // requests answered StatusOK through the OCC path
	IdleClosed uint64 // connections closed by the idle-timeout read deadline
}

// Server serves the wire protocol over one hosted transactional map on one
// engine. Each connection gets one goroutine and, for as long as it lives, an
// engine session (Tx handle) of its own, and is served a burst at a time (see
// handle); responses are written in request order. On engines with
// CapSnapshot, read-only work — Gets and all-Read Txn batches — is answered
// from a snapshot cut the connection's own session pins (the read fast lane,
// see execLane).
type Server struct {
	eng  txengine.Engine
	m    txengine.Map[uint64]
	opts Options
	lane bool // false: OCC path only

	tokens   chan struct{}
	draining atomic.Bool
	doneCh   chan struct{}
	drainOne sync.Once

	mu    sync.Mutex
	ln    net.Listener
	conns map[net.Conn]struct{}
	// free holds the sessions of connections that have gone, for the next
	// connections to take: an engine session cannot be released, and every one
	// ever created is a slot that each commit and each snapshot pin walks.
	free []worker
	wg   sync.WaitGroup

	nextTid atomic.Int64
	cells   metrics.Cells[Counters] // one per session
}

// New builds a server over eng, creating the hosted map from opts.MapSpec.
// The engine must support dynamic transactions: OpTxn reads feed TxnAdd
// arithmetic, and coalesced batches return real in-transaction values.
func New(eng txengine.Engine, opts Options) (*Server, error) {
	if !eng.Caps().Has(txengine.CapTx | txengine.CapDynamicTx) {
		return nil, fmt.Errorf("server: engine %s needs dynamic transactions: %w", eng.Name(), txengine.ErrUnsupported)
	}
	m, err := eng.NewUintMap(opts.mapSpec())
	if err != nil {
		return nil, fmt.Errorf("server: hosted map: %w", err)
	}
	s := &Server{
		eng:    eng,
		m:      m,
		opts:   opts,
		tokens: make(chan struct{}, 4*runtime.GOMAXPROCS(0)), // sized to the host, not set
		doneCh: make(chan struct{}),
		conns:  map[net.Conn]struct{}{},
		lane:   eng.Caps().Has(txengine.CapSnapshot),
	}
	for range cap(s.tokens) {
		s.tokens <- struct{}{}
	}
	return s, nil
}

// Map exposes the hosted map (recovery audits read through it in-process).
func (s *Server) Map() txengine.Map[uint64] { return s.m }

// Engine exposes the served engine.
func (s *Server) Engine() txengine.Engine { return s.eng }

// ReadLaneEnabled reports whether the snapshot read fast lane is active.
func (s *Server) ReadLaneEnabled() bool { return s.lane }

// Counters snapshots the server-level counters.
func (s *Server) Counters() Counters { return s.cells.Sum() }

// Serve accepts connections on ln until Drain (returns nil) or a listener
// failure (returns the error).
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining.Load() {
		s.mu.Unlock()
		ln.Close()
		return nil
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		c, err := ln.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil
			}
			return err
		}
		// Registration is under the same lock Drain flips the flag under,
		// so every connection either registers before the drain critical
		// section (and gets its I/O deadline set there) or observes
		// draining here and is turned away.
		s.mu.Lock()
		if s.draining.Load() {
			s.mu.Unlock()
			c.Close()
			continue
		}
		s.wg.Add(1)
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		go s.handle(c)
	}
}

// Drain gracefully shuts the server down: stop accepting, reject requests
// that arrive from now on with StatusDraining, let every connection finish
// the requests it already pipelined (bounded by DrainGrace), then make the
// engine durable (Persister.Sync) so every acknowledged commit survives a
// subsequent crash. The engine stays open: its owner closes it. Safe to call
// from any goroutine and more than once; every call blocks until the drain
// completes.
func (s *Server) Drain() {
	s.drainOne.Do(func() {
		s.mu.Lock()
		s.draining.Store(true)
		if s.ln != nil {
			s.ln.Close()
		}
		deadline := time.Now().Add(s.opts.drainGrace())
		for c := range s.conns {
			c.SetDeadline(deadline)
		}
		s.mu.Unlock()
		s.wg.Wait()
		if p, ok := s.eng.(txengine.Persister); ok && len(p.Devices()) > 0 {
			p.Sync()
		}
		close(s.doneCh)
	})
	<-s.doneCh
}

// pendReq is one decoded request of a connection's burst. shed marks
// requests decoded after drain began: they keep their place in the burst
// (preserving response order) but are answered StatusDraining unexecuted.
// read marks lane-eligible requests (OpGet, or OpTxn whose ops are all
// TxnRead), classified once at decode time.
type pendReq struct {
	req  Request
	shed bool
	read bool
}

// keptOps is the largest op slice a burst slot keeps for its next request:
// the common transaction decodes into storage its slot already owns, and one
// huge Txn does not pin its slice for the life of the connection.
const keptOps = 64

// allRead reports whether every op of an OpTxn is a TxnRead.
func allRead(ops []TxnOp) bool {
	for i := range ops {
		if ops[i].Kind != TxnRead {
			return false
		}
	}
	return true
}

// proc is one connection's state: the engine session it holds while it
// lives, and every scratch buffer the hot path reuses instead of allocating —
// the burst, the blocking read's frame buffer, hint keys, read results, the
// encoded-response buffer, and a Response value whose address is stable so
// encoding never escapes to the heap.
type proc struct {
	s *Server
	worker
	timer *time.Timer

	burst   []pendReq // cap is the queue depth; slots keep their op storage
	rbuf    []byte
	keys    []uint64
	results []ReadResult
	wbuf    []byte
	resp    Response

	// The read run execLane is serving, and serveRun bound once: fields
	// rather than locals captured by a closure, so a run allocates nothing.
	run   []pendReq
	serve func(i int, cut uint64)

	// Likewise the request execTxn runs and the batch execBatch runs, and
	// the bodies they hand Run.
	txn                *Request
	batch              []pendReq
	txnBody, batchBody func() error

	// lastWriteTS is the engine commit timestamp of the most recent write
	// through tx — this connection's, or a previous holder's of the session,
	// which is merely conservative; a snapshot cut must reach it before the
	// lane may serve this connection's reads (read-your-writes — see
	// execLane).
	lastWriteTS uint64
}

// worker is an engine session and the counter cell that goes with it, so the
// server holds no more cells than sessions.
type worker struct {
	tx txengine.Tx
	ct *Counters
}

// session takes a session off the free list, or creates the engine's next.
func (s *Server) session() worker {
	s.mu.Lock()
	n := len(s.free)
	if n == 0 {
		s.mu.Unlock()
		return worker{s.eng.NewWorker(int(s.nextTid.Add(1))), s.cells.New()}
	}
	w := s.free[n-1]
	s.free = s.free[:n-1]
	s.mu.Unlock()
	return w
}

// handle serves one connection, one burst at a time: read what the client
// has pipelined, answer it in one pass over the engine, push the responses
// with one write. A read or decode error still answers everything decoded
// before it, then closes. The connection's session goes back on the free list
// once the last burst has been executed.
func (s *Server) handle(c net.Conn) {
	defer s.wg.Done()
	defer c.Close()
	p := &proc{s: s, worker: s.session(), burst: make([]pendReq, 0, queueDepth)}
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.free = append(s.free, p.worker)
		s.mu.Unlock()
	}()
	atomic.AddUint64(&p.ct.Conns, 1)
	p.serve, p.txnBody, p.batchBody = p.serveRun, p.runTxn, p.runBatch
	p.lastWriteTS = txengine.LastCommitTS(p.tx)
	p.timer = time.NewTimer(time.Hour)
	if !p.timer.Stop() {
		<-p.timer.C
	}
	br := bufio.NewReaderSize(c, 64<<10)
	for {
		err := p.readBurst(c, br)
		if len(p.burst) > 0 {
			atomic.AddUint64(&p.ct.Requests, uint64(len(p.burst)))
			p.exec(p.burst, s.lane)
			if !s.writeFrames(c, p.wbuf) {
				return
			}
			p.wbuf = p.wbuf[:0]
		}
		if err != nil {
			return
		}
	}
}

// readBurst blocks for one frame, then takes every further frame that is
// already whole in the read buffer, up to the queue depth. A frame that is
// not whole yet — a split segment, or a Txn larger than the buffer — ends
// the burst, so it never delays the answers to the requests before it: the
// next call blocks for its remainder. So does a malformed length prefix,
// which that blocking read then reports. Because every frame but the first
// fits the read buffer beside its predecessors, a burst's responses are
// bounded by about the buffer's size plus one maximal response.
//
// With Options.IdleTimeout set, the read deadline is re-armed before each
// blocking read so an idle connection is closed rather than pinned; once
// drain begins the re-arming stops and Drain's absolute deadline rules (a
// reset racing the drain flag extends that one connection's bound by at most
// the idle timeout).
func (p *proc) readBurst(c net.Conn, br *bufio.Reader) error {
	s := p.s
	p.burst = p.burst[:0]
	if idle := s.opts.IdleTimeout; idle > 0 && !s.draining.Load() {
		c.SetReadDeadline(time.Now().Add(idle))
	}
	if err := cpFrameRead.Hit(); err != nil {
		return err // injected input fault: the connection drops as on a failed read
	}
	body, err := ReadFrame(br, p.rbuf)
	if err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() && !s.draining.Load() {
			atomic.AddUint64(&p.ct.IdleClosed, 1)
		}
		return err
	}
	p.rbuf = body
	err = p.decode(body)
	for err == nil && len(p.burst) < cap(p.burst) {
		if body = bufferedFrame(br); body == nil {
			break
		}
		if err = cpFrameRead.Hit(); err != nil {
			break
		}
		err = p.decode(body) // in place: the request keeps no reference to body
		br.Discard(4 + len(body))
	}
	return err
}

// decode appends one request to the burst, stamping shed at decode time: a
// drain that begins mid-burst answers the rest of that burst StatusDraining,
// in order.
func (p *proc) decode(body []byte) error {
	n := len(p.burst)
	slot := &p.burst[:n+1][n]
	ops := slot.req.Ops[:0]
	if cap(ops) > keptOps {
		ops = nil
	}
	req, err := DecodeRequestReuse(body, ops)
	if err != nil {
		return err
	}
	if req.Ops == nil {
		req.Ops = ops // a single-op request leaves the slot's storage to the next Txn
	}
	*slot = pendReq{
		req:  req,
		shed: p.s.draining.Load(),
		read: req.Op == OpGet || (req.Op == OpTxn && allRead(req.Ops)),
	}
	p.burst = p.burst[:n+1]
	return nil
}

// writeFrames pushes one burst's encoded responses onto the wire with one
// write, honoring the write deadline (suspended during drain, whose absolute
// deadline already bounds the connection) and the frame-write fault point. A
// false return means the connection must die: a real write error, an
// injected error, or an injected torn write — for the latter a strict prefix
// of the bytes goes out first, so the client sees the stream truncated,
// exactly what a connection dying mid-send produces.
func (s *Server) writeFrames(c net.Conn, buf []byte) bool {
	if n, torn := cpFrameWrite.Torn(len(buf)); torn {
		c.Write(buf[:n])
		return false
	}
	if cpFrameWrite.Hit() != nil {
		return false
	}
	if wt := s.opts.WriteTimeout; wt > 0 && !s.draining.Load() {
		c.SetWriteDeadline(time.Now().Add(wt))
	}
	_, err := c.Write(buf)
	return err == nil
}

// exec answers a burst, appending the responses to p.wbuf in request order.
// It walks the burst as maximal runs, executed strictly in order so a read
// following this connection's write observes it: shed requests are refused;
// with the lane on, a contiguous stretch of reads of any length is answered
// from one snapshot cut (falling back, lane off, to the OCC path when the cut
// trails this connection's own last write); an OpTxn runs alone; and adjacent
// single-ops are coalesced, batchMax at a time, into one hinted transaction.
func (p *proc) exec(burst []pendReq, lane bool) {
	for len(burst) > 0 {
		first, n := &burst[0], 1
		switch {
		case first.shed:
			for n < len(burst) && burst[n].shed {
				n++
			}
			atomic.AddUint64(&p.ct.Drained, uint64(n))
			p.fail(burst[:n], StatusDraining, "")
		case lane && first.read:
			for n < len(burst) && burst[n].read && !burst[n].shed {
				n++
			}
			if !p.execLane(burst[:n]) {
				p.exec(burst[:n], false)
			}
		default:
			if first.req.Op != OpTxn {
				for n < len(burst) && n < batchMax && burst[n].req.Op != OpTxn &&
					!burst[n].shed && !(lane && burst[n].read) {
					n++
				}
			}
			p.execOCC(burst[:n])
		}
		burst = burst[n:]
	}
}

// fail answers every request of batch with a status that carries no result.
func (p *proc) fail(batch []pendReq, status byte, msg string) {
	for i := range batch {
		p.resp = Response{ID: batch[i].req.ID, Op: batch[i].req.Op, Status: status, Err: msg}
		p.wbuf = AppendResponse(p.wbuf, &p.resp)
	}
}

// execLane serves one read run — the burst's whole contiguous stretch of
// Gets and all-Read Txns — from one snapshot cut pinned on the connection's
// own session: nothing validates, aborts or retries, no other connection is
// waited for, and an all-Read Txn is never seen half-applied. The pin is taken
// and released in here, so it is never held across socket I/O. A cut that
// trails this connection's own last write (a concurrent writer elsewhere is
// still sealing) serves nothing and reports false, preserving strict
// read-your-writes; so does a session with no snapshot tier behind it.
func (p *proc) execLane(run []pendReq) bool {
	p.run = run
	cut, ok := txengine.SnapshotReadBatch(p.tx, 1, p.serve)
	if !ok || cut < p.lastWriteTS {
		return false
	}
	atomic.AddUint64(&p.ct.SnapServed, uint64(len(run)))
	ri := 0
	for i := range run {
		r := &run[i].req
		p.resp = Response{ID: r.ID, Op: r.Op, Status: StatusOK}
		if r.Op == OpTxn {
			p.resp.Reads = p.results[ri : ri+len(r.Ops)]
			ri += len(r.Ops)
		} else {
			p.resp.Found, p.resp.Val = p.results[ri].Found, p.results[ri].Val
			ri++
		}
		p.wbuf = AppendResponse(p.wbuf, &p.resp)
	}
	return true
}

// serveRun reads p.run at the pinned cut into p.results, one entry per read
// in request order — unless the cut trails, when execLane falls the run back.
func (p *proc) serveRun(_ int, cut uint64) {
	if cut < p.lastWriteTS {
		return
	}
	p.results = p.results[:0]
	for i := range p.run {
		r := &p.run[i].req
		if r.Op == OpGet {
			v, found := p.s.m.Get(p.tx, r.Key)
			p.results = append(p.results, ReadResult{Found: found, Val: v})
			continue
		}
		for oi := range r.Ops {
			v, found := p.s.m.Get(p.tx, r.Ops[oi].Key)
			p.results = append(p.results, ReadResult{Found: found, Val: v})
		}
	}
}

// execOCC runs one batch — a single request or several coalesced single-ops
// — through admission control and the engine's transactional path, and
// appends the responses to p.wbuf.
func (p *proc) execOCC(batch []pendReq) {
	s := p.s
	// Admission: take a token, waiting at most admitWait; shed the whole
	// batch with StatusRetry rather than queueing without bound.
	select {
	case <-s.tokens:
	default:
		p.timer.Reset(admitWait)
		select {
		case <-s.tokens:
			if !p.timer.Stop() {
				<-p.timer.C
			}
		case <-p.timer.C:
			p.shed(batch)
			return
		}
	}
	var err error
	if len(batch) == 1 {
		if batch[0].req.Op == OpTxn {
			err = p.execTxn(&batch[0].req)
		} else {
			p.execSingle(&batch[0].req)
		}
	} else {
		err = p.execBatch(batch)
	}
	s.tokens <- struct{}{}
	// Writes advance the connection's read-your-writes watermark; reads
	// leave it where it was (LastCommitTS only moves on a published write).
	p.lastWriteTS = txengine.LastCommitTS(p.tx)
	switch {
	case err == nil:
		atomic.AddUint64(&p.ct.OCCServed, uint64(len(batch)))
		for i := range batch {
			r := &batch[i].req
			p.resp = Response{ID: r.ID, Op: r.Op, Status: StatusOK}
			if r.Op == OpTxn {
				p.resp.Reads = p.results
			} else {
				p.resp.Found, p.resp.Val = p.results[i].Found, p.results[i].Val
			}
			p.wbuf = AppendResponse(p.wbuf, &p.resp)
		}
	case errors.Is(err, txengine.ErrBusinessAbort):
		p.fail(batch, StatusAborted, "")
	default:
		p.fail(batch, StatusErr, err.Error())
	}
}

func (p *proc) shed(batch []pendReq) {
	atomic.AddUint64(&p.ct.Shed, uint64(len(batch)))
	p.fail(batch, StatusRetry, "")
}

// execSingle runs one Get/Put as a standalone auto-committed operation —
// the cheapest execution every engine offers.
func (p *proc) execSingle(r *Request) {
	p.results = p.results[:0]
	if r.Op == OpGet {
		v, ok := p.s.m.Get(p.tx, r.Key)
		p.results = append(p.results, ReadResult{Found: ok, Val: v})
		return
	}
	prev, had := p.s.m.Put(p.tx, r.Key, r.Val)
	p.results = append(p.results, ReadResult{Found: had, Val: prev})
}

// execBatch coalesces adjacent single-ops from one connection into a single
// transaction with every key pre-declared, so the Medley family latches its
// keys' stripes up front. One admission token and one commit for the whole
// batch.
func (p *proc) execBatch(batch []pendReq) error {
	p.keys = p.keys[:0]
	for i := range batch {
		p.keys = append(p.keys, batch[i].req.Key)
	}
	txengine.HintKeys(p.tx, p.keys...)
	p.results = p.results[:0]
	p.batch = batch
	err := p.tx.Run(p.batchBody)
	if err == nil {
		atomic.AddUint64(&p.ct.Batches, 1)
		atomic.AddUint64(&p.ct.BatchedOps, uint64(len(batch)))
	}
	return err
}

// runBatch is execBatch's transaction body.
func (p *proc) runBatch() error {
	s := p.s
	p.results = p.results[:0]
	for i := range p.batch {
		r := &p.batch[i].req
		if r.Op == OpGet {
			v, ok := s.m.Get(p.tx, r.Key)
			p.results = append(p.results, ReadResult{Found: ok, Val: v})
		} else {
			prev, had := s.m.Put(p.tx, r.Key, r.Val)
			p.results = append(p.results, ReadResult{Found: had, Val: prev})
		}
	}
	return nil
}

// execTxn runs one OpTxn atomically, keys pre-declared. TxnAdd underflow
// business-aborts the whole transaction (StatusAborted to the client,
// nothing applied).
func (p *proc) execTxn(r *Request) error {
	p.keys = p.keys[:0]
	for _, op := range r.Ops {
		p.keys = append(p.keys, op.Key)
	}
	txengine.HintKeys(p.tx, p.keys...)
	p.results = p.results[:0]
	p.txn = r
	return p.tx.Run(p.txnBody)
}

// runTxn is execTxn's transaction body.
func (p *proc) runTxn() error {
	s := p.s
	p.results = p.results[:0]
	for _, op := range p.txn.Ops {
		switch op.Kind {
		case TxnRead:
			v, ok := s.m.Get(p.tx, op.Key)
			p.results = append(p.results, ReadResult{Found: ok, Val: v})
		case TxnWrite:
			s.m.Put(p.tx, op.Key, op.Arg)
		case TxnAdd:
			v, _ := s.m.Get(p.tx, op.Key)
			delta := int64(op.Arg)
			if delta < 0 && v < uint64(-delta) {
				return p.tx.Abort()
			}
			s.m.Put(p.tx, op.Key, v+uint64(delta))
		}
	}
	return nil
}
