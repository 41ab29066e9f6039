package server

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"medley/internal/chaos"
	"medley/internal/txengine"
)

// pipeListener is an in-memory net.Listener: dial hands the server one end of
// a net.Pipe wrapped in a countConn. A pipe has no socket buffer — a Write
// returns once the peer has read every byte of it — so a test decides exactly
// which bytes the server has seen when, and the counts are deterministic.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	// Buffered so a test can queue connections before Serve starts accepting.
	return &pipeListener{conns: make(chan net.Conn, 64), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// countConn counts the Read and Write calls the server makes on its end: the
// serving tier's deterministic stand-in for read(2)/write(2).
type countConn struct {
	net.Conn
	reads, writes atomic.Int64
}

func (c *countConn) Read(b []byte) (int, error) {
	c.reads.Add(1)
	return c.Conn.Read(b)
}

func (c *countConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

// dial returns the client's end and the server's counting end.
func (l *pipeListener) dial(t *testing.T) (net.Conn, *countConn) {
	cl, sv := net.Pipe()
	cl.SetReadDeadline(time.Now().Add(10 * time.Second)) // an answer that never comes fails the test, not the run
	cc := &countConn{Conn: sv}
	l.conns <- cc
	t.Cleanup(func() { cl.Close() })
	return cl, cc
}

func servePipe(t *testing.T, engine string, cfg txengine.Config, opts Options) (*Server, *pipeListener) {
	t.Helper()
	ln := newPipeListener()
	return serveOn(t, ln, engine, cfg, opts), ln
}

// frames encodes requests back to back, ids 1..n.
func frames(reqs ...Request) []byte {
	var buf []byte
	for i := range reqs {
		reqs[i].ID = uint64(i + 1)
		buf = AppendRequest(buf, &reqs[i])
	}
	return buf
}

func get(k uint64) Request    { return Request{Op: OpGet, Key: k} }
func put(k, v uint64) Request { return Request{Op: OpPut, Key: k, Val: v} }

// want is one expected response: status, and for StatusOK single-ops the
// result.
type want struct {
	status byte
	found  bool
	val    uint64
}

func okResp(found bool, val uint64) want { return want{StatusOK, found, val} }

// expect reads len(ws) responses off br and checks each against ws, ids
// counting up from firstID: the exact response sequence, in request order.
func expect(t *testing.T, br *bufio.Reader, firstID uint64, ws ...want) {
	t.Helper()
	var resp Response
	for i, w := range ws {
		body, err := ReadFrame(br, nil)
		if err != nil {
			t.Fatalf("response %d of %d: %v", i+1, len(ws), err)
		}
		if err := DecodeResponse(body, &resp); err != nil {
			t.Fatalf("response %d: %v", i+1, err)
		}
		if resp.ID != firstID+uint64(i) || resp.Status != w.status {
			t.Fatalf("response %d: id %d status %d, want id %d status %d", i+1, resp.ID, resp.Status, firstID+uint64(i), w.status)
		}
		if w.status == StatusOK && resp.Op != OpTxn && (resp.Found != w.found || resp.Val != w.val) {
			t.Fatalf("response %d: found=%v val=%d, want found=%v val=%d", i+1, resp.Found, resp.Val, w.found, w.val)
		}
	}
}

// expectClosed checks that the server closed the connection with nothing
// further on it.
func expectClosed(t *testing.T, br *bufio.Reader) {
	t.Helper()
	if b, err := br.ReadByte(); err != io.EOF {
		t.Fatalf("want the connection closed after the last answer, read %#x, %v", b, err)
	}
}

func mustWrite(t *testing.T, c net.Conn, b []byte) {
	t.Helper()
	c.SetWriteDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.Write(b); err != nil {
		t.Fatalf("client write: %v", err)
	}
}

// TestServeSocketBudget is the serving tier's deterministic socket budget
// (the analogue of the 4/4/4 device pin): however many requests a client
// pipelines in one write, the server takes them off the connection in one
// read and answers a burst with one write. Before the burst loop, the first
// case took 7 writes (one per exec round of at most 16 requests).
func TestServeSocketBudget(t *testing.T) {
	transfer := func(a, b uint64) Request {
		return Request{Op: OpTxn, Ops: []TxnOp{{Kind: TxnRead, Key: a}, AddDelta(a, -1), AddDelta(b, +1), {Kind: TxnWrite, Key: 1 << 20, Arg: a}}}
	}
	gets := func(n int) (reqs []Request, ws []want) {
		for i := 0; i < n; i++ {
			reqs = append(reqs, get(uint64(i%8)))
			ws = append(ws, okResp(true, 1000))
		}
		return
	}
	type burst struct {
		reqs []Request
		ws   []want
	}
	cases := []struct {
		name    string
		burst   func() burst
		writes  int64
		batches uint64 // coalesced batches the burst must have run as
		batched uint64
	}{
		{name: "100 gets", writes: 1, burst: func() burst { r, w := gets(100); return burst{r, w} }},
		{name: "300 gets, queue 128", writes: 3, burst: func() burst { r, w := gets(300); return burst{r, w} }},
		{name: "64 four-op txns", writes: 1, burst: func() burst {
			var b burst
			for i := 0; i < 64; i++ {
				b.reqs = append(b.reqs, transfer(uint64(i%8), uint64((i+1)%8)))
				b.ws = append(b.ws, want{status: StatusOK})
			}
			return b
		}},
		// 122 Gets around one stretch of 6 Puts fill one burst of queueDepth
		// (128): still one write, and the Puts, keys 0-3 then 0-1 again, run
		// as one batch within batchMax.
		{name: "95/5 gets/puts", writes: 1, batches: 1, batched: 6,
			burst: func() burst {
				r, w := gets(76)
				for i := uint64(0); i < 6; i++ {
					r = append(r, put(i%4, 2000+i))
					prev := uint64(1000)
					if i >= 4 {
						prev = 2000 + i - 4
					}
					w = append(w, okResp(true, prev))
				}
				for i := uint64(0); i < 46; i++ {
					switch k := i % 8; {
					case k < 2:
						w = append(w, okResp(true, 2004+k))
					case k < 4:
						w = append(w, okResp(true, 2000+k))
					default:
						w = append(w, okResp(true, 1000))
					}
					r = append(r, get(i%8))
				}
				return burst{r, w}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, ln := servePipe(t, "medley-sharded", txengine.Config{Shards: 2}, Options{})
			seed, _ := ln.dial(t)
			sbr := bufio.NewReader(seed)
			for k := uint64(0); k < 8; k++ {
				mustWrite(t, seed, frames(put(k, 1000)))
				expect(t, sbr, 1, okResp(false, 0))
			}
			before := s.Counters()

			cl, sv := ln.dial(t)
			b := tc.burst()
			mustWrite(t, cl, frames(b.reqs...)) // ONE write
			expect(t, bufio.NewReaderSize(cl, 64<<10), 1, b.ws...)
			if got := sv.writes.Load(); got != tc.writes {
				t.Errorf("server answered %d requests with %d writes, budget exactly %d", len(b.reqs), got, tc.writes)
			}
			// One read takes the client's write; a second may already be
			// waiting for the next burst.
			if got := sv.reads.Load(); got > 2 {
				t.Errorf("server made %d reads for one client write, budget 2", got)
			}
			after := s.Counters()
			if got := after.Requests - before.Requests; got != uint64(len(b.reqs)) {
				t.Errorf("Requests moved by %d, want %d", got, len(b.reqs))
			}
			if gotB, gotO := after.Batches-before.Batches, after.BatchedOps-before.BatchedOps; gotB != tc.batches || gotO != tc.batched {
				t.Errorf("coalesced %d ops in %d batches, want %d in %d", gotO, gotB, tc.batched, tc.batches)
			}
		})
	}
}

// TestServeBurstSplitFrame: a frame that is not whole yet — its header or
// its body split across two client writes — never delays the answers to the
// requests decoded before it: they are executed and written first, then the
// server waits for the remainder.
func TestServeBurstSplitFrame(t *testing.T) {
	for _, tc := range []struct {
		name string
		cut  int // bytes of the second frame in the first write
	}{{"header", 2}, {"body", 4 + 11}} {
		t.Run(tc.name, func(t *testing.T) {
			_, ln := servePipe(t, "medley-sharded", txengine.Config{Shards: 2}, Options{})
			cl, sv := ln.dial(t)
			br := bufio.NewReader(cl)
			first, second := frames(put(1, 10)), frames(get(1), get(2))
			mustWrite(t, cl, append(first, second[:tc.cut]...))
			expect(t, br, 1, okResp(false, 0)) // answered before the rest of frame 2 exists
			mustWrite(t, cl, second[tc.cut:])
			expect(t, br, 1, okResp(true, 10), okResp(false, 0))
			if got := sv.writes.Load(); got != 2 {
				t.Errorf("%d server writes, want 2 (one per burst)", got)
			}
		})
	}
}

// TestServeBurstTxnLargerThanReadBuffer: a 5000-op Txn (85 KB; the read
// buffer is 64 KB) behind 10 Gets. The Gets are answered while the Txn's
// tail has not even been sent.
func TestServeBurstTxnLargerThanReadBuffer(t *testing.T) {
	_, ln := servePipe(t, "medley-sharded", txengine.Config{Shards: 2}, Options{})
	cl, _ := ln.dial(t)
	br := bufio.NewReaderSize(cl, 64<<10)
	mustWrite(t, cl, frames(put(7, 70)))
	expect(t, br, 1, okResp(false, 0))

	var reqs []Request
	var ws []want
	for i := 0; i < 10; i++ {
		reqs = append(reqs, get(7))
		ws = append(ws, okResp(true, 70))
	}
	big := Request{Op: OpTxn, Ops: make([]TxnOp, 5000)}
	for i := range big.Ops {
		big.Ops[i] = TxnOp{Kind: TxnRead, Key: 7}
	}
	wire := frames(append(reqs, big)...)
	if len(wire) < 80<<10 {
		t.Fatalf("burst is %d bytes; the Txn must exceed the 64 KB read buffer", len(wire))
	}
	head := 10*(4+reqHeaderLen+8) + 20<<10
	mustWrite(t, cl, wire[:head])
	expect(t, br, 1, ws...) // the Txn's tail is still unsent
	mustWrite(t, cl, wire[head:])
	var resp Response
	body, err := ReadFrame(br, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := DecodeResponse(body, &resp); err != nil || resp.ID != 11 || !resp.OK() || len(resp.Reads) != 5000 {
		t.Fatalf("big txn: id %d status %d, %d reads, %v", resp.ID, resp.Status, len(resp.Reads), err)
	}
	for i, r := range resp.Reads {
		if !r.Found || r.Val != 70 {
			t.Fatalf("big txn read %d: %+v", i, r)
		}
	}
}

// TestServeBurstGarbageFrame: garbage as the 6th of 10 frames — the five
// requests before it are answered, then the connection closes and nothing
// after the garbage executes. Both kinds: a body that does not decode (found
// while decoding the burst) and a length prefix no frame may carry (left to
// the next blocking read to report).
func TestServeBurstGarbageFrame(t *testing.T) {
	for _, tc := range []struct {
		name    string
		garbage []byte
	}{
		{"undecodable body", []byte{0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 6, 99}},
		{"zero-length frame", []byte{0, 0, 0, 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, ln := servePipe(t, "medley-sharded", txengine.Config{Shards: 2}, Options{})
			cl, _ := ln.dial(t)
			wire := frames(put(1, 1), put(2, 2), get(1), get(2), get(3))
			wire = append(wire, tc.garbage...)
			wire = append(wire, frames(put(3, 3), put(4, 4), put(5, 5), put(6, 6))...)
			mustWrite(t, cl, wire)
			br := bufio.NewReader(cl)
			expect(t, br, 1, okResp(false, 0), okResp(false, 0), okResp(true, 1), okResp(true, 2), okResp(false, 0))
			expectClosed(t, br)
			if got := s.Counters().Requests; got != 5 {
				t.Errorf("%d requests decoded, want the 5 before the garbage", got)
			}
		})
	}
}

// TestServeBurstDrainMidBurst: shed is stamped at decode time, so a drain
// that begins between frames 3 and 4 of one burst answers 3 × OK and then
// StatusDraining for the rest, in order, executing none of them.
func TestServeBurstDrainMidBurst(t *testing.T) {
	s, ln := servePipe(t, "medley-sharded", txengine.Config{Shards: 2}, Options{})
	t.Cleanup(chaos.DisarmAll)
	// The hook runs on the connection's goroutine before it takes frame 4.
	// Armed before the dial, so the connection's first hit is hit 0.
	err := chaos.Arm("server.frame.read", chaos.Fault{Kind: chaos.Delay, After: 3, Times: 1, Action: func() {
		go s.Drain()
		for !s.draining.Load() {
			runtime.Gosched()
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	cl, sv := ln.dial(t)
	mustWrite(t, cl, frames(put(1, 1), get(1), put(2, 2), put(3, 3), get(3), put(1, 9), get(1), get(2)))
	br := bufio.NewReader(cl)
	draining := want{status: StatusDraining}
	expect(t, br, 1, okResp(false, 0), okResp(true, 1), okResp(false, 0), draining, draining, draining, draining, draining)
	if got := sv.writes.Load(); got != 1 {
		t.Errorf("%d server writes for the burst, want 1", got)
	}
	cl.Close()
	s.Drain()
	if got := s.Counters(); got.Drained != 5 || got.Requests != 8 || got.SnapServed+got.OCCServed != 3 {
		t.Errorf("counters after a mid-burst drain: %+v", got)
	}
}

// TestServeBurstTornWrite: a torn write on a burst's one write gives the
// client a strict prefix of the burst's response bytes and then the close,
// and the connection's goroutine is gone.
func TestServeBurstTornWrite(t *testing.T) {
	_, ln := servePipe(t, "medley-sharded", txengine.Config{Shards: 2}, Options{})
	base := runtime.NumGoroutine()
	cl, sv := ln.dial(t)
	t.Cleanup(chaos.DisarmAll)
	if err := chaos.Arm("server.frame.write", chaos.Fault{Kind: chaos.Torn, Times: 1}); err != nil {
		t.Fatal(err)
	}
	var reqs []Request
	var full []byte
	for i := uint64(1); i <= 10; i++ {
		reqs = append(reqs, get(i))
		full = AppendResponse(full, &Response{ID: i, Op: OpGet, Status: StatusOK})
	}
	mustWrite(t, cl, frames(reqs...))
	got, err := io.ReadAll(cl)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || len(got) >= len(full) || !bytes.Equal(got, full[:len(got)]) {
		t.Fatalf("client saw %d bytes, want a strict non-empty prefix of the burst's %d", len(got), len(full))
	}
	if w := sv.writes.Load(); w != 1 {
		t.Errorf("%d server writes, want the one torn write", w)
	}
	waitGoroutines(t, base)
}

// TestServeGoroutines: however a connection dies while the server lives on,
// its goroutine goes with it. (Every drain is checked by serveOn's cleanup.)
func TestServeGoroutines(t *testing.T) {
	t.Cleanup(chaos.DisarmAll)
	for _, tc := range []struct {
		name string
		opts Options
		kill func(t *testing.T, s *Server, cl net.Conn)
	}{
		{"frame write fault", Options{}, func(t *testing.T, s *Server, cl net.Conn) {
			if err := chaos.Arm("server.frame.write", chaos.Fault{Kind: chaos.Error, Times: 1}); err != nil {
				t.Fatal(err)
			}
			mustWrite(t, cl, frames(get(1), get(2)))
			expectClosed(t, bufio.NewReader(cl))
		}},
		{"idle timeout", Options{IdleTimeout: 100 * time.Millisecond}, func(t *testing.T, s *Server, cl net.Conn) {
			expectClosed(t, bufio.NewReader(cl))
			if got := s.Counters().IdleClosed; got != 1 {
				t.Errorf("IdleClosed = %d, want 1", got)
			}
		}},
		{"client stops reading", Options{WriteTimeout: 100 * time.Millisecond}, func(t *testing.T, s *Server, cl net.Conn) {
			// The requests are taken; the responses never are.
			mustWrite(t, cl, frames(get(1), get(2), get(3)))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, ln := servePipe(t, "medley-sharded", txengine.Config{Shards: 2}, tc.opts)
			base := runtime.NumGoroutine()
			cl, _ := ln.dial(t)
			tc.kill(t, s, cl)
			waitGoroutines(t, base)
			chaos.DisarmAll()
			// The server is still serving.
			cl2, _ := ln.dial(t)
			mustWrite(t, cl2, frames(get(1)))
			expect(t, bufio.NewReader(cl2), 1, okResp(false, 0))
		})
	}
}
