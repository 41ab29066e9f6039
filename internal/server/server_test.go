package server

import (
	"bufio"
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	"medley/internal/txengine"
)

// startServer builds an engine + server and serves it on a loopback
// listener, returning the server, its address, and a cleanup-registered
// drain.
func startServer(t *testing.T, engine string, cfg txengine.Config, opts Options) (*Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	return serveOn(t, ln, engine, cfg, opts), ln.Addr().String()
}

// serveOn is startServer on a listener of the caller's choosing. Its cleanup
// drains, checks Serve's verdict, closes the engine, and asserts that the
// goroutine count is back to what it was before the engine was built: no
// connection or engine goroutine outlives a drain and a close.
func serveOn(t *testing.T, ln net.Listener, engine string, cfg txengine.Config, opts Options) *Server {
	t.Helper()
	return serveWrapped(t, ln, engine, cfg, opts, func(e txengine.Engine) txengine.Engine { return e })
}

// serveWrapped is serveOn with the built engine passed through wrap before the
// server sees it, so a test can observe the calls the server makes on it, or
// change what the engine reports (noLane).
func serveWrapped(t *testing.T, ln net.Listener, engine string, cfg txengine.Config, opts Options,
	wrap func(txengine.Engine) txengine.Engine) *Server {
	t.Helper()
	before := runtime.NumGoroutine()
	eng, err := txengine.Build(engine, cfg)
	if err != nil {
		ln.Close()
		t.Fatalf("build %s: %v", engine, err)
	}
	eng = wrap(eng)
	s, err := New(eng, opts)
	if err != nil {
		eng.Close()
		ln.Close()
		t.Fatalf("server: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(ln) }()
	t.Cleanup(func() {
		s.Drain()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
		eng.Close()
		waitGoroutines(t, before)
	})
	return s
}

// noSnapEngine is the real engine with CapSnapshot masked out of its Caps:
// the server gives it no read lane, so every request runs through OCC.
type noSnapEngine struct{ txengine.Engine }

func (e noSnapEngine) Caps() txengine.Caps { return e.Engine.Caps() &^ txengine.CapSnapshot }

// noLane is serveWrapped's wrap for a server without the read lane.
func noLane(e txengine.Engine) txengine.Engine { return noSnapEngine{e} }

// holdTokens takes every admission token off s and returns the function that
// gives them back: until then, a batch on the OCC path waits out admitWait and
// is shed.
func holdTokens(s *Server) (release func()) {
	n := cap(s.tokens)
	for range n {
		<-s.tokens
	}
	return func() {
		for range n {
			s.tokens <- struct{}{}
		}
	}
}

// waitGoroutines fails the test unless the process's goroutine count comes
// back down to at most want within a bounded wait (goroutines unwind
// asynchronously after the close that ends them).
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Errorf("%d goroutines, want at most %d:\n%s", runtime.NumGoroutine(), want, buf[:runtime.Stack(buf, true)])
			return
		}
		time.Sleep(time.Millisecond)
	}
}

func dialT(t *testing.T, addr string) *Conn {
	t.Helper()
	c, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatalf("dial %s: %v", addr, err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestServeBasicOps covers the three ops end to end on a sharded engine:
// Get/Put round-trips, previous-value reporting, and a multi-op transaction
// with reads, writes, and adds.
func TestServeBasicOps(t *testing.T) {
	_, addr := startServer(t, "medley-sharded", txengine.Config{Shards: 2}, Options{})
	c := dialT(t, addr)

	if r, err := c.Get(10); err != nil || !r.OK() || r.Found {
		t.Fatalf("get missing key: %+v, %v", r, err)
	}
	if r, err := c.Put(10, 77); err != nil || !r.OK() || r.Found {
		t.Fatalf("first put: %+v, %v", r, err)
	}
	if r, err := c.Put(10, 88); err != nil || !r.OK() || !r.Found || r.Val != 77 {
		t.Fatalf("second put should report previous 77: %+v, %v", r, err)
	}
	if r, err := c.Get(10); err != nil || !r.OK() || !r.Found || r.Val != 88 {
		t.Fatalf("get after put: %+v, %v", r, err)
	}

	// A transaction reading two keys, writing one, adding on another.
	r, err := c.Txn([]TxnOp{
		{Kind: TxnRead, Key: 10},
		{Kind: TxnWrite, Key: 11, Arg: 5},
		AddDelta(11, 0), // read-modify-write of the value written above
		{Kind: TxnRead, Key: 12},
	})
	if err != nil || !r.OK() {
		t.Fatalf("txn: %+v, %v", r, err)
	}
	if len(r.Reads) != 2 || !r.Reads[0].Found || r.Reads[0].Val != 88 || r.Reads[1].Found {
		t.Fatalf("txn reads: %+v", r.Reads)
	}
	if r, err := c.Get(11); err != nil || !r.Found || r.Val != 5 {
		t.Fatalf("txn write visible: %+v, %v", r, err)
	}
}

// TestSendTxnTooManyOps: a transaction over MaxTxnOps ops fails fast
// client-side (no frame is ever sent; the server cannot even represent it),
// and the sticky error poisons both Flush and Recv.
func TestSendTxnTooManyOps(t *testing.T) {
	_, addr := startServer(t, "medley", txengine.Config{}, Options{})
	c := dialT(t, addr)

	if r, err := c.Put(1, 1); err != nil || !r.OK() {
		t.Fatalf("put before oversized txn: %+v, %v", r, err)
	}
	ops := make([]TxnOp, MaxTxnOps+1)
	for i := range ops {
		ops[i] = TxnOp{Kind: TxnRead, Key: uint64(i)}
	}
	if _, err := c.Txn(ops); err == nil {
		t.Fatal("oversized txn should fail client-side")
	}
	if err := c.Flush(); err == nil {
		t.Fatal("Flush after oversized txn should keep failing")
	}
	if _, err := c.Recv(); err == nil {
		t.Fatal("Recv after oversized txn should keep failing")
	}
	// Exactly MaxTxnOps is framable and accepted.
	c2 := dialT(t, addr)
	if r, err := c2.Txn(ops[:MaxTxnOps]); err != nil || !r.OK() {
		t.Fatalf("txn at MaxTxnOps: %+v, %v", r, err)
	}
}

// TestServeAddUnderflowAborts: a TxnAdd that would go negative rolls the
// whole transaction back with StatusAborted.
func TestServeAddUnderflowAborts(t *testing.T) {
	_, addr := startServer(t, "medley", txengine.Config{}, Options{})
	c := dialT(t, addr)

	if r, err := c.Put(1, 5); err != nil || !r.OK() {
		t.Fatalf("put: %+v, %v", r, err)
	}
	r, err := c.Txn([]TxnOp{AddDelta(1, -3)})
	if err != nil || !r.OK() {
		t.Fatalf("affordable add: %+v, %v", r, err)
	}
	r, err = c.Txn([]TxnOp{AddDelta(2, 100), AddDelta(1, -10)})
	if err != nil || r.Status != StatusAborted {
		t.Fatalf("underflow should abort: %+v, %v", r, err)
	}
	// Nothing from the aborted transaction applied — not even the first add.
	if r, _ := c.Get(1); r.Val != 2 {
		t.Fatalf("key 1 = %d after aborted txn, want 2", r.Val)
	}
	if r, _ := c.Get(2); r.Found {
		t.Fatalf("key 2 leaked from aborted txn: %+v", r)
	}
}

// TestServePipelining keeps a deep window of requests in flight on one
// connection and checks responses come back in request order.
func TestServePipelining(t *testing.T) {
	_, addr := startServer(t, "medley-sharded", txengine.Config{Shards: 4}, Options{})
	c := dialT(t, addr)

	const n = 200
	ids := make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			ids = append(ids, c.SendPut(uint64(i), uint64(i)*3))
		} else {
			ids = append(ids, c.SendGet(uint64(i-1)))
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	for i := 0; i < n; i++ {
		r, err := c.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if r.ID != ids[i] {
			t.Fatalf("response %d has id %d, want %d (out of order)", i, r.ID, ids[i])
		}
		if !r.OK() {
			t.Fatalf("response %d status %d", i, r.Status)
		}
		if i%2 == 1 && (!r.Found || r.Val != uint64(i-1)*3) {
			t.Fatalf("pipelined get %d: %+v, want %d", i, r, uint64(i-1)*3)
		}
	}
}

// TestServeBatchCoalescing pipelines 40 adjacent Puts and 40 Gets behind
// them in one write: the Puts must run as hinted transactions of at most
// batchMax (16) ops, 16+16+8, in program order, and the Gets read the last
// values back through the lane. A second burst of 17 Puts runs as one batch
// of 16 and a lone Put, which pins the limit itself.
func TestServeBatchCoalescing(t *testing.T) {
	s, ln := servePipe(t, "medley-sharded", txengine.Config{Shards: 4}, Options{})
	cl, _ := ln.dial(t)
	br := bufio.NewReader(cl)

	const n = 40
	var reqs []Request
	var ws []want
	for i := uint64(0); i < n; i++ {
		reqs = append(reqs, put(i%4, i)) // rewrites: order violations would show
		if i < 4 {
			ws = append(ws, okResp(false, 0))
		} else {
			ws = append(ws, okResp(true, i-4))
		}
	}
	for i := uint64(0); i < n; i++ {
		reqs = append(reqs, get(i%4))
		ws = append(ws, okResp(true, n-4+i%4)) // the last put to key k was n-4+k
	}
	mustWrite(t, cl, frames(reqs...))
	expect(t, br, 1, ws...)
	if got := s.Counters(); got.Batches != 3 || got.BatchedOps != n || got.SnapServed != n {
		t.Fatalf("want the %d Puts in 3 batches (16+16+8) and the Gets lane-served: %+v", n, got)
	}

	reqs, ws = reqs[:0], ws[:0]
	for i := uint64(0); i < 17; i++ {
		reqs = append(reqs, put(100+i, i))
		ws = append(ws, okResp(false, 0))
	}
	mustWrite(t, cl, frames(reqs...))
	expect(t, br, 1, ws...)
	if got := s.Counters(); got.Batches != 4 || got.BatchedOps != n+16 || got.OCCServed != n+17 {
		t.Fatalf("want 17 Puts as one batch of 16 and one alone: %+v", got)
	}
}

// TestServeAdmissionSheds holds every token so the next request waits out
// admitWait and sheds with StatusRetry — and succeeds again once the tokens
// return. The read lane is off: lane reads bypass token admission by design.
func TestServeAdmissionSheds(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := serveWrapped(t, ln, "medley", txengine.Config{}, Options{}, noLane)
	c := dialT(t, ln.Addr().String())

	release := holdTokens(s)
	r, err := c.Get(1)
	if err != nil || r.Status != StatusRetry {
		t.Fatalf("with the tokens held: %+v, %v; want StatusRetry", r, err)
	}
	release()
	if r, err := c.Get(1); err != nil || !r.OK() {
		t.Fatalf("after the tokens returned: %+v, %v", r, err)
	}
	if got := s.Counters(); got.Shed != 1 {
		t.Fatalf("shed not counted once: %+v", got)
	}
}

// TestServeAdmissionLaneBypassesTokens: with every admission token held,
// anything on the OCC path is shed once admitWait runs out — and pipelined
// Gets on eight connections are all answered, because a lane read takes no
// token.
func TestServeAdmissionLaneBypassesTokens(t *testing.T) {
	s, addr := startServer(t, "medley-sharded", txengine.Config{Shards: 2}, Options{})
	seed := dialT(t, addr)
	for k := uint64(0); k < 8; k++ {
		if r, err := seed.Put(k, k+1); err != nil || !r.OK() {
			t.Fatalf("seed %d: %+v, %v", k, r, err)
		}
	}
	defer holdTokens(s)()
	if r, err := seed.Put(0, 1); err != nil || r.Status != StatusRetry {
		t.Fatalf("put with the tokens held: %+v, %v; want StatusRetry", r, err)
	}

	const conns, depth = 8, 64
	errs := make(chan error, conns)
	for w := 0; w < conns; w++ {
		go func() {
			c, err := Dial(addr, time.Second)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < depth; i++ {
				c.SendGet(uint64(i % 8))
			}
			if err := c.Flush(); err != nil {
				errs <- err
				return
			}
			for i := 0; i < depth; i++ {
				r, err := c.Recv()
				if err != nil {
					errs <- err
					return
				}
				if !r.OK() || !r.Found || r.Val != uint64(i%8)+1 {
					errs <- fmt.Errorf("pipelined get %d: %+v", i, r)
					return
				}
			}
			errs <- nil
		}()
	}
	for w := 0; w < conns; w++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
	if got := s.Counters(); got.Shed != 1 || got.SnapServed != conns*depth {
		t.Errorf("shed=%d snapserved=%d, want the one Put shed and all %d Gets lane-served", got.Shed, got.SnapServed, conns*depth)
	}
}

// TestServeDrainRejectsNew: requests sent after drain begins are answered
// StatusDraining (when they arrive in the grace window) or the connection
// closes; either way the drain completes and acknowledged work is kept.
func TestServeDrainRejectsNew(t *testing.T) {
	s, addr := startServer(t, "medley", txengine.Config{}, Options{DrainGrace: 200 * time.Millisecond})
	c := dialT(t, addr)
	if r, err := c.Put(1, 1); err != nil || !r.OK() {
		t.Fatalf("pre-drain put: %+v, %v", r, err)
	}

	go s.Drain()
	for !s.draining.Load() {
		time.Sleep(time.Millisecond)
	}
	// Requests from here on must not execute. The server may already have
	// closed the connection; a clean error is as acceptable as the
	// explicit status.
	sawDraining := false
	for i := 0; i < 50; i++ {
		r, err := c.Put(2, uint64(i))
		if err != nil {
			break
		}
		if r.Status == StatusDraining {
			sawDraining = true
			break
		}
		if r.OK() {
			t.Fatalf("post-drain put executed: %+v", r)
		}
	}
	s.Drain()       // blocks until fully drained
	_ = sawDraining // either rejection mode is correct; execution is not
	// New connections are refused after drain.
	if _, err := Dial(addr, 0); err == nil {
		t.Fatal("dial succeeded after drain")
	}
}

// TestServeRejectsStaticEngine: engines without dynamic transactions cannot
// host the server.
func TestServeRejectsStaticEngine(t *testing.T) {
	eng, err := txengine.Build("lftt", txengine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	if _, err := New(eng, Options{}); err == nil {
		t.Fatal("New accepted a static-transaction engine")
	}
}

// TestServeManyConnections exercises concurrent connections with pipelined
// mixed load — a miniature of the txload shape — and audits total
// conservation through transfer transactions.
func TestServeManyConnections(t *testing.T) {
	s, addr := startServer(t, "medley-sharded", txengine.Config{Shards: 4}, Options{})
	const conns = 16
	const accounts = 64
	const opening = uint64(1000)

	// Fund the accounts.
	c0 := dialT(t, addr)
	for a := uint64(0); a < accounts; a++ {
		if r, err := c0.Put(a, opening); err != nil || !r.OK() {
			t.Fatalf("fund %d: %+v, %v", a, r, err)
		}
	}

	errs := make(chan error, conns)
	for w := 0; w < conns; w++ {
		go func(w int) {
			c, err := Dial(addr, time.Second)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < 200; i++ {
				from := uint64((w*7 + i) % accounts)
				to := uint64((w*13 + i*3) % accounts)
				r, err := c.Txn([]TxnOp{AddDelta(from, -10), AddDelta(to, 10)})
				if err != nil {
					errs <- err
					return
				}
				if !r.OK() && r.Status != StatusAborted && r.Status != StatusRetry {
					errs <- errFromStatus(r)
					return
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < conns; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	sum := uint64(0)
	for a := uint64(0); a < accounts; a++ {
		r, err := c0.Get(a)
		if err != nil || !r.OK() {
			t.Fatalf("audit get %d: %+v, %v", a, r, err)
		}
		sum += r.Val
	}
	if want := accounts * opening; sum != want {
		t.Fatalf("conservation violated: sum %d, want %d", sum, want)
	}
	if got := s.Counters(); got.Requests == 0 || got.Conns < conns {
		t.Fatalf("counters: %+v", got)
	}
}

func errFromStatus(r *Response) error {
	return &statusError{status: r.Status, msg: r.Err}
}

type statusError struct {
	status byte
	msg    string
}

func (e *statusError) Error() string {
	return "unexpected status " + string('0'+e.status) + " " + e.msg
}
