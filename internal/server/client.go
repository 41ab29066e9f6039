package server

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"time"
)

// Conn is a client connection speaking the wire protocol, with its retry
// behaviour as a value: Dial builds one that makes a single attempt at each
// request, NewClient one that retries under a RetryPolicy. It is not
// goroutine-safe: one driver goroutine per Conn, like a Tx handle.
//
// The pipelining API is Send*/Flush/Recv: Send buffers a request and
// returns its id, Flush writes the buffered requests in one syscall, Recv
// returns the next completed request. The synchronous helpers (Get/Put/Txn)
// are one-request windows for tests and simple callers.
//
// Whether a request is sent again is decided in one place, settle, for
// both paths. A request sent again keeps its id, and the server answers one
// connection's requests in order, so answers come in request order except
// that a re-sent request's comes after those of requests written before
// its re-send: callers keeping several requests in flight on a retrying
// Conn match answers by id.
type Conn struct {
	addr    string
	pol     RetryPolicy
	nc      net.Conn // nil while the connection is down
	br      *bufio.Reader
	wbuf    []byte // the frames one Flush writes
	rbuf    []byte // frame read scratch
	resp    Response
	nextID  uint64
	err     error // a one-attempt Conn's first failure; poisons Flush/Recv
	recycle bool  // a DRAINING answer was re-sent: redial once nothing is in flight
	stats   ClientStats

	// Every request not yet returned by Recv sits in one slot of calls (a
	// slot and its frame buffer are reused once Recv returns it), and its
	// index sits in one queue: held (to be written, a request sent again no
	// earlier than its due time) or flight (written and answered in this
	// order, or completed by the client with an error).
	calls        []call
	free         []int
	held, flight []int
}

// call is one request from its Send to the Recv that returns it.
type call struct {
	id    uint64
	frame []byte    // the encoded request, kept to send it again
	read  bool      // idempotent: safe to send again after a connection failure
	tries int       // attempts so far
	due   time.Time // earliest time it is sent again
	err   error     // the error the client completed it with
}

// ErrUnknownOutcome marks a write whose fate the client cannot know: the
// connection failed after the request may already have reached the server,
// so the write may or may not have committed. Blindly retrying could apply
// it twice; the caller must reconcile (re-read, or use an idempotent
// application-level protocol) instead. Test with errors.Is.
var ErrUnknownOutcome = errors.New("server: write outcome unknown (connection failed after send)")

// RetryPolicy bounds a Conn's attempts at one request.
type RetryPolicy struct {
	MaxAttempts int // attempts per request, including the first (0: 8)
}

func (p RetryPolicy) maxAttempts() int {
	if p.MaxAttempts > 0 {
		return p.MaxAttempts
	}
	return 8
}

// The backoff schedule and the dial budget are constants: no client has
// needed other values.
const (
	baseBackoff = time.Millisecond       // backoff before the first retry
	maxBackoff  = 100 * time.Millisecond // backoff growth cap
	dialTimeout = time.Second            // per-reconnect dial budget
)

// backoff returns the capped-exponential, jittered delay before retry k
// (k=0 for the first retry): half the deterministic delay plus a uniformly
// random half, so a fleet of clients kicked off by one server event does
// not reconverge in lockstep.
func backoff(k int) time.Duration {
	d := baseBackoff
	for i := 0; i < k && d < maxBackoff; i++ {
		d *= 2
	}
	d = min(d, maxBackoff)
	return d/2 + rand.N(d/2+1)
}

// ClientStats counts a Conn's recovery work.
type ClientStats struct {
	Retries    uint64 // answers shed unexecuted, RETRY or DRAINING
	Draining   uint64 // the DRAINING ones among Retries
	Resends    uint64 // requests sent again: shed ones, and reads in flight at a connection failure
	Reconnects uint64 // connections re-established after a failure or a drain
}

// Dial connects to a txserver at addr, retrying refused connections until
// timeout (covers the race against a server still binding its listener;
// timeout 0 means a single attempt). The Conn makes one attempt at each
// request: a shed answer is returned as the response.
func Dial(addr string, timeout time.Duration) (*Conn, error) {
	c := &Conn{addr: addr, pol: RetryPolicy{MaxAttempts: 1}}
	if err := c.dial(timeout); err != nil {
		return nil, err
	}
	return c, nil
}

// NewClient returns a Conn to a txserver at addr that retries under pol. The
// first connection is established lazily, by the first Flush.
func NewClient(addr string, pol RetryPolicy) *Conn {
	return &Conn{addr: addr, pol: pol}
}

// dial connects, retrying refused connections until timeout.
func (c *Conn) dial(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		nc, err := net.Dial("tcp", c.addr)
		if err == nil {
			c.attach(nc)
			return nil
		}
		if time.Now().After(deadline) {
			return err
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// attach makes nc the connection requests go out on.
func (c *Conn) attach(nc net.Conn) {
	if c.br == nil {
		c.br = bufio.NewReaderSize(nc, 64<<10)
	} else {
		c.br.Reset(nc)
		c.stats.Reconnects++
	}
	c.nc = nc
}

// Stats snapshots the recovery tallies.
func (c *Conn) Stats() ClientStats { return c.stats }

// Close closes the current connection, if any.
func (c *Conn) Close() error {
	if c.nc == nil {
		return nil
	}
	err := c.nc.Close()
	c.nc = nil
	return err
}

// send holds req for the next Flush and returns its id.
func (c *Conn) send(req Request, read bool) uint64 {
	c.nextID++
	req.ID = c.nextID
	i := len(c.calls)
	if n := len(c.free); n > 0 {
		i, c.free = c.free[n-1], c.free[:n-1]
	} else {
		c.calls = append(c.calls, call{})
	}
	k := &c.calls[i]
	k.id, k.read, k.tries, k.due, k.err = c.nextID, read, 0, time.Time{}, nil
	if len(req.Ops) > MaxTxnOps {
		// No frame can carry it, so nothing is sent: it completes at once.
		c.finish(i, fmt.Errorf("server: txn has %d ops, max %d", len(req.Ops), MaxTxnOps))
		return k.id
	}
	k.frame = AppendRequest(k.frame[:0], &req)
	c.held = append(c.held, i)
	return k.id
}

// SendGet buffers an OpGet request and returns its id.
func (c *Conn) SendGet(key uint64) uint64 { return c.send(Request{Op: OpGet, Key: key}, true) }

// SendPut buffers an OpPut request and returns its id.
func (c *Conn) SendPut(key, val uint64) uint64 {
	return c.send(Request{Op: OpPut, Key: key, Val: val}, false)
}

// SendTxn buffers an OpTxn request and returns its id. ops is encoded at
// once, so the caller may reuse it. A transaction over MaxTxnOps ops cannot
// be framed (the server would reject it, or worse, the uint16 op count
// would wrap): it is not sent, and Recv returns it with the encode error.
func (c *Conn) SendTxn(ops []TxnOp) uint64 {
	return c.send(Request{Op: OpTxn, Ops: ops}, allRead(ops))
}

// Flush writes the buffered requests in order, redialing first if the
// connection is down; a request being sent again waits out its backoff, and
// nothing behind it is written before it. An error is the failure of the
// write or the redial: settle has already decided what becomes of the
// requests it concerned, and Recv returns them.
func (c *Conn) Flush() error {
	if c.err != nil {
		return c.err
	}
	if c.recycle {
		return nil // the draining connection takes nothing more
	}
	n, now := 0, time.Now()
	for n < len(c.held) && !c.calls[c.held[n]].due.After(now) {
		n++
	}
	if n == 0 {
		return nil
	}
	start := len(c.flight)
	c.flight = append(c.flight, c.held[:n]...)
	c.held = c.held[:copy(c.held, c.held[n:])]
	batch := c.flight[start:]
	for _, i := range batch {
		c.calls[i].tries++
	}
	if c.nc == nil {
		if err := c.dial(dialTimeout); err != nil {
			c.flight = c.flight[:start]
			for _, i := range batch {
				c.settle(i, 0, err, false) // nothing was sent
			}
			return err
		}
	}
	c.wbuf = c.wbuf[:0]
	for _, i := range batch {
		if c.calls[i].tries > 1 {
			c.stats.Resends++
		}
		c.wbuf = append(c.wbuf, c.calls[i].frame...)
	}
	if _, err := c.nc.Write(c.wbuf); err != nil {
		c.fail(err)
		return err
	}
	return nil
}

// Recv returns the next completed request: its answer, or, with a non-nil
// error, a StatusErr response carrying its id — ErrUnknownOutcome for a
// write in flight at a connection failure, or why it was given up. A
// request shed on every attempt comes back as its last answer, with an
// error if it was sent more than once. Recv writes what is buffered if
// nothing is in flight, and waits out the backoff of a request being sent
// again. The returned pointer aliases connection scratch reused by the
// next Recv; callers needing the data past that must copy it.
func (c *Conn) Recv() (*Response, error) {
	for {
		if c.recycle && len(c.flight) == 0 {
			c.Close() // the draining server answered everything; redial at the next write
			c.recycle = false
		}
		if len(c.flight) == 0 {
			if c.err != nil {
				return nil, c.err
			}
			if len(c.held) == 0 {
				return nil, errors.New("server: Recv with no request outstanding")
			}
			time.Sleep(time.Until(c.calls[c.held[0]].due))
			c.Flush() // a failure comes back through flight
			continue
		}
		i := c.flight[0]
		k := &c.calls[i]
		if k.err == nil {
			body, err := ReadFrame(c.br, c.rbuf)
			if err == nil {
				c.rbuf = body
				err = DecodeResponse(body, &c.resp)
			}
			if err == nil && c.resp.ID != k.id {
				err = fmt.Errorf("server: response id %d for request %d", c.resp.ID, k.id)
			}
			if err != nil {
				c.fail(err) // the stream cannot be trusted past this point
				continue
			}
		}
		c.flight = c.flight[:copy(c.flight, c.flight[1:])]
		if k.err != nil {
			c.resp = Response{ID: k.id, Status: StatusErr, Reads: c.resp.Reads[:0], Err: k.err.Error()}
		} else if again, err := c.settle(i, c.resp.Status, nil, true); again {
			continue
		} else {
			k.err = err
		}
		c.free = append(c.free, i)
		return &c.resp, k.err
	}
}

// settle is the retry rule, the one place that decides whether request i is
// sent again after an attempt ends: with the answer status, or, if err is
// non-nil, with the connection failing — sent tells whether the request
// had been written.
//
// An answer other than RETRY or DRAINING stands. RETRY and DRAINING mean the
// server did not execute the request, so it is sent again after a jittered
// backoff, and while it waits nothing behind it is written — backoff lowers
// the offered load instead of shifting it; after a DRAINING answer the
// connection is redialed once nothing is in flight on it. When the
// connection fails, a read in flight is sent again on a redialed
// connection, and a write in flight completes with ErrUnknownOutcome: the
// server may have committed it and lost only the acknowledgment, so it is
// never sent again. A request gets at most RetryPolicy.MaxAttempts attempts.
// A one-attempt Conn never redials: its first failed request ends it, and
// every later call reports that failure.
//
// A request sent again is held with its backoff; one that is not, and
// failed, is completed on flight. settle reports whether the request goes
// again, and for an answer that stands, the error Recv returns with it.
func (c *Conn) settle(i int, status byte, err error, sent bool) (bool, error) {
	k := &c.calls[i]
	shed := err == nil && (status == StatusRetry || status == StatusDraining)
	if shed {
		c.stats.Retries++
		if status == StatusDraining {
			c.stats.Draining++
		}
	}
	switch {
	case err == nil && !shed:
		return false, nil // an answer
	case err != nil && sent && !k.read:
		c.finish(i, fmt.Errorf("%w: %w", ErrUnknownOutcome, err))
		return false, nil
	case k.tries < c.pol.maxAttempts():
		k.due = time.Now().Add(backoff(k.tries - 1))
		c.held = append(c.held, i)
		if status == StatusDraining {
			c.recycle = true // this instance is going away
		}
		return true, nil
	case err != nil:
		c.finish(i, fmt.Errorf("server: request failed after %d attempts: %w", k.tries, err))
		return false, nil
	case k.tries > 1:
		return false, fmt.Errorf("server: request shed on all %d attempts", k.tries)
	}
	return false, nil // one attempt: the shed answer is the response
}

// finish completes request i with err, for Recv to return in its turn. It
// ends a one-attempt Conn.
func (c *Conn) finish(i int, err error) {
	c.calls[i].err = err
	c.flight = append(c.flight, i)
	if c.pol.maxAttempts() == 1 && c.err == nil {
		c.err = err
	}
}

// fail drops the connection after an I/O failure and settles everything in
// flight on it (requests the client already completed stay where they are).
func (c *Conn) fail(err error) {
	c.Close()
	c.recycle = false
	flight := c.flight
	c.flight = c.flight[:0]
	for _, i := range flight {
		if c.calls[i].err != nil {
			c.flight = append(c.flight, i)
		} else {
			c.settle(i, 0, err, true)
		}
	}
}

// roundTrip writes request id, the one outstanding, and returns its
// completion.
func (c *Conn) roundTrip(id uint64) (*Response, error) {
	c.Flush() // a failure comes back through Recv
	resp, err := c.Recv()
	if resp != nil && resp.ID != id {
		return nil, fmt.Errorf("server: response id %d for request %d", resp.ID, id)
	}
	return resp, err
}

// Get fetches one key synchronously.
func (c *Conn) Get(key uint64) (*Response, error) { return c.roundTrip(c.SendGet(key)) }

// Put binds one key synchronously. An I/O failure after send returns
// ErrUnknownOutcome (wrapped).
func (c *Conn) Put(key, val uint64) (*Response, error) { return c.roundTrip(c.SendPut(key, val)) }

// Txn executes one multi-op transaction synchronously. All-TxnRead batches
// retry as reads; batches containing a write follow Put's rule.
func (c *Conn) Txn(ops []TxnOp) (*Response, error) { return c.roundTrip(c.SendTxn(ops)) }
