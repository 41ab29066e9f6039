package server

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"time"
)

// ErrUnknownOutcome marks a write whose fate the client cannot know: the
// connection failed after the request may already have reached the server,
// so the write may or may not have committed. Blindly retrying could apply
// it twice; the caller must reconcile (re-read, or use an idempotent
// application-level protocol) instead. Test with errors.Is.
var ErrUnknownOutcome = errors.New("server: write outcome unknown (connection failed after send)")

// RetryPolicy bounds a Client's attempts at one request.
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

// Backoff returns the capped-exponential, jittered delay before retry k
// (k=0 for the first retry): half the deterministic delay plus a uniformly
// random half, so a fleet of clients kicked off by one server event does
// not reconverge in lockstep.
func Backoff(k int) time.Duration {
	d := baseBackoff
	for i := 0; i < k && d < maxBackoff; i++ {
		d *= 2
	}
	d = min(d, maxBackoff)
	return d/2 + rand.N(d/2+1)
}

// ClientStats counts a Client's recovery work.
type ClientStats struct {
	Retries    uint64 // requests re-sent after StatusRetry/StatusDraining
	Reconnects uint64 // connections re-established after an I/O failure
}

// Client is a Conn wrapper that survives connection failures and server
// pushback. It reconnects with capped exponential backoff plus jitter and
// transparently retries work that is provably safe to repeat:
//
//   - Reads (Get, and Txn batches that are all TxnRead) are idempotent, so
//     they retry through both I/O failures and StatusRetry/StatusDraining
//     shedding.
//   - Writes (Put, and Txn batches containing a write) retry only on
//     explicit not-executed responses (StatusRetry/StatusDraining). If the
//     connection fails after a write was sent, the outcome is unknown — the
//     server may have committed it and lost only the acknowledgment — so
//     the Client surfaces ErrUnknownOutcome instead of guessing.
//
// Like Conn, a Client is not goroutine-safe: one driver goroutine each.
type Client struct {
	addr  string
	pol   RetryPolicy
	conn  *Conn
	stats ClientStats
}

// NewClient returns a retrying client for a txserver at addr. The first
// connection is established lazily, by the first request.
func NewClient(addr string, pol RetryPolicy) *Client {
	return &Client{addr: addr, pol: pol}
}

// Stats snapshots the retry/reconnect tallies.
func (cl *Client) Stats() ClientStats { return cl.stats }

// Close closes the current connection, if any.
func (cl *Client) Close() error {
	if cl.conn == nil {
		return nil
	}
	err := cl.conn.Close()
	cl.conn = nil
	return err
}

// ensure returns a live connection, dialing if the previous one failed.
func (cl *Client) ensure() (*Conn, error) {
	if cl.conn != nil {
		return cl.conn, nil
	}
	c, err := Dial(cl.addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	cl.conn = c
	return c, nil
}

// drop discards a connection after an I/O failure.
func (cl *Client) drop() {
	if cl.conn != nil {
		cl.conn.Close()
		cl.conn = nil
	}
}

// Get fetches one key, retrying through connection failures and shedding.
func (cl *Client) Get(key uint64) (*Response, error) {
	return cl.do(func(c *Conn) uint64 { return c.SendGet(key) }, true)
}

// Put binds one key. Retried only on explicit not-executed responses; an
// I/O failure after send returns ErrUnknownOutcome (wrapped).
func (cl *Client) Put(key, val uint64) (*Response, error) {
	return cl.do(func(c *Conn) uint64 { return c.SendPut(key, val) }, false)
}

// Txn executes one multi-op transaction. All-TxnRead batches retry as reads;
// batches containing a write follow Put's unknown-outcome rule. A batch over
// MaxTxnOps ops is refused at once: no frame can carry it, so nothing is sent.
func (cl *Client) Txn(ops []TxnOp) (*Response, error) {
	if len(ops) > MaxTxnOps {
		return nil, errTxnTooLong(len(ops))
	}
	idempotent := allRead(ops)
	return cl.do(func(c *Conn) uint64 { return c.SendTxn(ops) }, idempotent)
}

// do drives one request to a terminal outcome under the retry policy. send
// buffers the request on a connection and returns its id; idempotent marks
// requests safe to re-send after an I/O failure.
func (cl *Client) do(send func(*Conn) uint64, idempotent bool) (*Response, error) {
	var lastErr error
	retries := 0
	for attempt := 0; attempt < cl.pol.maxAttempts(); attempt++ {
		if attempt > 0 {
			time.Sleep(Backoff(attempt - 1))
		}
		c, err := cl.ensure()
		if err != nil {
			lastErr = err // nothing was sent; always safe to retry
			continue
		}
		resp, err := c.roundTrip(send(c))
		if err != nil {
			cl.drop()
			cl.stats.Reconnects++
			if !idempotent {
				return nil, fmt.Errorf("%w: %v", ErrUnknownOutcome, err)
			}
			lastErr = err
			continue
		}
		switch resp.Status {
		case StatusRetry:
			// Shed by admission control before execution: safe for writes too.
			cl.stats.Retries++
			lastErr = fmt.Errorf("server: shed with StatusRetry")
			retries++
			continue
		case StatusDraining:
			// Rejected unexecuted; this server is going away — reconnect
			// (the address may resolve to a fresh instance) and retry.
			cl.drop()
			cl.stats.Retries++
			lastErr = fmt.Errorf("server: rejected while draining")
			retries++
			continue
		default:
			return resp, nil
		}
	}
	return nil, fmt.Errorf("server: request failed after %d attempts (%d shed): %w",
		cl.pol.maxAttempts(), retries, lastErr)
}
