package server

import (
	"bufio"
	"fmt"
	"net"
	"time"
)

// Conn is a client connection speaking the wire protocol. It is not
// goroutine-safe: one driver goroutine per Conn, like a Tx handle.
//
// The pipelining API is Send*/Flush/Recv: Send buffers a request frame and
// returns its id, Flush writes the buffered frames in one syscall, Recv
// reads the next response. The server answers one connection's requests in
// request order, so a pipelining client may keep a window of requests in
// flight and match responses positionally. The synchronous helpers
// (Get/Put/Txn) are one-request windows for tests and simple callers.
type Conn struct {
	c      net.Conn
	br     *bufio.Reader
	wbuf   []byte // encoded, unflushed request frames
	rbuf   []byte // frame read scratch
	req    Request
	resp   Response
	nextID uint64
	err    error // sticky client-side encode error; poisons Flush/Recv
}

// Dial connects to a txserver at addr, retrying refused connections until
// timeout (covers the race against a server still binding its listener;
// timeout 0 means a single attempt).
func Dial(addr string, timeout time.Duration) (*Conn, error) {
	deadline := time.Now().Add(timeout)
	for {
		c, err := net.Dial("tcp", addr)
		if err == nil {
			return &Conn{c: c, br: bufio.NewReaderSize(c, 64<<10)}, nil
		}
		if time.Now().After(deadline) {
			return nil, err
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Close closes the connection.
func (c *Conn) Close() error { return c.c.Close() }

// SendGet buffers an OpGet request and returns its id.
func (c *Conn) SendGet(key uint64) uint64 {
	c.nextID++
	c.req = Request{ID: c.nextID, Op: OpGet, Key: key}
	c.wbuf = AppendRequest(c.wbuf, &c.req)
	return c.nextID
}

// SendPut buffers an OpPut request and returns its id.
func (c *Conn) SendPut(key, val uint64) uint64 {
	c.nextID++
	c.req = Request{ID: c.nextID, Op: OpPut, Key: key, Val: val}
	c.wbuf = AppendRequest(c.wbuf, &c.req)
	return c.nextID
}

// SendTxn buffers an OpTxn request and returns its id. ops is caller-owned.
// A transaction over MaxTxnOps ops cannot be framed (the server would reject
// it, or worse, the uint16 op count would wrap): it is not buffered, and the
// error poisons the connection — the next Flush or Recv reports it.
func (c *Conn) SendTxn(ops []TxnOp) uint64 {
	c.nextID++
	if len(ops) > MaxTxnOps {
		if c.err == nil {
			c.err = errTxnTooLong(len(ops))
		}
		return c.nextID
	}
	c.req = Request{ID: c.nextID, Op: OpTxn, Ops: ops}
	c.wbuf = AppendRequest(c.wbuf, &c.req)
	return c.nextID
}

// errTxnTooLong is the error of a transaction of n > MaxTxnOps ops.
func errTxnTooLong(n int) error {
	return fmt.Errorf("server: txn has %d ops, max %d", n, MaxTxnOps)
}

// Flush writes every buffered request frame to the socket.
func (c *Conn) Flush() error {
	if c.err != nil {
		return c.err
	}
	if len(c.wbuf) == 0 {
		return nil
	}
	_, err := c.c.Write(c.wbuf)
	c.wbuf = c.wbuf[:0]
	return err
}

// Recv reads the next response. The returned pointer aliases connection
// scratch reused by the next Recv; callers needing the data past that must
// copy it.
func (c *Conn) Recv() (*Response, error) {
	if c.err != nil {
		return nil, c.err
	}
	body, err := ReadFrame(c.br, c.rbuf)
	if err != nil {
		return nil, err
	}
	c.rbuf = body
	if err := DecodeResponse(body, &c.resp); err != nil {
		return nil, err
	}
	return &c.resp, nil
}

// roundTrip sends the one buffered request and reads its response, checking
// the echoed id.
func (c *Conn) roundTrip(id uint64) (*Response, error) {
	if err := c.Flush(); err != nil {
		return nil, err
	}
	resp, err := c.Recv()
	if err != nil {
		return nil, err
	}
	if resp.ID != id {
		return nil, fmt.Errorf("server: response id %d for request %d", resp.ID, id)
	}
	return resp, nil
}

// Get fetches one key synchronously.
func (c *Conn) Get(key uint64) (*Response, error) { return c.roundTrip(c.SendGet(key)) }

// Put binds one key synchronously.
func (c *Conn) Put(key, val uint64) (*Response, error) { return c.roundTrip(c.SendPut(key, val)) }

// Txn executes one multi-op transaction synchronously.
func (c *Conn) Txn(ops []TxnOp) (*Response, error) { return c.roundTrip(c.SendTxn(ops)) }
