// Package server is the network front-end over the txengine registry: a
// length-prefixed binary TCP protocol exposing Get/Put/Txn-batch operations
// on one hosted transactional map, served by any registered engine. It is
// the layer end-to-end throughput is measured through (cmd/txserver +
// cmd/txload) and the substrate every future scale PR is benchmarked on.
//
// # Wire protocol
//
// Every message is one frame: a 4-byte big-endian body length followed by
// the body, bounded by MaxFrame. All integers are big-endian.
//
// Request body:
//
//	id     uint64  // client-chosen; echoed verbatim in the response
//	op     uint8   // OpGet | OpPut | OpTxn
//	OpGet: key uint64
//	OpPut: key uint64, val uint64
//	OpTxn: nops uint16, then per op: kind uint8, key uint64, arg uint64
//	       kind TxnRead:  arg unused (0)
//	       kind TxnWrite: arg is the value to bind
//	       kind TxnAdd:   arg is an int64 delta (two's complement); the op
//	                      reads the key (absent = 0), adds the delta, and
//	                      writes the sum back. A delta that would take the
//	                      value below zero business-aborts the whole
//	                      transaction (StatusAborted) — the building block
//	                      of conservation-auditable transfers.
//
// Response body:
//
//	id     uint64  // echoed request id
//	op     uint8   // echoed request op
//	status uint8   // StatusOK | StatusRetry | StatusDraining | StatusAborted | StatusErr
//	StatusOK + OpGet: found uint8, val uint64
//	StatusOK + OpPut: found uint8, val uint64   // previous binding, if any
//	StatusOK + OpTxn: nreads uint16, then per TxnRead op (in request
//	                  order): found uint8, val uint64
//	StatusErr:        the error message (rest of the body)
//	other statuses:   empty
//
// A transaction executes atomically under one engine transaction with every
// key pre-declared through txengine.HintKeys, so on the Medley family it
// runs under its keys' latch stripes. Responses on one connection are
// written in request order, so pipelining clients may match responses
// positionally (ids are still echoed for verification).
//
// StatusRetry is the admission controller shedding load: the request was
// not executed and should be retried, ideally after backoff. StatusDraining
// is a drain-time reject: the server is shutting down and the request was
// not executed (see Server.Drain).
package server

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Op codes.
const (
	OpGet byte = 1
	OpPut byte = 2
	OpTxn byte = 3
)

// Response statuses.
const (
	StatusOK       byte = 0
	StatusRetry    byte = 1 // shed by admission control; not executed
	StatusDraining byte = 2 // server draining; not executed
	StatusAborted  byte = 3 // business abort (TxnAdd underflow); rolled back
	StatusErr      byte = 4 // execution error; body carries the message
)

// Txn op kinds.
const (
	TxnRead  byte = 1
	TxnWrite byte = 2
	TxnAdd   byte = 3
)

// MaxFrame bounds a frame body. A decoder must reject larger claims before
// reading or allocating, so a hostile length prefix cannot balloon memory.
const MaxFrame = 1 << 20

// MaxTxnOps bounds one transaction's op list (well under what MaxFrame
// admits, so the nops field can never promise more than the body carries).
const MaxTxnOps = 8192

const (
	reqHeaderLen  = 8 + 1     // id + op
	respHeaderLen = 8 + 1 + 1 // id + op + status
	txnOpLen      = 1 + 8 + 8 // kind + key + arg
	readResLen    = 1 + 8     // found + val
)

// ErrFrameTooLarge reports a frame whose claimed body length exceeds
// MaxFrame; the connection cannot be resynchronized and must be closed.
var ErrFrameTooLarge = errors.New("server: frame exceeds MaxFrame")

// TxnOp is one operation of an OpTxn request.
type TxnOp struct {
	Kind byte
	Key  uint64
	Arg  uint64 // TxnWrite: value; TxnAdd: int64 delta bit pattern
}

// AddDelta builds a TxnAdd op from a signed delta.
func AddDelta(key uint64, delta int64) TxnOp {
	return TxnOp{Kind: TxnAdd, Key: key, Arg: uint64(delta)}
}

// Request is one decoded client request.
type Request struct {
	ID  uint64
	Op  byte
	Key uint64  // OpGet, OpPut
	Val uint64  // OpPut
	Ops []TxnOp // OpTxn
}

// ReadResult is one TxnRead op's outcome.
type ReadResult struct {
	Found bool
	Val   uint64
}

// Response is one decoded server response.
type Response struct {
	ID     uint64
	Op     byte
	Status byte
	Found  bool
	Val    uint64       // OpGet: value; OpPut: previous value
	Reads  []ReadResult // OpTxn: one per TxnRead op, in request order
	Err    string       // StatusErr
}

// OK reports StatusOK.
func (r *Response) OK() bool { return r.Status == StatusOK }

// AppendRequest appends r as one frame (length prefix included) to buf.
func AppendRequest(buf []byte, r *Request) []byte {
	body := reqHeaderLen
	switch r.Op {
	case OpGet:
		body += 8
	case OpPut:
		body += 16
	case OpTxn:
		body += 2 + txnOpLen*len(r.Ops)
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(body))
	buf = binary.BigEndian.AppendUint64(buf, r.ID)
	buf = append(buf, r.Op)
	switch r.Op {
	case OpGet:
		buf = binary.BigEndian.AppendUint64(buf, r.Key)
	case OpPut:
		buf = binary.BigEndian.AppendUint64(buf, r.Key)
		buf = binary.BigEndian.AppendUint64(buf, r.Val)
	case OpTxn:
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(r.Ops)))
		for _, op := range r.Ops {
			buf = append(buf, op.Kind)
			buf = binary.BigEndian.AppendUint64(buf, op.Key)
			buf = binary.BigEndian.AppendUint64(buf, op.Arg)
		}
	}
	return buf
}

// DecodeRequest parses one request body. The returned request's Ops slice
// is freshly allocated; body may be reused. Errors never panic and never
// depend on bytes beyond len(body).
func DecodeRequest(body []byte) (Request, error) {
	return DecodeRequestReuse(body, nil)
}

// DecodeRequestReuse is DecodeRequest with caller-owned op storage: an OpTxn
// request's Ops are appended into ops[:0], so a caller recycling the slice
// across requests decodes allocation-free once the slice has grown to the
// workload's transaction size. The returned request's Ops aliases ops'
// backing array (or a grown replacement); body may be reused either way.
func DecodeRequestReuse(body []byte, ops []TxnOp) (Request, error) {
	var r Request
	if len(body) < reqHeaderLen {
		return r, fmt.Errorf("server: request body %d bytes, want >= %d", len(body), reqHeaderLen)
	}
	r.ID = binary.BigEndian.Uint64(body)
	r.Op = body[8]
	rest := body[reqHeaderLen:]
	switch r.Op {
	case OpGet:
		if len(rest) != 8 {
			return r, fmt.Errorf("server: OpGet payload %d bytes, want 8", len(rest))
		}
		r.Key = binary.BigEndian.Uint64(rest)
	case OpPut:
		if len(rest) != 16 {
			return r, fmt.Errorf("server: OpPut payload %d bytes, want 16", len(rest))
		}
		r.Key = binary.BigEndian.Uint64(rest)
		r.Val = binary.BigEndian.Uint64(rest[8:])
	case OpTxn:
		if len(rest) < 2 {
			return r, errors.New("server: OpTxn payload missing op count")
		}
		n := int(binary.BigEndian.Uint16(rest))
		rest = rest[2:]
		if n > MaxTxnOps {
			return r, fmt.Errorf("server: OpTxn declares %d ops, max %d", n, MaxTxnOps)
		}
		// Validate the claimed count against the actual payload before
		// allocating, so a lying header cannot oversize the slice.
		if len(rest) != n*txnOpLen {
			return r, fmt.Errorf("server: OpTxn payload %d bytes, want %d for %d ops", len(rest), n*txnOpLen, n)
		}
		ops = ops[:0]
		for i := 0; i < n; i++ {
			o := rest[i*txnOpLen:]
			kind := o[0]
			if kind != TxnRead && kind != TxnWrite && kind != TxnAdd {
				return r, fmt.Errorf("server: OpTxn op %d has unknown kind %d", i, kind)
			}
			ops = append(ops, TxnOp{Kind: kind, Key: binary.BigEndian.Uint64(o[1:]), Arg: binary.BigEndian.Uint64(o[9:])})
		}
		r.Ops = ops
	default:
		return r, fmt.Errorf("server: unknown op %d", r.Op)
	}
	return r, nil
}

// AppendResponse appends r as one frame (length prefix included) to buf.
func AppendResponse(buf []byte, r *Response) []byte {
	body := respHeaderLen
	if r.Status == StatusOK {
		switch r.Op {
		case OpGet, OpPut:
			body += readResLen
		case OpTxn:
			body += 2 + readResLen*len(r.Reads)
		}
	} else if r.Status == StatusErr {
		body += len(r.Err)
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(body))
	buf = binary.BigEndian.AppendUint64(buf, r.ID)
	buf = append(buf, r.Op, r.Status)
	switch {
	case r.Status == StatusOK && (r.Op == OpGet || r.Op == OpPut):
		buf = appendReadResult(buf, r.Found, r.Val)
	case r.Status == StatusOK && r.Op == OpTxn:
		buf = binary.BigEndian.AppendUint16(buf, uint16(len(r.Reads)))
		for _, rr := range r.Reads {
			buf = appendReadResult(buf, rr.Found, rr.Val)
		}
	case r.Status == StatusErr:
		buf = append(buf, r.Err...)
	}
	return buf
}

func appendReadResult(buf []byte, found bool, val uint64) []byte {
	f := byte(0)
	if found {
		f = 1
	}
	buf = append(buf, f)
	return binary.BigEndian.AppendUint64(buf, val)
}

// DecodeResponse parses one response body into *r, reusing r.Reads when it
// has capacity (the pipelining client's per-connection scratch). body may be
// reused afterwards. Errors never panic and never over-read.
func DecodeResponse(body []byte, r *Response) error {
	if len(body) < respHeaderLen {
		return fmt.Errorf("server: response body %d bytes, want >= %d", len(body), respHeaderLen)
	}
	r.ID = binary.BigEndian.Uint64(body)
	r.Op = body[8]
	r.Status = body[9]
	r.Found, r.Val = false, 0
	r.Reads = r.Reads[:0]
	r.Err = ""
	rest := body[respHeaderLen:]
	switch r.Status {
	case StatusOK:
		switch r.Op {
		case OpGet, OpPut:
			if len(rest) != readResLen {
				return fmt.Errorf("server: %d-byte single-op OK payload, want %d", len(rest), readResLen)
			}
			if rest[0] > 1 {
				return fmt.Errorf("server: found byte %d, want 0 or 1", rest[0])
			}
			r.Found = rest[0] != 0
			r.Val = binary.BigEndian.Uint64(rest[1:])
		case OpTxn:
			if len(rest) < 2 {
				return errors.New("server: OpTxn OK payload missing read count")
			}
			n := int(binary.BigEndian.Uint16(rest))
			rest = rest[2:]
			if n > MaxTxnOps {
				return fmt.Errorf("server: OpTxn response declares %d reads, max %d", n, MaxTxnOps)
			}
			if len(rest) != n*readResLen {
				return fmt.Errorf("server: OpTxn OK payload %d bytes, want %d for %d reads", len(rest), n*readResLen, n)
			}
			for i := 0; i < n; i++ {
				o := rest[i*readResLen:]
				if o[0] > 1 {
					return fmt.Errorf("server: read %d found byte %d, want 0 or 1", i, o[0])
				}
				r.Reads = append(r.Reads, ReadResult{Found: o[0] != 0, Val: binary.BigEndian.Uint64(o[1:])})
			}
		default:
			return fmt.Errorf("server: OK response with unknown op %d", r.Op)
		}
	case StatusRetry, StatusDraining, StatusAborted:
		if len(rest) != 0 {
			return fmt.Errorf("server: status %d carries %d payload bytes, want none", r.Status, len(rest))
		}
	case StatusErr:
		r.Err = string(rest)
	default:
		return fmt.Errorf("server: unknown status %d", r.Status)
	}
	return nil
}

// ReadFrame reads one frame body from br, reusing buf when it has capacity.
// It rejects bodies beyond MaxFrame before reading them (ErrFrameTooLarge)
// and empty bodies, so a hostile prefix can neither balloon memory nor spin
// the reader; a clean EOF between frames is returned as io.EOF.
func ReadFrame(br *bufio.Reader, buf []byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, fmt.Errorf("server: truncated frame header: %w", err)
		}
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 {
		return nil, errors.New("server: zero-length frame")
	}
	if n > MaxFrame {
		return nil, ErrFrameTooLarge
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(br, buf); err != nil {
		return nil, fmt.Errorf("server: truncated frame body (want %d bytes): %w", n, err)
	}
	return buf, nil
}

// bufferedFrame returns the body of br's next frame when the whole frame is
// already buffered, without consuming it (the caller Discards 4+len(body)
// once done with the bytes), and nil otherwise: an incomplete frame, or a
// length prefix ReadFrame would reject — both are for a blocking ReadFrame to
// wait for or report.
func bufferedFrame(br *bufio.Reader) []byte {
	if br.Buffered() < 4 {
		return nil
	}
	hdr, _ := br.Peek(4)
	n := int(binary.BigEndian.Uint32(hdr))
	if n == 0 || n > MaxFrame || br.Buffered() < 4+n {
		return nil
	}
	frame, _ := br.Peek(4 + n)
	return frame[4:]
}
