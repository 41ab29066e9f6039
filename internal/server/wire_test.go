package server

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"math/rand/v2"
	"reflect"
	"strings"
	"testing"
)

// randRequest draws one request of a random shape.
func randRequest(rng *rand.Rand) Request {
	r := Request{ID: rng.Uint64()}
	switch rng.IntN(3) {
	case 0:
		r.Op, r.Key = OpGet, rng.Uint64()
	case 1:
		r.Op, r.Key, r.Val = OpPut, rng.Uint64(), rng.Uint64()
	default:
		r.Op = OpTxn
		n := rng.IntN(20) + 1
		r.Ops = make([]TxnOp, n)
		for i := range r.Ops {
			kind := []byte{TxnRead, TxnWrite, TxnAdd}[rng.IntN(3)]
			arg := rng.Uint64()
			if kind == TxnRead {
				arg = 0
			}
			r.Ops[i] = TxnOp{Kind: kind, Key: rng.Uint64(), Arg: arg}
		}
	}
	return r
}

func randResponse(rng *rand.Rand) Response {
	r := Response{ID: rng.Uint64()}
	switch rng.IntN(5) {
	case 0:
		r.Op, r.Status = []byte{OpGet, OpPut}[rng.IntN(2)], StatusOK
		r.Found = rng.IntN(2) == 0
		if r.Found {
			r.Val = rng.Uint64()
		}
	case 1:
		r.Op, r.Status = OpTxn, StatusOK
		n := rng.IntN(8)
		r.Reads = make([]ReadResult, n)
		for i := range r.Reads {
			if rng.IntN(2) == 0 {
				r.Reads[i] = ReadResult{Found: true, Val: rng.Uint64()}
			}
		}
	case 2:
		r.Op, r.Status = []byte{OpGet, OpPut, OpTxn}[rng.IntN(3)], []byte{StatusRetry, StatusDraining, StatusAborted}[rng.IntN(3)]
	default:
		r.Op, r.Status = OpGet, StatusErr
		r.Err = "some failure"
	}
	return r
}

// TestRequestRoundTrip is the codec property test: random requests survive
// encode → frame → decode unchanged.
func TestRequestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	var stream []byte
	var want []Request
	for i := 0; i < 500; i++ {
		r := randRequest(rng)
		want = append(want, r)
		stream = AppendRequest(stream, &r)
	}
	br := bufio.NewReader(bytes.NewReader(stream))
	var buf []byte
	for i, w := range want {
		body, err := ReadFrame(br, buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		buf = body
		got, err := DecodeRequest(body)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if got.ID != w.ID || got.Op != w.Op || got.Key != w.Key || got.Val != w.Val || !equalOps(got.Ops, w.Ops) {
			t.Fatalf("request %d: got %+v, want %+v", i, got, w)
		}
	}
	if _, err := ReadFrame(br, buf); err != io.EOF {
		t.Fatalf("trailing read: %v, want io.EOF", err)
	}
}

func equalOps(a, b []TxnOp) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestResponseRoundTrip is the response-side property test, exercising the
// scratch-reusing DecodeResponse the pipelining client runs on.
func TestResponseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	var got Response // reused across iterations, like a client Conn's
	for i := 0; i < 500; i++ {
		w := randResponse(rng)
		frame := AppendResponse(nil, &w)
		body := frame[4:]
		if int(binary.BigEndian.Uint32(frame)) != len(body) {
			t.Fatalf("response %d: frame length %d != body %d", i, binary.BigEndian.Uint32(frame), len(body))
		}
		if err := DecodeResponse(body, &got); err != nil {
			t.Fatalf("response %d: %v", i, err)
		}
		if got.ID != w.ID || got.Op != w.Op || got.Status != w.Status || got.Found != w.Found || got.Val != w.Val || got.Err != w.Err {
			t.Fatalf("response %d: got %+v, want %+v", i, got, w)
		}
		if len(got.Reads) != len(w.Reads) || (len(w.Reads) > 0 && !reflect.DeepEqual(got.Reads, w.Reads)) {
			t.Fatalf("response %d reads: got %+v, want %+v", i, got.Reads, w.Reads)
		}
	}
}

// TestReadFrameRejects covers the framing layer: truncated prefixes and
// bodies, zero-length and oversized claims.
func TestReadFrameRejects(t *testing.T) {
	read := func(b []byte) error {
		_, err := ReadFrame(bufio.NewReader(bytes.NewReader(b)), nil)
		return err
	}
	if err := read(nil); err != io.EOF {
		t.Errorf("empty stream: %v, want io.EOF", err)
	}
	if err := read([]byte{0, 0}); err == nil {
		t.Error("truncated header accepted")
	}
	if err := read([]byte{0, 0, 0, 5, 1, 2}); err == nil {
		t.Error("truncated body accepted")
	}
	if err := read([]byte{0, 0, 0, 0}); err == nil {
		t.Error("zero-length frame accepted")
	}
	huge := binary.BigEndian.AppendUint32(nil, MaxFrame+1)
	if err := read(huge); err != ErrFrameTooLarge {
		t.Errorf("oversized claim: %v, want ErrFrameTooLarge", err)
	}
}

// reqBody is a request body with id 1; respBody a response body with id 1.
func reqBody(op byte, rest ...byte) []byte {
	return append([]byte{0, 0, 0, 0, 0, 0, 0, 1, op}, rest...)
}
func respBody(op, status byte, rest ...byte) []byte {
	return append([]byte{0, 0, 0, 0, 0, 0, 0, 1, op, status}, rest...)
}

// malformedRequests and malformedResponses are one body for each way the
// decoders reject one, with the error each must give. They seed the fuzzers.
var (
	malformedRequests = []struct {
		body []byte
		err  string
	}{
		{nil, "request body 0 bytes"},
		{reqBody(OpGet, make([]byte, 7)...), "OpGet payload 7 bytes"},
		{reqBody(OpPut, make([]byte, 15)...), "OpPut payload 15 bytes"},
		{reqBody(OpTxn), "missing op count"},
		{reqBody(OpTxn, 0xff, 0xff), "declares 65535 ops"},
		{reqBody(OpTxn, 0, 1, TxnWrite), "OpTxn payload 1 bytes"},
		{reqBody(OpTxn, append([]byte{0, 1, 77}, make([]byte, 16)...)...), "op 0 has unknown kind 77"},
		{reqBody(99), "unknown op 99"},
	}
	malformedResponses = []struct {
		body []byte
		err  string
	}{
		{respBody(OpGet, StatusOK, make([]byte, 8)...), "8-byte single-op OK payload"},
		{respBody(OpGet, StatusOK, append([]byte{2}, make([]byte, 8)...)...), "found byte 2"},
		{respBody(OpTxn, StatusOK, 0), "missing read count"},
		{respBody(OpTxn, StatusOK, 0xff, 0xff), "declares 65535 reads"},
		{respBody(OpTxn, StatusOK, append([]byte{0, 1}, make([]byte, 8)...)...), "OpTxn OK payload 8 bytes"},
		{respBody(OpTxn, StatusOK, append([]byte{0, 1, 7}, make([]byte, 8)...)...), "read 0 found byte 7"},
		{respBody(9, StatusOK), "unknown op 9"},
		{respBody(OpGet, StatusRetry, 0), "status 1 carries 1 payload bytes"},
		{respBody(OpGet, 9), "unknown status 9"},
	}
)

// FuzzDecodeRequest: arbitrary bodies must error or decode — never panic,
// never over-read (the race detector and -fuzz's instrumentation watch the
// rest). Every malformed seed must be rejected with its error.
func FuzzDecodeRequest(f *testing.F) {
	f.Add(AppendRequest(nil, &Request{ID: 1, Op: OpGet, Key: 42})[4:])
	f.Add(AppendRequest(nil, &Request{ID: 2, Op: OpPut, Key: 1, Val: 2})[4:])
	f.Add(AppendRequest(nil, &Request{ID: 3, Op: OpTxn, Ops: []TxnOp{{Kind: TxnAdd, Key: 9, Arg: ^uint64(0)}}})[4:])
	for _, c := range malformedRequests {
		if _, err := DecodeRequest(c.body); err == nil || !strings.Contains(err.Error(), c.err) {
			f.Errorf("DecodeRequest(%x) = %v, want %q", c.body, err, c.err)
		}
		f.Add(c.body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		r, err := DecodeRequest(body)
		if err == nil {
			// Whatever decodes must re-encode to exactly the input frame.
			again := AppendRequest(nil, &r)[4:]
			if !bytes.Equal(again, body) {
				t.Fatalf("re-encode mismatch:\n in %x\nout %x", body, again)
			}
		}
	})
}

// FuzzDecodeResponse mirrors FuzzDecodeRequest for the client-side decoder.
func FuzzDecodeResponse(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendResponse(nil, &Response{ID: 1, Op: OpGet, Status: StatusOK, Found: true, Val: 3})[4:])
	f.Add(AppendResponse(nil, &Response{ID: 2, Op: OpTxn, Status: StatusOK, Reads: []ReadResult{{true, 1}}})[4:])
	f.Add(AppendResponse(nil, &Response{ID: 3, Op: OpPut, Status: StatusErr, Err: "x"})[4:])
	for _, c := range malformedResponses {
		var r Response
		if err := DecodeResponse(c.body, &r); err == nil || !strings.Contains(err.Error(), c.err) {
			f.Errorf("DecodeResponse(%x) = %v, want %q", c.body, err, c.err)
		}
		f.Add(c.body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var r Response
		if err := DecodeResponse(body, &r); err == nil {
			again := AppendResponse(nil, &r)[4:]
			if !bytes.Equal(again, body) {
				t.Fatalf("re-encode mismatch:\n in %x\nout %x", body, again)
			}
		}
	})
}

// FuzzReadFrame feeds arbitrary byte streams through the framing reader:
// it must return each well-formed frame and reject the rest without
// panicking or allocating from a hostile length claim.
func FuzzReadFrame(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendRequest(nil, &Request{ID: 1, Op: OpGet, Key: 42}))
	f.Add(binary.BigEndian.AppendUint32(nil, MaxFrame+1))
	f.Fuzz(func(t *testing.T, stream []byte) {
		br := bufio.NewReader(bytes.NewReader(stream))
		var buf []byte
		for i := 0; i < 64; i++ {
			body, err := ReadFrame(br, buf)
			if err != nil {
				return
			}
			if len(body) == 0 || len(body) > MaxFrame {
				t.Fatalf("frame body length %d out of bounds", len(body))
			}
			buf = body
		}
	})
}
