package server

import (
	"net"
	"testing"
	"time"

	"medley/internal/txengine"
)

// Wire microbenchmarks: the per-request hot path must not allocate. The
// request/response cycle of a Get is encode + frame-read + decode + encode +
// frame-read + decode; every step below reports allocs/op so a regression
// shows up as a number, not a hunch.

func BenchmarkAppendRequestGet(b *testing.B) {
	b.ReportAllocs()
	var buf []byte
	r := Request{ID: 1, Op: OpGet, Key: 42}
	for i := 0; i < b.N; i++ {
		buf = AppendRequest(buf[:0], &r)
	}
}

func BenchmarkDecodeRequestGet(b *testing.B) {
	body := AppendRequest(nil, &Request{ID: 1, Op: OpGet, Key: 42})[4:]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeRequest(body); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeRequestTxn contrasts the allocating decode (fresh op slice
// per transaction) with the reusing decode the server's burst loop runs
// (each burst slot keeps its op storage: zero steady-state allocs).
func BenchmarkDecodeRequestTxn(b *testing.B) {
	ops := []TxnOp{
		{Kind: TxnRead, Key: 1},
		AddDelta(1, -1),
		AddDelta(2, +1),
		{Kind: TxnRead, Key: 2},
	}
	body := AppendRequest(nil, &Request{ID: 1, Op: OpTxn, Ops: ops})[4:]
	b.Run("alloc", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := DecodeRequest(body); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reuse", func(b *testing.B) {
		b.ReportAllocs()
		var scratch []TxnOp
		for i := 0; i < b.N; i++ {
			r, err := DecodeRequestReuse(body, scratch)
			if err != nil {
				b.Fatal(err)
			}
			scratch = r.Ops[:0]
		}
	})
}

func BenchmarkAppendResponseGet(b *testing.B) {
	b.ReportAllocs()
	var buf []byte
	r := Response{ID: 1, Op: OpGet, Status: StatusOK, Found: true, Val: 42}
	for i := 0; i < b.N; i++ {
		buf = AppendResponse(buf[:0], &r)
	}
}

// benchServe measures pipelined Get round-trips through a loopback server —
// the end-to-end serving hot path, lane on vs off (an engine that does not
// report CapSnapshot). allocs/op covers the client side of the cycle (the
// server's side shows up in throughput).
func benchServe(b *testing.B, lane bool, readpct int) {
	eng, err := txengine.Build("medley", txengine.Config{})
	if err != nil {
		b.Fatal(err)
	}
	defer eng.Close()
	if !lane {
		eng = noSnapEngine{eng}
	}
	s, err := New(eng, Options{})
	if err != nil {
		b.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- s.Serve(ln) }()
	defer func() {
		s.Drain()
		<-done
	}()
	c, err := Dial(ln.Addr().String(), time.Second)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	const keys = 1024
	for k := uint64(0); k < keys; k++ {
		if r, err := c.Put(k, k); err != nil || !r.OK() {
			b.Fatalf("seed: %+v, %v", r, err)
		}
	}

	const window = 32
	b.ReportAllocs()
	b.ResetTimer()
	sent, recvd := 0, 0
	for recvd < b.N {
		for sent < b.N && sent-recvd < window {
			k := uint64(sent) % keys
			if sent%100 < readpct {
				c.SendGet(k)
			} else {
				c.SendPut(k, uint64(sent))
			}
			sent++
		}
		if err := c.Flush(); err != nil {
			b.Fatal(err)
		}
		for sent-recvd > 0 {
			r, err := c.Recv()
			if err != nil {
				b.Fatal(err)
			}
			if r.Status == StatusErr {
				b.Fatal(r.Err)
			}
			recvd++
		}
	}
}

func BenchmarkServeGetsLane(b *testing.B)    { benchServe(b, true, 100) }
func BenchmarkServeGetsNoLane(b *testing.B)  { benchServe(b, false, 100) }
func BenchmarkServeMixedLane(b *testing.B)   { benchServe(b, true, 90) }
func BenchmarkServeMixedNoLane(b *testing.B) { benchServe(b, false, 90) }
