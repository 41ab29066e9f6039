package server

import (
	"bufio"
	"encoding/binary"
	"net"
	"runtime"
	"testing"

	"medley/internal/txengine"
)

// Deterministic allocation budgets for the serving tier: what ONE request
// costs the server, in allocations and bytes, on medley-sharded (and one
// transfer on txmontage, the engine path of serve_txn_durable) — measured
// over the in-memory listener as a process-wide malloc delta across a few
// thousand synchronous round trips, with what the client and the pipe
// allocate (the same round trips against a stub that answers from canned
// bytes) subtracted. What is left is the engine's transaction (priced in
// internal/core/budget_test.go) plus whatever the server adds per request —
// which is nothing: the burst, its op storage, the frame, key, result and
// response buffers all belong to the connection.

// perRequest reports allocations and bytes per call of f, process-wide.
func perRequest(n int, f func(i int)) (allocs, bytes float64) {
	for i := 0; i < 64; i++ {
		f(i) // grow every scratch buffer to its steady state
	}
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		f(64 + i)
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n), float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n)
}

// stubServe answers every request frame on c with a canned OK, allocating
// nothing per request: the client's and the pipe's own share of a round trip.
// Like the server it answers every frame already buffered behind the first
// with one write, so a pipelined window costs the pipe what it costs there.
func stubServe(c net.Conn) {
	defer c.Close()
	br := bufio.NewReader(c)
	var buf, out []byte
	var resp Response
	answer := func(body []byte) {
		resp = Response{ID: binary.BigEndian.Uint64(body), Op: body[8], Status: StatusOK}
		out = AppendResponse(out, &resp)
	}
	for {
		body, err := ReadFrame(br, buf)
		if err != nil {
			return
		}
		buf = body
		out = out[:0]
		answer(body)
		for body = bufferedFrame(br); body != nil; body = bufferedFrame(br) {
			answer(body)
			br.Discard(4 + len(body))
		}
		if _, err := c.Write(out); err != nil {
			return
		}
	}
}

func TestBudgetServe(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	const (
		n    = 4000
		keys = 1024
	)
	transfer := make([]TxnOp, 4)
	get := func(c *Conn, i int) (*Response, error) { return c.Get(uint64(i % keys)) }
	put := func(c *Conn, i int) (*Response, error) { return c.Put(uint64(i%keys), uint64(i)) }
	// batchMax adjacent overwrites of distinct keys, pipelined in one write:
	// the server runs them as one batch.
	puts := func(c *Conn, i int) (*Response, error) {
		for j := 0; j < batchMax; j++ {
			c.SendPut(uint64((i*batchMax+j)%keys), uint64(i))
		}
		if err := c.Flush(); err != nil {
			return nil, err
		}
		for j := 1; j < batchMax; j++ {
			if r, err := c.Recv(); err != nil || !r.OK() {
				return r, err
			}
		}
		return c.Recv()
	}
	txn := func(c *Conn, i int) (*Response, error) {
		a, b := uint64(i%keys), uint64((i+7)%keys)
		transfer[0] = TxnOp{Kind: TxnRead, Key: a}
		transfer[1] = AddDelta(a, -1)
		transfer[2] = AddDelta(b, +1)
		transfer[3] = TxnOp{Kind: TxnWrite, Key: keys + uint64(i%8), Arg: uint64(i)}
		return c.Txn(transfer)
	}
	cases := []struct {
		name    string
		engine  string
		occ     bool // served without the read lane (noLane)
		dense   bool // a map of as many buckets as keys, as the benchmark's rows build theirs
		started bool // one lane Get has started the engine's snapshot tier first
		reqs    int  // requests per call of do
		do      func(c *Conn, i int) (*Response, error)
		allocs  float64 // ceilings per request, set from the measured values beside them
		bytes   float64
	}{
		// A snapshot read allocates nothing, and neither does the lane.
		{"get via lane", "medley-sharded", false, false, false, 1, get, 0.02, 4},
		// An OCC Get is a standalone read: no descriptor.
		{"get via occ", "medley-sharded", true, false, false, 1, get, 0.02, 4},
		// An overwriting Put, auto-committed, before anything has read a
		// snapshot: measured 2.000 allocations, 72.0 B — mhash's Put as
		// internal/core prices it (node 48 with the cell its unlink
		// publishes, install cell 24; the unlink is a record) and no
		// snapshot version.
		{"put", "medley-sharded", false, false, false, 1, put, 2.02, 74},
		// The same on a map of as many buckets as keys, where about a third
		// of the keys have a successor in their bucket: the same again,
		// since the new node's successor link starts on the victim's
		// committed successor cell (core.CASObj.InitFrom). Given a fresh
		// cell there, each such Put cost 24 B more: 2.38 allocations, 81.2 B.
		{"put, buckets = keys", "medley-sharded", false, true, false, 1, put, 2.02, 74},
		// The same once the snapshot tier has started: measured 3.001
		// allocations, 104.1 B (+ one 32-byte snapshot version).
		{"put, tier started", "medley-sharded", false, false, true, 1, put, 3.05, 110},
		// The same Put served in a batch of batchMax: each costs what it
		// costs alone, and the batch adds nothing — execBatch hands Run a
		// body bound once per connection, and the latch stripes allocate
		// nothing.
		{"batched puts", "medley-sharded", false, false, false, batchMax, puts, 2.02, 74},
		// Read + two Adds + a stamp write, the txload/benchmark transfer,
		// before anything has read a snapshot: measured 6.000 allocations,
		// 216.0 B: three Puts as above; execTxn's body is bound once per
		// connection and the latch stripes allocate nothing. The worker
		// runs every transaction on one descriptor, so its header and its
		// read and write sets cost nothing.
		{"4-op transfer txn", "medley-sharded", false, false, false, 1, txn, 6.15, 228},
		// The same once the snapshot tier has started: measured 9.001
		// allocations, 312.1 B (+ a 32-byte version for each of the three
		// keys it writes).
		{"4-op transfer txn, tier started", "medley-sharded", false, false, true, 1, txn, 9.15, 324},
		// The same transfer on txmontage over two devices, each request
		// followed by a Sync, so every record it supersedes is reclaimed and
		// its slot reused: measured 6.01 allocations, 265 B. That is the
		// medley row plus 16 B a Put (the index node carries the payload id:
		// 56 bytes, the 64-byte class), and 0.01 allocations, 1 B of the 128
		// device shards' free lists still growing after the warm-up. The payload's bytes go through the
		// epoch context's buffer into the device's line. While a line held
		// its payload as a slice, each Put allocated its 8-byte encoding:
		// 3 allocations and 24 B more (9.07, 288 B).
		{"4-op transfer txn, txmontage", "txmontage", false, false, false, 1, txn, 6.15, 276},
		// The same on a map of as many buckets as keys, as serve_txn_durable
		// builds its map: the same again, for the reason the Put row above
		// gives. With a fresh successor cell it measured 6.77 allocations,
		// 283.1 B.
		{"4-op transfer txn, txmontage, buckets = keys", "txmontage", false, true, false, 1, txn, 6.15, 276},
	}

	// The client's own share: the same client over the same pipe against the
	// stub.
	scl, ssv := net.Pipe()
	go stubServe(ssv)
	stub := &Conn{pol: RetryPolicy{MaxAttempts: 1}}
	stub.attach(scl)
	defer stub.Close()

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ln, wrap := newPipeListener(), func(e txengine.Engine) txengine.Engine { return e }
			if tc.occ {
				wrap = noLane
			}
			var opts Options
			if tc.dense {
				opts.MapSpec = txengine.MapSpec{Kind: txengine.KindHash, Buckets: keys}
			}
			s := serveWrapped(t, ln, tc.engine, txengine.Config{Shards: 2}, opts, wrap)
			cl, _ := ln.dial(t)
			c := &Conn{pol: RetryPolicy{MaxAttempts: 1}}
			c.attach(cl)
			for k := uint64(0); k < keys+8; k++ {
				if r, err := c.Put(k, 1<<40); err != nil || !r.OK() {
					t.Fatalf("seed %d: %+v, %v", k, r, err)
				}
			}
			if tc.started {
				if r, err := c.Get(0); err != nil || !r.OK() || s.Counters().SnapServed != 1 {
					t.Fatalf("the lane Get that starts the tier: %+v, %v, %+v", r, err, s.Counters())
				}
			}
			sync := func() {}
			if p, ok := s.Engine().(txengine.Persister); ok && p.Devices() != nil {
				sync = p.Sync // reclaim what each request superseded
			}
			round := func(c *Conn) func(int) {
				return func(i int) {
					if r, err := tc.do(c, i); err != nil || !r.OK() {
						t.Fatalf("request %d: %+v, %v", i, r, err)
					}
					sync()
				}
			}
			calls := n / tc.reqs
			clientAllocs, clientBytes := perRequest(calls, round(stub))
			allocs, bytes := perRequest(calls, round(c))
			allocs, bytes = (allocs-clientAllocs)/float64(tc.reqs), (bytes-clientBytes)/float64(tc.reqs)
			t.Logf("%.3f allocations, %.1f B per request (client's own %.3f, %.1f B subtracted)", allocs, bytes, clientAllocs, clientBytes)
			if allocs > tc.allocs || bytes > tc.bytes {
				t.Errorf("%.3f allocations, %.1f B per request; budget %.2f, %.0f B", allocs, bytes, tc.allocs, tc.bytes)
			}
			if want := uint64(0); tc.reqs > 1 {
				want = uint64(64 + calls) // perRequest's warm-up calls and the measured ones
				if got := s.Counters(); got.Batches != want || got.BatchedOps != want*uint64(tc.reqs) {
					t.Errorf("want every call served as one batch of %d: %+v", tc.reqs, got)
				}
			}
		})
	}
}
