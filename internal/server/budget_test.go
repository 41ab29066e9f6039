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
// costs the server, in allocations and bytes, on medley-sharded — measured
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
func stubServe(c net.Conn) {
	defer c.Close()
	br := bufio.NewReader(c)
	var buf, out []byte
	var resp Response
	for {
		body, err := ReadFrame(br, buf)
		if err != nil {
			return
		}
		buf = body
		resp = Response{ID: binary.BigEndian.Uint64(body), Op: body[8], Status: StatusOK}
		out = AppendResponse(out[:0], &resp)
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
		opts    Options
		started bool // one lane Get has started the engine's snapshot tier first
		do      func(c *Conn, i int) (*Response, error)
		allocs  float64 // ceilings, set from the measured values beside them
		bytes   float64
	}{
		// A snapshot read allocates nothing, and neither does the lane.
		{"get via lane", Options{}, false, get, 0.02, 4},
		// An OCC Get is a standalone read: no descriptor.
		{"get via occ", Options{NoReadLane: true}, false, get, 0.02, 4},
		// An overwriting Put, auto-committed, before anything has read a
		// snapshot: measured 3.007 allocations, 136.2 B — mhash's Put as
		// internal/core prices it (node 48 with the cell its unlink
		// publishes, deferred-unlink closure 64, install cell 24) and no
		// snapshot version.
		{"put", Options{}, false, put, 3.02, 138},
		// The same once the snapshot tier has started: measured 4.01
		// allocations, 168.4 B (+ one 32-byte snapshot version).
		{"put, tier started", Options{}, true, put, 4.05, 174},
		// Read + two Adds + a stamp write, the txload/benchmark transfer,
		// before anything has read a snapshot: measured 10.11 allocations,
		// 448.1 B: three Puts as above (408 B in 9), the 32-byte closure
		// execTxn hands Run, and the latch table's occasional growth (0.1
		// allocation). The worker runs every transaction on one descriptor,
		// so its header and its read and write sets cost nothing.
		{"4-op transfer txn", Options{}, false, txn, 10.15, 452},
		// The same once the snapshot tier has started: measured 13.11
		// allocations, 544.1 B (+ a 32-byte version for each of the three
		// keys it writes).
		{"4-op transfer txn, tier started", Options{}, true, txn, 13.15, 548},
	}

	// The client's own share: the same client over the same pipe against the
	// stub.
	scl, ssv := net.Pipe()
	go stubServe(ssv)
	stub := &Conn{c: scl, br: bufio.NewReaderSize(scl, 64<<10)}
	defer stub.Close()

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, ln := servePipe(t, "medley-sharded", txengine.Config{Shards: 2}, tc.opts)
			cl, _ := ln.dial(t)
			c := &Conn{c: cl, br: bufio.NewReaderSize(cl, 64<<10)}
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
			round := func(c *Conn) func(int) {
				return func(i int) {
					if r, err := tc.do(c, i); err != nil || !r.OK() {
						t.Fatalf("request %d: %+v, %v", i, r, err)
					}
				}
			}
			clientAllocs, clientBytes := perRequest(n, round(stub))
			allocs, bytes := perRequest(n, round(c))
			allocs, bytes = allocs-clientAllocs, bytes-clientBytes
			t.Logf("%.3f allocations, %.1f B per request (client's own %.3f, %.1f B subtracted)", allocs, bytes, clientAllocs, clientBytes)
			if allocs > tc.allocs || bytes > tc.bytes {
				t.Errorf("%.3f allocations, %.1f B per request; budget %.2f, %.0f B", allocs, bytes, tc.allocs, tc.bytes)
			}
		})
	}
}
