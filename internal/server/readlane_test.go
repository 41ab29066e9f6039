package server

import (
	"bufio"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"medley/internal/txengine"
)

// TestReadLaneNeverTorn is the read lane's end-to-end isolation audit:
// writer connections move value between account pairs with multi-key
// transactions while reader connections audit each pair's sum through the
// lane — synchronous Gets and all-Read Txn batches. A torn read (an audit
// transaction observing a transfer half-applied) would break the sum. After
// an explicit drain, the lane must actually have served reads, and every OK
// answered by the server must be attributed to exactly one path:
// SnapServed + OCCServed == the clients' OK tally.
func TestReadLaneNeverTorn(t *testing.T) {
	const (
		pairs     = 8
		seed      = uint64(1000)
		transfers = 300
		audits    = 400
		writers   = 4
		readers   = 4
	)
	s, addr := startServer(t, "medley-sharded", txengine.Config{Shards: 4}, Options{})
	if !s.ReadLaneEnabled() {
		t.Fatal("read lane should be on for a sharded medley engine")
	}

	// Seed each pair's two accounts.
	seedConn := dialT(t, addr)
	var okTally atomic.Uint64
	for k := uint64(0); k < 2*pairs; k++ {
		r, err := seedConn.Put(k, seed)
		if err != nil || !r.OK() {
			t.Fatalf("seed %d: %+v, %v", k, r, err)
		}
		okTally.Add(1)
	}

	var wg sync.WaitGroup
	fail := make(chan string, writers+readers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := Dial(addr, 0)
			if err != nil {
				fail <- "writer dial: " + err.Error()
				return
			}
			defer c.Close()
			for i := 0; i < transfers; i++ {
				p := uint64((w + i) % pairs)
				from, to := 2*p, 2*p+1
				if i%2 == 0 {
					from, to = to, from
				}
				r, err := c.Txn([]TxnOp{
					{Kind: TxnRead, Key: from},
					AddDelta(from, -1),
					AddDelta(to, +1),
				})
				if err != nil {
					fail <- "transfer: " + err.Error()
					return
				}
				switch r.Status {
				case StatusOK:
					okTally.Add(1)
				case StatusRetry, StatusAborted:
					// Shed under load or balance exhausted: both fine.
				default:
					fail <- "transfer status: " + r.Err
					return
				}
			}
		}(w)
	}
	for rd := 0; rd < readers; rd++ {
		wg.Add(1)
		go func(rd int) {
			defer wg.Done()
			c, err := Dial(addr, 0)
			if err != nil {
				fail <- "reader dial: " + err.Error()
				return
			}
			defer c.Close()
			for i := 0; i < audits; i++ {
				p := uint64((rd + i) % pairs)
				// The atomic audit: one all-Read transaction is a single
				// lane job served from one cut, so the pair sum must hold.
				r, err := c.Txn([]TxnOp{
					{Kind: TxnRead, Key: 2 * p},
					{Kind: TxnRead, Key: 2*p + 1},
				})
				if err != nil {
					fail <- "audit txn: " + err.Error()
					return
				}
				if r.Status == StatusRetry {
					continue
				}
				if !r.OK() || len(r.Reads) != 2 {
					fail <- "audit txn status: " + r.Err
					return
				}
				okTally.Add(1)
				if sum := r.Reads[0].Val + r.Reads[1].Val; sum != 2*seed {
					fail <- "torn read: pair sum drifted"
					return
				}
				// Interleave plain Gets so individual-Get lane traffic runs
				// under the same churn (no atomicity claim across two Gets).
				if g, err := c.Get(2 * p); err != nil || !g.OK() {
					if err != nil {
						fail <- "audit get: " + err.Error()
						return
					}
					if g.Status != StatusRetry {
						fail <- "audit get status: " + g.Err
						return
					}
				} else {
					okTally.Add(1)
				}
			}
		}(rd)
	}
	wg.Wait()
	select {
	case msg := <-fail:
		t.Fatal(msg)
	default:
	}

	s.Drain()
	got := s.Counters()
	if got.SnapServed == 0 {
		t.Fatalf("lane served nothing: %+v", got)
	}
	if got.SnapServed+got.OCCServed != okTally.Load() {
		t.Fatalf("attribution leak: snap %d + occ %d != client OKs %d",
			got.SnapServed, got.OCCServed, okTally.Load())
	}
}

// TestReadLaneReadYourWrites: a connection that just wrote a key must see
// that write through the lane immediately, even while concurrent writers on
// other keys hold the snapshot seal back (the lane falls such reads back to
// OCC rather than serve a stale cut). Every checking connection pins its own
// cuts and compares them with its own last write, so the property is checked
// with 1, 4 and 16 of them at once.
func TestReadLaneReadYourWrites(t *testing.T) {
	for _, checkers := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("%d checkers", checkers), func(t *testing.T) {
			s, addr := startServer(t, "medley", txengine.Config{}, Options{})
			if !s.ReadLaneEnabled() {
				t.Fatal("read lane should be on")
			}

			stop := make(chan struct{})
			var writers, wg sync.WaitGroup
			for w := 0; w < 3; w++ {
				writers.Add(1)
				go func(w int) {
					defer writers.Done()
					c, err := Dial(addr, 0)
					if err != nil {
						return
					}
					defer c.Close()
					// Pipelined, so that the server is inside a commit — the
					// seal held back — most of the time.
					for i := uint64(0); ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						for k := uint64(0); k < 16; k++ {
							c.SendPut(1000+16*uint64(w)+k, i)
						}
						if c.Flush() != nil {
							return
						}
						for k := 0; k < 16; k++ {
							if _, err := c.Recv(); err != nil {
								return
							}
						}
					}
				}(w)
			}
			for ck := 0; ck < checkers; ck++ {
				wg.Add(1)
				go func(key uint64) {
					defer wg.Done()
					c, err := Dial(addr, time.Second)
					if err != nil {
						t.Errorf("dial: %v", err)
						return
					}
					defer c.Close()
					for i := uint64(1); i <= 1000; i++ {
						// A Put shed by admission control (StatusRetry) was not
						// executed: send it again, or the Get below rightly reads
						// the previous value.
						for {
							r, err := c.Put(key, i)
							if err != nil || r.Status == StatusErr {
								t.Errorf("key %d put %d: %+v, %v", key, i, r, err)
								return
							}
							if r.Status != StatusRetry {
								break
							}
						}
						r, err := c.Get(key)
						if err != nil || r.Status == StatusErr {
							t.Errorf("key %d get %d: %+v, %v", key, i, r, err)
							return
						}
						if r.OK() && (!r.Found || r.Val != i) {
							t.Errorf("read-your-writes violated on key %d: wrote %d, read %+v", key, i, r)
							return
						}
					}
				}(uint64(ck))
			}
			wg.Wait()
			close(stop)
			writers.Wait()
		})
	}
}

// TestReadLaneFirstReadSeesAcknowledgedPuts: nothing reads a snapshot until
// the engine's first lane read, so every Put before it was committed without
// a version, and the connection that made it carries no read-your-writes
// watermark. That first read starts the snapshot tier, and every Put a
// connection had acknowledged by then is in its cut: four connections put,
// then one of them reads every key through the lane.
func TestReadLaneFirstReadSeesAcknowledgedPuts(t *testing.T) {
	const writers, keys = 4, 64
	for _, engine := range []string{"medley-sharded", "txmontage-sharded"} {
		t.Run(engine, func(t *testing.T) {
			s, addr := startServer(t, engine, txengine.Config{Shards: 4}, Options{})
			conns := make([]*Conn, writers)
			var wg sync.WaitGroup
			for w := range conns {
				conns[w] = dialT(t, addr)
				wg.Add(1)
				go func(c *Conn, w int) {
					defer wg.Done()
					for k := uint64(w); k < keys; k += writers {
						if r, err := c.Put(k, 1000+k); err != nil || !r.OK() {
							t.Errorf("put %d: %+v, %v", k, r, err)
							return
						}
					}
				}(conns[w], w)
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			if got := s.Counters(); got.SnapServed != 0 {
				t.Fatalf("the lane served %d reads before the first one", got.SnapServed)
			}
			ops := make([]TxnOp, keys)
			for k := range ops {
				ops[k] = TxnOp{Kind: TxnRead, Key: uint64(k)}
			}
			r, err := conns[0].Txn(ops)
			if err != nil || !r.OK() || len(r.Reads) != keys {
				t.Fatalf("first read: %+v, %v", r, err)
			}
			for k, rd := range r.Reads {
				if !rd.Found || rd.Val != 1000+uint64(k) {
					t.Errorf("key %d read %+v, acknowledged %d before the read", k, rd, 1000+k)
				}
			}
			if got := s.Counters(); got.SnapServed != 1 {
				t.Fatalf("the first read was not served by the lane: %+v", got)
			}
		})
	}
}

// parkingMap is the hosted map, except that the first Get of key parks until
// released: a connection descheduled in the middle of its read run.
type parkingMap struct {
	txengine.Map[uint64]
	key        uint64
	once, open sync.Once
	parked     chan struct{} // closed once the Get has parked
	gate       chan struct{} // closed by release
}

// parkGetsOf puts a parkingMap for key in front of s's map. Call it before
// the first dial, so that every connection's goroutine starts after the swap.
// The parked Get is released when the test ends at the latest: a failure must
// not leave a connection parked under the drain.
func parkGetsOf(t *testing.T, s *Server, key uint64) *parkingMap {
	m := &parkingMap{Map: s.m, key: key, parked: make(chan struct{}), gate: make(chan struct{})}
	t.Cleanup(m.release)
	s.m = m
	return m
}

// release lets the parked Get go on; calling it again is harmless.
func (m *parkingMap) release() { m.open.Do(func() { close(m.gate) }) }

func (m *parkingMap) Get(tx txengine.Tx, k uint64) (uint64, bool) {
	if k == m.key {
		m.once.Do(func() {
			close(m.parked)
			<-m.gate
		})
	}
	return m.Map.Get(tx, k)
}

// await blocks until a connection has parked.
func (m *parkingMap) await(t *testing.T) {
	t.Helper()
	select {
	case <-m.parked:
	case <-time.After(5 * time.Second):
		t.Fatal("no connection reached the parking Get")
	}
}

// TestReadLaneRunsAreIndependent: a read run is served by the connection that
// owns it, from a cut its own session pins, so a connection stalled inside
// its run holds up nobody. Connection A parks in the middle of a run; while
// it is parked connection B's Gets, all-Read Txn and Put are all answered;
// released, A answers in order and from the cut it pinned before B wrote.
func TestReadLaneRunsAreIndependent(t *testing.T) {
	const parkKey = 9
	s, ln := servePipe(t, "medley-sharded", txengine.Config{Shards: 2}, Options{})
	pm := parkGetsOf(t, s, parkKey)

	// readTxn reads the next response off br as an all-Read Txn's.
	readTxn := func(br *bufio.Reader, id uint64, reads ...ReadResult) {
		t.Helper()
		var resp Response
		body, err := ReadFrame(br, nil)
		if err == nil {
			err = DecodeResponse(body, &resp)
		}
		if err != nil || resp.ID != id || !resp.OK() || !slices.Equal(resp.Reads, reads) {
			t.Fatalf("txn response: id %d status %d reads %+v, %v; want id %d reads %+v", resp.ID, resp.Status, resp.Reads, err, id, reads)
		}
	}
	audit := Request{Op: OpTxn, Ops: []TxnOp{{Kind: TxnRead, Key: 1}, {Kind: TxnRead, Key: 2}}}

	seed, _ := ln.dial(t)
	mustWrite(t, seed, frames(put(1, 100), put(2, 200), put(parkKey, 300)))
	expect(t, bufio.NewReader(seed), 1, okResp(false, 0), okResp(false, 0), okResp(false, 0))

	a, _ := ln.dial(t)
	mustWrite(t, a, frames(get(1), get(parkKey), get(2), audit))
	pm.await(t)

	b, _ := ln.dial(t)
	bbr := bufio.NewReader(b)
	mustWrite(t, b, frames(get(1), get(2), audit, put(2, 201), get(2)))
	expect(t, bbr, 1, okResp(true, 100), okResp(true, 200))
	readTxn(bbr, 3, ReadResult{Found: true, Val: 100}, ReadResult{Found: true, Val: 200})
	expect(t, bbr, 4, okResp(true, 200), okResp(true, 201))

	pm.release()
	abr := bufio.NewReader(a)
	expect(t, abr, 1, okResp(true, 100), okResp(true, 300), okResp(true, 200))
	readTxn(abr, 4, ReadResult{Found: true, Val: 100}, ReadResult{Found: true, Val: 200})
}

// TestReadLaneDisabled: the -noreadlane knob forces every read through the
// OCC path, and an engine without CapSnapshot never gets a lane.
func TestReadLaneDisabled(t *testing.T) {
	s, addr := startServer(t, "medley", txengine.Config{}, Options{NoReadLane: true})
	if s.ReadLaneEnabled() {
		t.Fatal("NoReadLane should disable the lane")
	}
	c := dialT(t, addr)
	for i := 0; i < 10; i++ {
		if r, err := c.Get(uint64(i)); err != nil || !r.OK() {
			t.Fatalf("get: %+v, %v", r, err)
		}
	}
	if got := s.Counters(); got.SnapServed != 0 {
		t.Fatalf("lane counter moved while disabled: %+v", got)
	}

	s2, addr2 := startServer(t, "onefile", txengine.Config{}, Options{})
	if s2.ReadLaneEnabled() {
		t.Fatal("onefile has no snapshot tier; lane must be off")
	}
	c2 := dialT(t, addr2)
	if r, err := c2.Get(1); err != nil || !r.OK() {
		t.Fatalf("get on onefile: %+v, %v", r, err)
	}
}
