package server

import (
	"bufio"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"medley/internal/txengine"
)

// TestReadLaneFirstReadSeesAcknowledgedPuts: nothing reads a snapshot until
// the engine's first lane read, so every Put before it was committed without
// a version, and the connection that made it carries no read-your-writes
// watermark. That first read starts the snapshot tier, and every Put a
// connection had acknowledged by then is in its cut: four connections put,
// then one of them reads every key through the lane.
func TestReadLaneFirstReadSeesAcknowledgedPuts(t *testing.T) {
	const writers, keys = 4, 64
	for _, engine := range []string{"medley-sharded", "txmontage"} {
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

// TestReadLaneDisabled: an engine that does not report CapSnapshot gets no
// lane, so every read goes through the OCC path — whether it has no snapshot
// tier (onefile) or only does not report it.
func TestReadLaneDisabled(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := serveWrapped(t, ln, "medley", txengine.Config{}, Options{}, noLane)
	if s.ReadLaneEnabled() {
		t.Fatal("an engine without CapSnapshot should get no lane")
	}
	c := dialT(t, ln.Addr().String())
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
