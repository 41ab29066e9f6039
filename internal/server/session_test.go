package server

import (
	"bufio"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"medley/internal/txengine"
)

// countingEngine is the real engine, counting the sessions the server creates
// on it.
type countingEngine struct {
	txengine.Engine
	workers atomic.Int64
}

func (e *countingEngine) NewWorker(tid int) txengine.Tx {
	e.workers.Add(1)
	return e.Engine.NewWorker(tid)
}

// TestServeSessionsReused: an engine session cannot be released, and each one
// is a slot every commit and every snapshot pin walks, so the server hands a
// closed connection's session to the next connection instead of creating one
// per accept. However many connections come and go, the engine holds as many
// sessions as were ever open at once — and none for the read lane itself. The
// server's counter cells travel with the sessions, so they never outnumber
// them.
func TestServeSessionsReused(t *testing.T) {
	ce := &countingEngine{}
	ln := newPipeListener()
	s := serveWrapped(t, ln, "medley-sharded", txengine.Config{Shards: 2}, Options{},
		func(e txengine.Engine) txengine.Engine { ce.Engine = e; return ce })
	if !s.ReadLaneEnabled() {
		t.Fatal("read lane should be on")
	}
	const parkKey = 1 << 40
	pm := parkGetsOf(t, s, parkKey)
	if n := ce.workers.Load(); n != 0 {
		t.Fatalf("New created %d sessions with the lane on, want none before the first connection", n)
	}
	// idle waits until every connection has gone and handed its session back,
	// then checks the counter cells against the sessions.
	idle := func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for {
			s.mu.Lock()
			n := len(s.conns)
			s.mu.Unlock()
			if n == 0 {
				if cells, sessions := s.cells.Len(), ce.workers.Load(); int64(cells) > sessions {
					t.Fatalf("%d counter cells for %d sessions", cells, sessions)
				}
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%d connections still registered", n)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}

	// One connection at a time. Each one's first request is a lane read of
	// the key its predecessor wrote, on the predecessor's session.
	const sequential = 1000
	for i := uint64(1); i <= sequential; i++ {
		cl, _ := ln.dial(t)
		mustWrite(t, cl, frames(get(i-1), put(i, 10*i), get(i)))
		expect(t, bufio.NewReader(cl), 1, okResp(i > 1, 10*(i-1)), okResp(false, 0), okResp(true, 10*i))
		cl.Close()
		idle()
	}
	if n := ce.workers.Load(); n > 2 {
		t.Errorf("%d sequential connections created %d sessions, want at most 2", sequential, n)
	}
	// Nothing else was writing, so no cut trailed: every Get was a lane read,
	// inherited read-your-writes watermark and all.
	if got := s.Counters(); got.SnapServed != 2*sequential || got.OCCServed != sequential {
		t.Errorf("snapserved=%d occserved=%d, want %d and %d", got.SnapServed, got.OCCServed, 2*sequential, sequential)
	}

	// Two waves of eight concurrent connections: the second wave runs on the
	// first wave's sessions.
	for wave := uint64(0); wave < 2; wave++ {
		var clients [8]net.Conn
		for i := range clients {
			clients[i], _ = ln.dial(t)
			mustWrite(t, clients[i], frames(put(5000+uint64(i), wave+1), get(5000+uint64(i))))
		}
		for _, cl := range clients {
			expect(t, bufio.NewReader(cl), 1, okResp(wave > 0, wave), okResp(true, wave+1))
			cl.Close()
		}
		idle()
	}
	if n := ce.workers.Load(); n > 8 {
		t.Errorf("two waves of 8 concurrent connections brought the session count to %d, want at most 8", n)
	}

	// A session is handed on only when its connection's last burst has been
	// executed. A's last burst — the garbage behind the Get ends it — parks
	// in the engine, inside its pinned cut; B connects meanwhile and must be
	// given another session: a Put through A's would panic in the engine as a
	// write inside a snapshot.
	a, _ := ln.dial(t)
	mustWrite(t, a, append(frames(get(parkKey)), 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 6, 99))
	pm.await(t)
	b, _ := ln.dial(t)
	mustWrite(t, b, frames(put(6000, 1), get(6000)))
	expect(t, bufio.NewReader(b), 1, okResp(false, 0), okResp(true, 1))
	pm.release()
	abr := bufio.NewReader(a)
	expect(t, abr, 1, okResp(false, 0))
	expectClosed(t, abr)
	b.Close()
	idle()
	if n := ce.workers.Load(); n > 8 {
		t.Errorf("session count %d after two more connections, want at most 8", n)
	}
}
