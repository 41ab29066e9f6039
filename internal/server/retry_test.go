package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"medley/internal/chaos"
	"medley/internal/txengine"
)

// scriptServer is a minimal wire-speaking server that answers every request
// with the next status from script (sticking on the last), shared across
// reconnects — so a test can deterministically hand a client "RETRY, then
// OK" without forcing a real server into overload.
func scriptServer(t *testing.T, script []byte) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	var next atomic.Int64
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				br := bufio.NewReader(c)
				var buf []byte
				for {
					body, err := ReadFrame(br, buf)
					if err != nil {
						return
					}
					buf = body
					req, err := DecodeRequest(body)
					if err != nil {
						return
					}
					i := int(next.Add(1)) - 1
					if i >= len(script) {
						i = len(script) - 1
					}
					resp := Response{ID: req.ID, Op: req.Op, Status: script[i]}
					if _, err := c.Write(AppendResponse(nil, &resp)); err != nil {
						return
					}
				}
			}(c)
		}
	}()
	return ln.Addr().String()
}

// TestClientRetriesShedWrites: StatusRetry means "not executed", so even a
// write must be re-sent, transparently, with the retry tallied.
func TestClientRetriesShedWrites(t *testing.T) {
	addr := scriptServer(t, []byte{StatusRetry, StatusRetry, StatusOK})
	cl := NewClient(addr, RetryPolicy{})
	defer cl.Close()
	resp, err := cl.Put(1, 2)
	if err != nil || !resp.OK() {
		t.Fatalf("Put through shedding: %+v, %v", resp, err)
	}
	if st := cl.Stats(); st.Retries != 2 {
		t.Fatalf("retries = %d, want 2", st.Retries)
	}
}

// TestClientRetriesDraining: StatusDraining is also not-executed; the client
// reconnects (the address may point at a fresh instance) and retries.
func TestClientRetriesDraining(t *testing.T) {
	addr := scriptServer(t, []byte{StatusDraining, StatusOK})
	cl := NewClient(addr, RetryPolicy{})
	defer cl.Close()
	resp, err := cl.Txn([]TxnOp{{Kind: TxnWrite, Key: 3, Arg: 4}})
	if err != nil || !resp.OK() {
		t.Fatalf("Txn through draining: %+v, %v", resp, err)
	}
	if st := cl.Stats(); st.Retries != 1 {
		t.Fatalf("retries = %d, want 1", st.Retries)
	}
}

// TestClientExhaustsAttempts: a server that never stops shedding must not
// loop forever; the terminal error reports the shed count.
func TestClientExhaustsAttempts(t *testing.T) {
	addr := scriptServer(t, []byte{StatusRetry})
	cl := NewClient(addr, RetryPolicy{MaxAttempts: 3})
	defer cl.Close()
	if _, err := cl.Get(9); err == nil {
		t.Fatal("Get against always-shedding server succeeded")
	}
	if st := cl.Stats(); st.Retries != 3 {
		t.Fatalf("retries = %d, want 3", st.Retries)
	}
}

// TestClientPipelinedShedResent: a request shed inside a pipelined window
// is sent again under its own id, and its answer arrives after those of the
// requests behind it, which completed without waiting for it; a request
// sent while it backs off is written only after it.
func TestClientPipelinedShedResent(t *testing.T) {
	addr := scriptServer(t, []byte{StatusOK, StatusRetry, StatusOK})
	cl := NewClient(addr, RetryPolicy{})
	defer cl.Close()
	var ids, got []uint64
	recv := func() {
		resp, err := cl.Recv()
		if err != nil || !resp.OK() {
			t.Fatalf("Recv: %+v, %v", resp, err)
		}
		got = append(got, resp.ID)
	}
	for k := uint64(1); k <= 4; k++ {
		ids = append(ids, cl.SendGet(k))
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	recv()
	recv() // the second request was shed, so this is the third's answer
	ids = append(ids, cl.SendGet(5))
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	for len(got) < len(ids) {
		recv()
	}
	if want := []uint64{ids[0], ids[2], ids[3], ids[1], ids[4]}; !slices.Equal(got, want) {
		t.Fatalf("answers for ids %v, want %v: the shed request after the window, under its own id, and before the one sent while it waited", got, want)
	}
	if st := cl.Stats(); st.Retries != 1 || st.Resends != 1 || st.Reconnects != 0 {
		t.Fatalf("%+v, want one shed answer, one re-send, no reconnect", st)
	}
}

// TestClientTxnTooLong: a batch over MaxTxnOps ops cannot be framed, so the
// client refuses it before sending anything — a write batch is not an unknown
// outcome, a read batch is not retried, and the connection is not dropped.
func TestClientTxnTooLong(t *testing.T) {
	addr := scriptServer(t, []byte{StatusOK})
	cl := NewClient(addr, RetryPolicy{})
	defer cl.Close()
	if _, err := cl.Get(1); err != nil {
		t.Fatal(err)
	}
	for _, kind := range []byte{TxnWrite, TxnRead} {
		ops := make([]TxnOp, MaxTxnOps+1)
		for i := range ops {
			ops[i] = TxnOp{Kind: kind, Key: uint64(i)}
		}
		if _, err := cl.Txn(ops); err == nil || errors.Is(err, ErrUnknownOutcome) {
			t.Fatalf("kind %d: Txn of %d ops: %v, want the encode error", kind, len(ops), err)
		}
		if st := cl.Stats(); st != (ClientStats{}) {
			t.Fatalf("kind %d: %+v after a batch that was never sent, want no retry or reconnect", kind, st)
		}
	}
	if resp, err := cl.Get(2); err != nil || !resp.OK() {
		t.Fatalf("Get after the refused batches: %+v, %v", resp, err)
	}
}

// TestClientReconnectsOnReadFault: injected input faults drop the server
// side of the connection before anything executes; idempotent reads retry
// through the reconnects.
func TestClientReconnectsOnReadFault(t *testing.T) {
	_, addr := startServer(t, "medley-sharded", txengine.Config{Shards: 2}, Options{})
	t.Cleanup(chaos.DisarmAll)
	if err := chaos.Arm("server.frame.read", chaos.Fault{Kind: chaos.Error, Every: 5}); err != nil {
		t.Fatal(err)
	}
	cl := NewClient(addr, RetryPolicy{})
	defer cl.Close()
	for i := 0; i < 30; i++ {
		if resp, err := cl.Get(uint64(i)); err != nil || !resp.OK() {
			t.Fatalf("Get %d: %+v, %v", i, resp, err)
		}
	}
	if st := cl.Stats(); st.Reconnects == 0 {
		t.Fatal("no reconnects despite injected read faults")
	}
	if chaos.Fired("server.frame.read") == 0 {
		t.Fatal("read fault never fired")
	}
}

// TestClientWriteUnknownOutcome: a connection torn after a write was sent
// yields the typed ErrUnknownOutcome — and the ambiguity is real: here the
// server committed the write and lost only the acknowledgment.
func TestClientWriteUnknownOutcome(t *testing.T) {
	_, addr := startServer(t, "medley-sharded", txengine.Config{Shards: 2}, Options{})
	t.Cleanup(chaos.DisarmAll)
	if err := chaos.Arm("server.frame.write", chaos.Fault{Kind: chaos.Torn, Times: 1}); err != nil {
		t.Fatal(err)
	}
	cl := NewClient(addr, RetryPolicy{})
	defer cl.Close()
	_, err := cl.Put(7, 70)
	if !errors.Is(err, ErrUnknownOutcome) {
		t.Fatalf("torn-ack Put error = %v, want ErrUnknownOutcome", err)
	}
	// The fault fired once; the reconnected client works again, and the
	// "unknown" write in fact committed before its acknowledgment tore.
	if resp, err := cl.Get(7); err != nil || !resp.Found || resp.Val != 70 {
		t.Fatalf("Get(7) after unknown-outcome Put: %+v, %v", resp, err)
	}
	if st := cl.Stats(); st.Reconnects != 1 {
		t.Fatalf("reconnects = %d, want 1", st.Reconnects)
	}
}

// TestIdleTimeoutClosesConnection: a connected client that never sends a
// frame is cut loose by Options.IdleTimeout instead of pinning its engine
// session until drain.
func TestIdleTimeoutClosesConnection(t *testing.T) {
	s, addr := startServer(t, "medley-sharded", txengine.Config{Shards: 2}, Options{
		IdleTimeout: 50 * time.Millisecond,
	})
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.Read(make([]byte, 1)); err == io.EOF {
		// server closed us — expected
	} else if err == nil {
		t.Fatal("server sent bytes to an idle connection")
	}
	deadline := time.Now().Add(2 * time.Second)
	for s.Counters().IdleClosed == 0 {
		if time.Now().After(deadline) {
			t.Fatal("IdleClosed counter never incremented")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTornFrameLoadZeroUnaccounted is the serving-tier acceptance audit:
// a fleet of retrying clients drives unique-key Puts into a server that
// tears a response frame every several writes (forcing reconnects and
// unknown outcomes), and afterwards every acknowledged commit must be
// present in the hosted map and every present key must be accounted for by
// an acknowledged or unknown-outcome Put — zero unaccounted acknowledged
// commits, zero phantom writes. The window-1 row drives synchronous Puts;
// the window-8 row keeps eight Puts in flight on each connection, as
// txload does, so a tear catches several of them at once.
func TestTornFrameLoadZeroUnaccounted(t *testing.T) {
	for _, window := range []int{1, 8} {
		t.Run(fmt.Sprintf("window=%d", window), func(t *testing.T) { tornFrameLoad(t, window) })
	}
}

func tornFrameLoad(t *testing.T, window int) {
	s, addr := startServer(t, "medley-sharded", txengine.Config{Shards: 2}, Options{})
	t.Cleanup(chaos.DisarmAll)
	if err := chaos.Arm("server.frame.write", chaos.Fault{Kind: chaos.Torn, Every: 37}); err != nil {
		t.Fatal(err)
	}

	const workers, puts = 8, 250
	type tally struct {
		acked, unknown map[uint64]uint64
		reconnects     uint64
	}
	tallies := make([]tally, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl := NewClient(addr, RetryPolicy{MaxAttempts: 12})
			defer cl.Close()
			acked, unknown := map[uint64]uint64{}, map[uint64]uint64{}
			record := func(key uint64, resp *Response, err error) {
				val := key*3 + 1
				switch {
				case err == nil && resp.OK():
					acked[key] = val
				case errors.Is(err, ErrUnknownOutcome):
					unknown[key] = val
				default:
					t.Errorf("worker %d put %d: %+v, %v", w, key, resp, err)
				}
			}
			if window == 1 {
				for i := 0; i < puts; i++ {
					key := uint64(w*puts + i + 1)
					resp, err := cl.Put(key, key*3+1)
					record(key, resp, err)
				}
			} else {
				keyOf := map[uint64]uint64{} // request id → key
				for i := 0; i < puts || len(keyOf) > 0; {
					for ; i < puts && len(keyOf) < window; i++ {
						key := uint64(w*puts + i + 1)
						keyOf[cl.SendPut(key, key*3+1)] = key
					}
					cl.Flush()
					resp, err := cl.Recv()
					if resp == nil {
						t.Errorf("worker %d: Recv with %d outstanding: %v", w, len(keyOf), err)
						return
					}
					key, ok := keyOf[resp.ID]
					if !ok {
						t.Errorf("worker %d: answer for unknown request id %d", w, resp.ID)
						return
					}
					delete(keyOf, resp.ID)
					record(key, resp, err)
				}
			}
			tallies[w] = tally{acked: acked, unknown: unknown, reconnects: cl.Stats().Reconnects}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if chaos.Fired("server.frame.write") == 0 {
		t.Fatal("torn-write fault never fired")
	}
	var reconnects, unknowns int
	for _, ta := range tallies {
		reconnects += int(ta.reconnects)
		unknowns += len(ta.unknown)
	}
	if reconnects == 0 {
		t.Fatal("no client ever reconnected")
	}
	chaos.DisarmAll()

	// Audit through the hosted map in-process.
	tx := s.Engine().NewWorker(-1)
	m := s.Map()
	unaccounted, lost := 0, 0
	for w := 0; w < workers; w++ {
		for i := 0; i < puts; i++ {
			key := uint64(w*puts + i + 1)
			v, found := m.Get(tx, key)
			wantVal := key*3 + 1
			if av, ok := tallies[w].acked[key]; ok {
				if !found || v != av {
					lost++
					t.Errorf("acked commit lost: key %d (found=%v val=%d want=%d)", key, found, v, av)
				}
				continue
			}
			if _, ok := tallies[w].unknown[key]; ok {
				if found && v != wantVal {
					t.Errorf("unknown-outcome key %d holds foreign value %d", key, v)
				}
				continue // either fate is legal for unknown outcomes
			}
			if found {
				unaccounted++
				t.Errorf("unaccounted commit: key %d = %d acknowledged to nobody", key, v)
			}
		}
	}
	t.Logf("torn-frame load, window %d: %d workers × %d puts, %d reconnects, %d unknown outcomes, %d lost acks, %d unaccounted",
		window, workers, puts, reconnects, unknowns, lost, unaccounted)
}
