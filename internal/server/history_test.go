package server

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"medley/internal/history"
	"medley/internal/txengine"
)

// recConn is a client connection whose requests and answers are recorded: a
// Put as a standalone write, a Txn that writes as a transaction (its writes'
// answers unseen), a Get or an all-Read Txn as reads of a snapshot whose cut
// is unknown — the read lane serves them from one its own session pins, so
// they must see the connection's own writes and may miss others'. Requests
// may be pipelined: each is recorded from its send to its answer. A request
// shed or aborted is left out.
type recConn struct {
	*Conn
	rec  *history.Recorder
	proc int
	oks  *atomic.Uint64 // StatusOK answers, for the lane's attribution
	sent []sentReq
}

type sentReq struct {
	inv int64
	ops []history.Op
}

func (c *recConn) send(ops []history.Op, frame func() uint64) {
	inv := c.rec.Invoke()
	frame()
	c.sent = append(c.sent, sentReq{inv, ops})
}

func (c *recConn) sendGet(k uint64) {
	c.send([]history.Op{{Kind: history.Get, Key: k}}, func() uint64 { return c.SendGet(k) })
}

func (c *recConn) sendPut(k, v uint64) {
	c.send([]history.Op{{Kind: history.Put, Key: k, Arg: v}}, func() uint64 { return c.SendPut(k, v) })
}

// sendTxn sends a Txn reading the keys of reads and writing writes' pairs.
func (c *recConn) sendTxn(reads []uint64, writes ...[2]uint64) {
	var ops []history.Op
	var wire []TxnOp
	for _, k := range reads {
		ops = append(ops, history.Op{Kind: history.Get, Key: k})
		wire = append(wire, TxnOp{Kind: TxnRead, Key: k})
	}
	for _, w := range writes {
		ops = append(ops, history.Op{Kind: history.Put, Key: w[0], Arg: w[1], Blind: true})
		wire = append(wire, TxnOp{Kind: TxnWrite, Key: w[0], Arg: w[1]})
	}
	c.send(ops, func() uint64 { return c.SendTxn(wire) })
}

// recv takes the answer to the oldest request in flight and records it,
// reporting whether it was executed.
func (c *recConn) recv() (bool, error) {
	r, err := c.Recv()
	if err != nil {
		return false, err
	}
	s := c.sent[0]
	c.sent = c.sent[1:]
	switch r.Status {
	case StatusOK:
	case StatusRetry, StatusAborted:
		return false, nil
	default:
		return false, fmt.Errorf("status %d: %s", r.Status, r.Err)
	}
	c.oks.Add(1)
	e := history.Event{Proc: c.proc, Mode: history.Snapshot, Ops: s.ops, Invoke: s.inv}
	for i := range e.Ops {
		op := &e.Ops[i]
		switch {
		case op.Kind == history.Put:
			e.Mode = history.Run
			if r.Op == OpPut {
				e.Mode, op.Val, op.Ok = history.Single, r.Val, r.Found
			}
		case r.Op == OpTxn:
			op.Val, op.Ok = r.Reads[i].Val, r.Reads[i].Found
		default:
			op.Val, op.Ok = r.Val, r.Found
		}
	}
	c.rec.Complete(e)
	return true, nil
}

// do sends one request and waits for its answer, again while it is shed.
func (c *recConn) do(send func()) error {
	for {
		send()
		if err := c.Flush(); err != nil {
			return err
		}
		if ok, err := c.recv(); ok || err != nil {
			return err
		}
	}
}

// TestServeHistory drives a read-lane server over loopback and hands what
// every connection saw to the checker.
//
// The "own key" rounds are read-your-writes under a held-back seal: three
// writer connections pipeline Puts, so that the server is inside a commit
// most of the time, while 1, 4 or 16 checking connections each put a key of
// their own and read it back, and read the writers' keys. Checked key by key.
//
// The "pairs" round is atomicity: four connections write eight pairs of keys
// in 300 Txns each, four others read a pair in one all-Read Txn and one key
// of it in a Get, 400 times each. Each pair's share is checked as one whole
// history, so an audit that saw half a Txn fails it.
//
// Every round ends drained, with the lane having served reads, and every OK
// answer attributed to exactly one path: SnapServed + OCCServed.
func TestServeHistory(t *testing.T) {
	for _, checkers := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("own key/%d checkers", checkers), func(t *testing.T) {
			serveHistory(t, "medley", txengine.Config{}, history.CheckKeys, func(conn func(proc int) *recConn) {
				stop := make(chan struct{})
				var writers, wg sync.WaitGroup
				for w := range 3 {
					c := conn(w)
					writers.Add(1)
					go func() {
						defer writers.Done()
						for i := uint64(1); ; i++ {
							select {
							case <-stop:
								return
							default:
							}
							for k := range uint64(16) {
								c.sendPut(1000+16*uint64(w)+k, uint64(w+1)<<32|i)
							}
							if c.Flush() != nil {
								return
							}
							for range 16 {
								if _, err := c.recv(); err != nil {
									t.Error(err)
									return
								}
							}
						}
					}()
				}
				for ck := range checkers {
					c := conn(100 + ck)
					wg.Add(1)
					go func() {
						defer wg.Done()
						key := uint64(ck)
						for i := uint64(1); i <= 1000; i++ {
							if err := c.do(func() { c.sendPut(key, uint64(ck+100)<<32|i) }); err != nil {
								t.Error(err)
								return
							}
							if err := c.do(func() { c.sendGet(key) }); err != nil {
								t.Error(err)
								return
							}
							if i%10 == 0 {
								if err := c.do(func() { c.sendGet(1000 + i%48) }); err != nil {
									t.Error(err)
									return
								}
							}
						}
					}()
				}
				wg.Wait()
				close(stop)
				writers.Wait()
			})
		})
	}
	t.Run("pairs", func(t *testing.T) {
		const pairs, writers, readers = 8, 4, 4
		serveHistory(t, "medley-sharded", txengine.Config{Shards: 4}, checkPairs, func(conn func(proc int) *recConn) {
			var wg sync.WaitGroup
			for p := range writers + readers {
				c := conn(p)
				wg.Add(1)
				go func() {
					defer wg.Done()
					n := uint64(400)
					if p < writers {
						n = 300
					}
					for i := uint64(1); i <= n; i++ {
						a := 2 * ((uint64(p) + i) % pairs)
						var err error
						if p < writers {
							v := uint64(p+1)<<32 | i
							err = c.do(func() { c.sendTxn(nil, [2]uint64{a, v}, [2]uint64{a + 1, v}) })
						} else if err = c.do(func() { c.sendTxn([]uint64{a, a + 1}) }); err == nil {
							err = c.do(func() { c.sendGet(a) })
						}
						if err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	})
}

// checkPairs checks each pair's share of a "pairs" history as one whole
// history: every request touches one pair, keys 2p and 2p+1, so the shares
// are disjoint and each is allowed if the history is.
func checkPairs(events []history.Event) error {
	shares := map[uint64][]history.Event{}
	for _, e := range events {
		p := e.Ops[0].Key / 2
		shares[p] = append(shares[p], e)
	}
	for p, share := range shares {
		if err := history.Check(share); err != nil {
			return fmt.Errorf("pair %d: %w", p, err)
		}
	}
	return nil
}

// serveHistory serves engine, lets drive open recording connections and run
// them, drains, and checks the history and the lane's attribution.
func serveHistory(t *testing.T, engine string, cfg txengine.Config, check func([]history.Event) error, drive func(conn func(proc int) *recConn)) {
	s, addr := startServer(t, engine, cfg, Options{})
	if !s.ReadLaneEnabled() {
		t.Fatal("the read lane is off")
	}
	var rec history.Recorder
	var oks atomic.Uint64
	var conns []*Conn
	drive(func(proc int) *recConn {
		c, err := Dial(addr, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, c)
		return &recConn{Conn: c, rec: &rec, proc: proc, oks: &oks}
	})
	// Closed before the drain, which would otherwise wait out its grace on
	// each idle connection.
	for _, c := range conns {
		c.Close()
	}
	if t.Failed() {
		return
	}
	if err := check(rec.Events()); err != nil {
		t.Fatal(err)
	}
	s.Drain()
	if got := s.Counters(); got.SnapServed == 0 || got.SnapServed+got.OCCServed != oks.Load() {
		t.Fatalf("lane served %d, OCC %d, clients saw %d OK answers", got.SnapServed, got.OCCServed, oks.Load())
	}
}
