package server

import (
	"sync"
	"testing"
	"time"

	"medley/internal/pnvm"
	"medley/internal/txengine"
)

// TestDrainZeroAckedLossPersistent is the served flavor of the recovery
// conformance suite: clients hammer a txmontage server over two devices with
// transfer transactions, a drain lands mid-traffic, and the engine's
// devices are then "crashed" and recovered on a fresh engine. Because Drain
// finishes in-flight requests and syncs a durable cut before returning,
// every transaction the server ACKNOWLEDGED must survive — proved by a
// per-transaction marker write — and the recovered balances must pass the
// transfer-conservation audit.
func TestDrainZeroAckedLossPersistent(t *testing.T) {
	const (
		devices   = 2
		conns     = 4
		accounts  = uint64(32)
		opening   = uint64(1_000)
		markerLo  = uint64(1 << 20) // marker keys live far above the accounts
		perWorker = uint64(1 << 22) // marker id space per connection (not a target: drain cuts workers off mid-stream)
	)
	spec := txengine.MapSpec{Kind: txengine.KindHash, Buckets: 1 << 10}

	s, addr := startServer(t, "txmontage", txengine.Config{
		Latencies: pnvm.DefaultLatencies(), Shards: devices,
	}, Options{MapSpec: spec, DrainGrace: 300 * time.Millisecond})
	p, ok := s.Engine().(txengine.Persister)
	if !ok || len(p.Devices()) != devices {
		t.Fatalf("engine is not a %d-device persister", devices)
	}
	devs := p.Devices()

	// Fund the accounts; all funding is acknowledged before traffic starts.
	c0, err := Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for a := uint64(0); a < accounts; a++ {
		if r, err := c0.Put(a, opening); err != nil || !r.OK() {
			t.Fatalf("fund %d: %+v, %v", a, r, err)
		}
	}
	c0.Close()

	// Traffic: each connection runs transfers until the server drains under
	// it, recording the marker key of every ACKNOWLEDGED commit.
	var mu sync.Mutex
	acked := map[uint64]bool{}
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, err := Dial(addr, time.Second)
			if err != nil {
				return // drain won the race to the listener
			}
			defer c.Close()
			for i := uint64(0); i < perWorker; i++ {
				from := (uint64(w)*7 + i) % accounts
				to := (uint64(w)*13 + i*3) % accounts
				marker := markerLo + uint64(w)*perWorker + i
				r, err := c.Txn([]TxnOp{
					AddDelta(from, -5),
					AddDelta(to, 5),
					{Kind: TxnWrite, Key: marker, Arg: 1},
				})
				if err != nil {
					return // connection torn down by drain: unacked, unknown fate
				}
				switch r.Status {
				case StatusOK:
					mu.Lock()
					acked[marker] = true
					mu.Unlock()
				case StatusAborted, StatusRetry:
					// not applied (or insufficient funds): no marker expected
				case StatusDraining:
					return
				default:
					t.Errorf("worker %d: status %d: %s", w, r.Status, r.Err)
					return
				}
			}
		}(w)
	}

	// Let traffic flow, then drain mid-stream (workers run until the drain
	// cuts their connections off).
	time.Sleep(150 * time.Millisecond)
	s.Drain()
	wg.Wait()
	mu.Lock()
	nAcked := len(acked)
	mu.Unlock()
	if nAcked == 0 {
		t.Fatal("no transaction was acknowledged before drain; test proves nothing")
	}

	// Crash: close the engine, so its epoch advancer touches the devices no
	// more, then dump the surviving devices and rebuild a fresh engine on
	// them.
	s.Engine().Close()
	dumps := pnvm.DumpAll(devs)
	eng2, err := txengine.Build("txmontage", txengine.Config{
		Latencies: pnvm.DefaultLatencies(), Shards: devices, Devices: devs,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	rm, err := eng2.(txengine.Persister).RecoverUintMap(dumps, spec)
	if err != nil {
		t.Fatal(err)
	}
	tx := eng2.NewWorker(0)

	// Audit 1 — zero acknowledged-commit loss: every acked marker must have
	// been recovered (the drain synced a cut at or after the last ack).
	lost := 0
	for marker := range acked {
		if _, ok := rm.Get(tx, marker); !ok {
			lost++
		}
	}
	if lost > 0 {
		t.Errorf("%d of %d acknowledged transactions lost across drain+recover", lost, nAcked)
	}

	// Audit 2 — transfer conservation: balances sum to the funded total
	// (transfers conserve; aborted/shed transactions left no trace).
	sum := uint64(0)
	for a := uint64(0); a < accounts; a++ {
		v, ok := rm.Get(tx, a)
		if !ok {
			t.Fatalf("funded account %d missing after recovery", a)
		}
		sum += v
	}
	if want := accounts * opening; sum != want {
		t.Errorf("conservation violated after recovery: sum %d, want %d", sum, want)
	}

	// Audit 3 — no unacknowledged marker half-applied without its transfer:
	// markers beyond the acked set may exist (committed but unacked), which
	// is fine; what must not exist is a marker for a transaction whose
	// balance effect is missing — covered by audits 1+2 jointly via
	// conservation over the whole map.
	t.Logf("acked=%d lost=%d sum=%d", nAcked, lost, sum)
}
