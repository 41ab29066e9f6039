package main

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"slices"
	"sync"
	"time"

	"medley"
	"medley/internal/bench"
	"medley/internal/chaos"
	"medley/internal/pnvm"
	"medley/internal/server"
	"medley/internal/txengine"
)

// The ledger replay of the traced run: one goroutine feeds the first
// ledgerOps generated operations of the workload to each layer's public
// entry point in turn — the whole stack first (depth-1 round trips through
// the live server), then wire codec, engine, bare TxManager + structure, and
// the structure alone. Every row is a mean per workload operation (one
// request or one transaction), so rows subtract: what the transport adds is
// the round trip minus codec minus engine, what NBTC adds is commit minus
// the bare structure.

const ledgerOps = 100_000

// layers are the replay closures of one workload; nil where it bypasses the
// layer.
type layers struct {
	wire, exec, commit, bare func(i int)
}

// timeLayer runs fn n times and returns mean ns and heap allocations per
// call, logging one span for the whole replay. Every row starts from a
// collected heap: on serve_txn_durable a GC cycle marks half a gigabyte, and a
// row that happened to run beside one read up to nine times slower than the
// same row without.
func (r *run) timeLayer(name string, n int, fn func(i int)) (nsOp, allocsOp float64) {
	if r.ledger == nil {
		r.ledger = newSpanLog(32)
		r.logs = append(r.logs, r.ledger)
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	t0 := r.since()
	for i := 0; i < n; i++ {
		fn(i)
	}
	t1 := r.since()
	runtime.ReadMemStats(&m1)
	r.ledger.add(1<<63, uint32(len(r.ledger.spans)+1), 0, "ledger."+name, t0, t1)
	return float64(t1-t0) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

func (r *run) ledgerN() int {
	if r.cfg.smoke {
		return 2000
	}
	return ledgerOps
}

// replay times every layer the workload has and publishes the rows.
func (r *run) replay(l layers) {
	n := r.ledgerN()
	if l.wire != nil {
		ns, al := r.timeLayer("wire", n, l.wire)
		r.set("server.wire_ns_op", ns)
		r.set("server.wire_allocs_op", al)
	}
	if l.exec != nil {
		ns, al := r.timeLayer("exec", n, l.exec)
		r.set("txengine.exec_ns_op", ns)
		r.set("txengine.allocs_op", al)
	}
	if l.commit != nil {
		ns, al := r.timeLayer("commit", n, l.commit)
		r.set("core.commit_ns_op", ns)
		r.set("core.allocs_op", al)
	}
	if l.bare != nil {
		ns, _ := r.timeLayer("bare", n, l.bare)
		r.set("structures.op_ns", ns)
	}
}

// coreAbortShare publishes the bare manager's aborts per begun transaction
// over the replay (single goroutine, so anything but 0 is a self-conflict).
func coreAbortShare(r *run, mgr *medley.TxManager) {
	if st := mgr.Stats(); st.Begins > 0 {
		r.set("core.abort_share", float64(st.Aborts)/float64(st.Begins))
	}
}

// ---- serving workloads ---------------------------------------------------

// lop is one operation of a serving workload's ledger stream.
type lop struct {
	put  bool
	a, b uint64 // key (and value) or from/to accounts
}

func ledgerStream(workload string, seed uint64, keys, n int) []lop {
	rng := rand.New(rand.NewPCG(seed, drivers+1))
	z := rand.NewZipf(rng, 1.1, 1, uint64(keys-1))
	ops := make([]lop, n)
	for i := range ops {
		if workload == serveTxnDurable {
			f, t := z.Uint64(), z.Uint64()
			if f == t {
				t = (t + 1) % uint64(keys)
			}
			ops[i] = lop{a: f, b: t}
		} else {
			ops[i] = lop{a: z.Uint64(), put: rng.IntN(100) < 5}
		}
	}
	return ops
}

// serveLedger runs after the traced serving phases, on the live (now idle)
// server and engine.
func serveLedger(r *run, g *serveRig) error {
	n := r.ledgerN()
	ops := ledgerStream(r.cfg.workload, r.cfg.seed, g.keys, n)
	stampKey := uint64(g.keys + drivers + 1)

	// Whole stack: depth-1 round trips on one fresh connection.
	c, err := server.Dial(g.addr, time.Second)
	if err != nil {
		return fmt.Errorf("ledger dial: %w", err)
	}
	defer c.Close()
	d1 := n / 10
	var txbuf []server.TxnOp
	var rttErr error
	rttNs, _ := r.timeLayer("rtt_d1", d1, func(i int) {
		var resp *server.Response
		var err error
		switch op := ops[i]; {
		case g.durable():
			txbuf = transferOps(txbuf, op.a, op.b, stampKey, uint64(i+1))
			resp, err = c.Txn(txbuf)
		case op.put:
			resp, err = c.Put(op.a, op.a+1)
		default:
			resp, err = c.Get(op.a)
		}
		if err == nil && !resp.OK() {
			err = fmt.Errorf("status %d", resp.Status)
		}
		if err != nil && rttErr == nil {
			rttErr = fmt.Errorf("ledger round trip %d: %w", i, err)
		}
	})
	if rttErr != nil {
		return rttErr
	}
	r.attempted += int64(d1)
	r.set("server.rtt_d1_us", rttNs/1e3)

	// Wire codec alone: both directions of one request.
	var (
		reqBuf, respBuf []byte
		scratch         []server.TxnOp
		req             server.Request
		resp, back      server.Response
		oneRead         = []server.ReadResult{{Found: true, Val: 1}}
	)
	l := layers{wire: func(i int) {
		op := ops[i]
		switch {
		case g.durable():
			txbuf = transferOps(txbuf, op.a, op.b, stampKey, uint64(i+1))
			req = server.Request{ID: uint64(i), Op: server.OpTxn, Ops: txbuf}
			resp = server.Response{ID: uint64(i), Op: server.OpTxn, Reads: oneRead}
		case op.put:
			req = server.Request{ID: uint64(i), Op: server.OpPut, Key: op.a, Val: op.a + 1}
			resp = server.Response{ID: uint64(i), Op: server.OpPut, Found: true, Val: op.a}
		default:
			req = server.Request{ID: uint64(i), Op: server.OpGet, Key: op.a}
			resp = server.Response{ID: uint64(i), Op: server.OpGet, Found: true, Val: op.a}
		}
		reqBuf = server.AppendRequest(reqBuf[:0], &req)
		got, err := server.DecodeRequestReuse(reqBuf[4:], scratch)
		if err != nil {
			panic(err) // our own encoding: a bug, not an input
		}
		scratch = got.Ops[:0]
		respBuf = server.AppendResponse(respBuf[:0], &resp)
		if err := server.DecodeResponse(respBuf[4:], &back); err != nil {
			panic(err)
		}
	}}

	// Engine alone: what the server does per request at depth 1, on the
	// same engine and hosted map, without the server.
	tx := g.eng.NewWorker(2000)
	m := g.srv.Map()
	var cur lop
	var seq uint64
	var keys [4]uint64
	getOne := func(int, uint64) { m.Get(tx, cur.a) }
	xfer := func() error {
		m.Get(tx, cur.a)
		v, _ := m.Get(tx, cur.a)
		m.Put(tx, cur.a, v-1)
		u, _ := m.Get(tx, cur.b)
		m.Put(tx, cur.b, u+1)
		m.Put(tx, stampKey, seq)
		return nil
	}
	l.exec = func(i int) {
		cur = ops[i]
		switch {
		case g.durable():
			seq++
			keys = [4]uint64{cur.a, cur.a, cur.b, stampKey}
			txengine.HintKeys(tx, keys[:]...)
			if err := tx.Run(xfer); err != nil {
				panic(err)
			}
		case cur.put:
			m.Put(tx, cur.a, cur.a+1)
		default:
			txengine.SnapshotReadBatch(tx, 1, getOne)
		}
	}

	// Bare TxManager + hash table through the root package, then the hash
	// table alone.
	mgr := medley.NewTxManager()
	ht := medley.NewHashMap[uint64](g.spec.Buckets)
	s := mgr.Session()
	for k := 0; k <= int(stampKey); k++ {
		ht.Put(s, uint64(k), startBalance)
	}
	bareOp := func() error {
		switch {
		case g.durable():
			ht.Get(s, cur.a)
			v, _ := ht.Get(s, cur.a)
			ht.Put(s, cur.a, v-1)
			u, _ := ht.Get(s, cur.b)
			ht.Put(s, cur.b, u+1)
			ht.Put(s, stampKey, seq)
		case cur.put:
			ht.Put(s, cur.a, cur.a+1)
		default:
			ht.Get(s, cur.a)
		}
		return nil
	}
	l.commit = func(i int) {
		cur, seq = ops[i], seq+1
		if err := s.Run(bareOp); err != nil {
			panic(err)
		}
	}
	l.bare = func(i int) {
		cur, seq = ops[i], seq+1
		bareOp()
	}
	r.replay(l)
	coreAbortShare(r, mgr)
	r.set("server.transport_ns_op", rttNs-r.metrics["server.wire_ns_op"]-r.metrics["txengine.exec_ns_op"])

	snapNs, _ := r.timeLayer("snap_read", n, func(i int) {
		cur = ops[i]
		txengine.SnapshotReadBatch(tx, 1, getOne)
	})
	r.set("txengine.snap_read_ns", snapNs)
	over, err := shardOverhead(r, ops)
	if err != nil {
		return err
	}
	r.set("txengine.shard_overhead_x", over)
	if g.durable() {
		return durableLedger(r, ops)
	}
	return nil
}

// shardOverhead is the price of the sharded decorator on work that needs no
// second shard: the stream's single-key operations, each as its own
// transaction, on medley-sharded over the same on plain medley.
func shardOverhead(r *run, ops []lop) (float64, error) {
	const keys = 1 << 14
	var ns [2]float64
	for i, name := range []string{"medley-sharded", "medley"} {
		eng, err := txengine.Build(name, txengine.Config{Shards: 4})
		if err != nil {
			return 0, err
		}
		m, err := eng.NewUintMap(txengine.MapSpec{Kind: txengine.KindHash, Buckets: keys})
		if err != nil {
			eng.Close()
			return 0, err
		}
		tx := eng.NewWorker(1)
		for k := uint64(0); k < keys; k++ {
			m.Put(tx, k, k)
		}
		var cur lop
		body := func() error {
			if cur.put {
				m.Put(tx, cur.a%keys, cur.a)
			} else {
				m.Get(tx, cur.a%keys)
			}
			return nil
		}
		ns[i], _ = r.timeLayer("single_shard."+name, len(ops), func(j int) {
			cur = ops[j]
			if err := tx.Run(body); err != nil {
				panic(err)
			}
		})
		eng.Close()
	}
	return ns[0] / ns[1], nil
}

// durableLedger measures the persistence layers on their own: the device's
// write cost, a disarmed fault point, and the exact device writes per commit
// of one client with benchmark-driven epochs — a count that must repeat
// exactly from run to run.
func durableLedger(r *run, ops []lop) error {
	dev := pnvm.New(pnvm.Latencies{})
	val := make([]byte, 8)
	writeNs, _ := r.timeLayer("pnvm.write", len(ops), func(i int) {
		if _, err := dev.Write(ops[i].a, val, 1); err != nil {
			panic(err)
		}
	})
	r.set("pnvm.write_ns", writeNs)

	point := chaos.At("benchmark.disarmed")
	hitNs, _ := r.timeLayer("chaos.hit", 10*len(ops), func(int) { point.Hit() })
	r.set("chaos.disarmed_hit_ns", hitNs)

	const accounts, perEpoch = 1 << 12, 1000
	eng, err := txengine.Build("txmontage-sharded", txengine.Config{Shards: 4})
	if err != nil {
		return err
	}
	defer eng.Close()
	p := eng.(txengine.Persister)
	m, err := eng.NewUintMap(txengine.MapSpec{Kind: txengine.KindHash, Buckets: accounts})
	if err != nil {
		return err
	}
	tx := eng.NewWorker(1)
	for k := uint64(0); k <= accounts; k++ {
		m.Put(tx, k, startBalance)
	}
	p.Sync()
	writes := func() (w uint64) {
		for _, d := range p.Devices() {
			dw, _, _ := d.Stats()
			w += dw
		}
		return w
	}
	var from, to, seq uint64
	body := func() error {
		m.Get(tx, from)
		v, _ := m.Get(tx, from)
		m.Put(tx, from, v-1)
		u, _ := m.Get(tx, to)
		m.Put(tx, to, u+1)
		m.Put(tx, accounts, seq)
		return nil
	}
	w0, n := writes(), len(ops)/10
	for i := 0; i < n; i++ {
		from, to, seq = ops[i].a%accounts, ops[i].b%accounts, seq+1
		if from == to {
			to = (to + 1) % accounts
		}
		txengine.HintKeys(tx, from, to, accounts)
		if err := tx.Run(body); err != nil {
			return fmt.Errorf("one-client replay: %w", err)
		}
		if (i+1)%perEpoch == 0 {
			p.Sync()
		}
	}
	p.Sync()
	r.set("pnvm.writes_per_commit_1c", float64(writes()-w0)/float64(n))
	return nil
}

// syncTicker is the traced durable run's epoch driver: the engine is built
// with its own advancer off, and this goroutine calls Persister.Sync every
// 10 ms and times each call, so flush spikes a median hides are visible.
type syncTicker struct {
	quit chan struct{}
	wg   sync.WaitGroup
	log  *spanLog
	devs []*pnvm.Device
	// per sync: start, duration, device writes seen so far
	starts []time.Time
	durs   []time.Duration
	writes []uint64
}

func startSyncTicker(r *run, p txengine.Persister) *syncTicker {
	const maxSyncs = 1 << 14
	t := &syncTicker{quit: make(chan struct{}), log: newSpanLog(maxSyncs), devs: p.Devices(),
		starts: make([]time.Time, 0, maxSyncs), durs: make([]time.Duration, 0, maxSyncs), writes: make([]uint64, 0, maxSyncs)}
	r.logs = append(r.logs, t.log)
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for id := uint64(1); ; id++ {
			select {
			case <-t.quit:
				return
			case <-tick.C:
			}
			if len(t.starts) == cap(t.starts) {
				p.Sync()
				continue
			}
			began := time.Now()
			p.Sync()
			d := time.Since(began)
			var w uint64
			for _, dev := range t.devs {
				dw, _, _ := dev.Stats()
				w += dw
			}
			t.starts, t.durs, t.writes = append(t.starts, began), append(t.durs, d), append(t.writes, w)
			s := began.Sub(r.t0).Nanoseconds()
			t.log.add(1<<61|id, 1, 0, "sync", s, s+d.Nanoseconds())
		}
	}()
	return t
}

func (t *syncTicker) stop() {
	close(t.quit)
	t.wg.Wait()
}

// report publishes the syncs that started inside [from, to).
func (t *syncTicker) report(r *run, from, to time.Time) {
	var ms []float64
	var busy time.Duration
	var w0, w1 uint64
	for i, at := range t.starts {
		if at.Before(from) || !at.Before(to) {
			continue
		}
		if len(ms) == 0 && i > 0 {
			w0 = t.writes[i-1]
		}
		w1 = t.writes[i]
		ms = append(ms, float64(t.durs[i])/float64(time.Millisecond))
		busy += t.durs[i]
	}
	if len(ms) == 0 {
		return
	}
	slices.Sort(ms)
	r.set("montage.sync_ms_p50", ms[len(ms)/2])
	r.set("montage.sync_ms_max", ms[len(ms)-1])
	r.set("montage.sync_busy_share", busy.Seconds()/to.Sub(from).Seconds())
	r.set("montage.records_per_sync", float64(w1-w0)/float64(len(ms)))
}

// ---- embedded workloads --------------------------------------------------

// composeLedger replays the paper's transactions through the live medley
// engine, a bare TxManager + hash table, and the hash table alone.
func composeLedger(r *run, c *composeSys, live *composeStepper) error {
	n := r.ledgerN()
	rng := rand.New(rand.NewPCG(r.cfg.seed, drivers+1))
	txs := make([][]bench.Op, n)
	for i := range txs {
		txs[i] = c.wl.GenTx(rng, nil)
	}
	mgr := medley.NewTxManager()
	sl := medley.NewHashMap[uint64](int(c.wl.KeySpace))
	s := mgr.Session()
	step := c.wl.KeySpace / uint64(c.wl.Preload)
	for i := 0; i < c.wl.Preload; i++ {
		sl.Put(s, uint64(i)*step, uint64(i)*step+1)
	}
	var cur []bench.Op
	apply := func() error {
		for _, op := range cur {
			switch op.Kind {
			case bench.Get:
				sl.Get(s, op.Key)
			case bench.Insert:
				sl.Insert(s, op.Key, op.Val)
			case bench.Remove:
				sl.Remove(s, op.Key)
			}
		}
		return nil
	}
	var failed error
	r.replay(layers{
		exec: func(i int) {
			live.ops = txs[i]
			if !live.exec() && failed == nil {
				failed = fmt.Errorf("ledger transaction %d failed", i)
			}
		},
		commit: func(i int) {
			cur = txs[i]
			if err := s.Run(apply); err != nil && failed == nil {
				failed = err
			}
		},
		bare: func(i int) { cur = txs[i]; apply() },
	})
	coreAbortShare(r, mgr)
	// The paper's composition cost: the same operations as one transaction
	// over the same operations in succession, one goroutine, bare
	// TxManager and hash table (no engine adapter, no snapshot tier).
	r.set("core.tx_overhead_x", r.metrics["core.commit_ns_op"]/r.metrics["structures.op_ns"])
	return failed
}

// mixLedger replays the mix through the live sharded engine, then the same
// transfers and 16-key reads on a bare TxManager + two hash tables, then on
// the hash tables alone.
func mixLedger(r *run, sys *mixSys) error {
	live := newMixStepper(sys, drivers+1, r.cfg.seed)
	n := r.ledgerN()
	// The stream is replayed three times: record what gen picks once.
	type pick struct {
		snapshot, rev bool
		g, from, to   uint64
	}
	picks := make([]pick, n)
	for i := range picks {
		live.gen()
		picks[i] = pick{live.snapshot, live.rev, live.g, live.from, live.to}
	}
	mgr := medley.NewTxManager()
	a, b := medley.NewHashMap[uint64](sys.accounts), medley.NewHashMap[uint64](sys.accounts)
	s := mgr.Session()
	for k := 0; k < sys.accounts; k++ {
		a.Put(s, uint64(k), startBalance)
		b.Put(s, uint64(k), startBalance)
	}
	var cur pick
	var sum uint64
	apply := func() error {
		if cur.snapshot {
			sum = 0
			for k := cur.g; k < cur.g+mixGroup; k++ {
				va, _ := a.Get(s, k)
				vb, _ := b.Get(s, k)
				sum += va + vb
			}
			return nil
		}
		src, dst := a, b
		if cur.rev {
			src, dst = b, a
		}
		v, _ := src.Get(s, cur.from)
		u, _ := dst.Get(s, cur.to)
		src.Put(s, cur.from, v-1)
		dst.Put(s, cur.to, u+1)
		return nil
	}
	var failed error
	r.replay(layers{
		exec: func(i int) {
			p := picks[i]
			live.snapshot, live.rev, live.g, live.from, live.to = p.snapshot, p.rev, p.g, p.from, p.to
			if !live.exec() && failed == nil {
				failed = fmt.Errorf("ledger operation %d failed", i)
			}
		},
		commit: func(i int) {
			cur = picks[i]
			if err := s.Run(apply); err != nil && failed == nil {
				failed = err
			}
		},
		bare: func(i int) { cur = picks[i]; apply() },
	})
	coreAbortShare(r, mgr)
	snapNs, _ := r.timeLayer("snap_read", n, func(i int) {
		live.g = picks[i].g
		txengine.SnapshotRead(live.tx, live.read)
	})
	r.set("txengine.snap_read_ns", snapNs)
	return failed
}
