package txengine

import (
	"fmt"
	"maps"
	"sync"
	"testing"
	"time"

	"medley/internal/chaos"
)

// The snapshot tier's start (snapshot.go, "The start"), enumerated: a writer
// parked at every instant of its commit while the first snapshot starts the
// tier from another goroutine, and writers committing while the start's scan
// is parked behind or ahead of their key. Every snapshot is checked against a
// model of the committed history at its cut.

// startEngines are the engines the start tests run on.
var startEngines = []struct {
	key    string
	shards int
}{{"medley", 0}, {"medley-sharded", 2}, {"txmontage", 0}}

// The instants of an unpublished commit (snapAgent.mark, unmark), in order.
var markPoints = []string{
	"snapshot.commit.pre-mark",
	"snapshot.commit.marked",
	"snapshot.commit.checked",
	"snapshot.commit.done",
}

const startKeys = 16 // preloaded keys 0..15 hold 100+k

// startRig is one engine with one preloaded map and the model of its
// committed history: the preload, then every write in the order the test
// made it take effect, each with its commit timestamp (0: committed
// unpublished, before the start).
type startRig struct {
	eng  Engine
	tier *snapTier
	m    Map[uint64]
	keys []uint64 // every key a snapshot reads
	ops  []startOp
}

type startOp struct {
	ts, k, v uint64
	del      bool
}

func newStartRig(t *testing.T, key string, shards int) *startRig {
	t.Helper()
	t.Cleanup(chaos.DisarmAll)
	b, _ := Lookup(key)
	eng, err := b.New(Config{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	m, err := eng.NewUintMap(MapSpec{Kind: KindHash, Buckets: 64})
	if err != nil {
		t.Fatal(err)
	}
	r := &startRig{eng: eng, m: m}
	switch e := eng.(type) {
	case *medleyEngine:
		r.tier = e.snap
	case *shardedEngine:
		r.tier = e.snap
	}
	tx := eng.NewWorker(0)
	for k := uint64(0); k < startKeys; k++ {
		if err := tx.Run(func() error { m.Put(tx, k, 100+k); return nil }); err != nil {
			t.Fatal(err)
		}
		r.keys = append(r.keys, k)
	}
	return r
}

// at is the committed state at cut.
func (r *startRig) at(cut uint64) map[uint64]uint64 {
	s := map[uint64]uint64{}
	for k := uint64(0); k < startKeys; k++ {
		s[k] = 100 + k
	}
	for _, op := range r.ops {
		switch {
		case op.ts > cut:
		case op.del:
			delete(s, op.k)
		default:
			s[op.k] = op.v
		}
	}
	return s
}

// scanOrder is the order in which the start's scan seeds the map's keys.
func (r *startRig) scanOrder() (order []uint64) {
	r.m.(snapMap[uint64]).inner.Range(func(k, _ uint64) bool {
		order = append(order, k)
		return true
	})
	return order
}

// snapshotResult is one snapshot of every key the rig knows.
type snapshotResult struct {
	cut uint64
	got map[uint64]uint64
}

func (r *startRig) snapshot(tx Tx) snapshotResult {
	res := snapshotResult{got: map[uint64]uint64{}}
	res.cut, _ = SnapshotReadBatch(tx, 1, func(int, uint64) {
		for _, k := range r.keys {
			if v, ok := r.m.Get(tx, k); ok {
				res.got[k] = v
			}
		}
	})
	return res
}

// check requires a snapshot to hold the committed state at its cut.
func (r *startRig) check(t *testing.T, what string, res snapshotResult) {
	t.Helper()
	if want := r.at(res.cut); !maps.Equal(res.got, want) {
		t.Fatalf("%s at cut %d:\n got  %v\n want %v (history %+v)", what, res.cut, res.got, want, r.ops)
	}
}

// snapshotAsync takes the engine's first snapshot from another goroutine.
func (r *startRig) snapshotAsync() chan snapshotResult {
	done := make(chan snapshotResult, 1)
	tx := r.eng.NewWorker(9)
	go func() { done <- r.snapshot(tx) }()
	return done
}

// startWrite is one writer's commit: a Put and a Remove inside one Run, or
// one standalone Put or Remove. It returns the writes it committed, at the
// timestamp the handle reports.
type startWrite struct {
	name string
	do   func(m Map[uint64], tx Tx, k, k2 uint64) []startOp
}

var startWrites = []startWrite{
	{"run", func(m Map[uint64], tx Tx, k, k2 uint64) []startOp {
		if err := tx.Run(func() error {
			m.Put(tx, k, 7000+k)
			m.Remove(tx, k2)
			return nil
		}); err != nil {
			panic(err)
		}
		ts := LastCommitTS(tx)
		return []startOp{{ts: ts, k: k, v: 7000 + k}, {ts: ts, k: k2, del: true}}
	}},
	{"put", func(m Map[uint64], tx Tx, k, _ uint64) []startOp {
		m.Put(tx, k, 8000+k)
		return []startOp{{ts: LastCommitTS(tx), k: k, v: 8000 + k}}
	}},
	{"remove", func(m Map[uint64], tx Tx, k, _ uint64) []startOp {
		m.Remove(tx, k)
		return []startOp{{ts: LastCommitTS(tx), k: k, del: true}}
	}},
}

// parking parks the first goroutine to reach a chaos point until released.
type parking struct {
	parked, gate chan struct{}
	open         sync.Once
}

// parkAt arms point to park the goroutine that makes its hit number after
// (0-based). The gate opens when the test ends at the latest.
func parkAt(t *testing.T, point string, after int) *parking {
	t.Helper()
	p := &parking{parked: make(chan struct{}), gate: make(chan struct{})}
	t.Cleanup(p.release)
	if err := chaos.Arm(point, chaos.Fault{Kind: chaos.Delay, After: after, Times: 1, Action: func() {
		close(p.parked)
		<-p.gate
	}}); err != nil {
		t.Fatal(err)
	}
	return p
}

func (p *parking) release() { p.open.Do(func() { close(p.gate) }) }

func (p *parking) await(t *testing.T) {
	t.Helper()
	select {
	case <-p.parked:
	case <-time.After(5 * time.Second):
		t.Fatal("nothing reached the parking point")
	}
}

// held requires the first snapshot to be still waiting a while from now. One
// that returned is handed back to the channel, for the test to check too.
func held(t *testing.T, done chan snapshotResult, why string) {
	t.Helper()
	select {
	case res := <-done:
		t.Errorf("the first snapshot returned (cut %d) %s", res.cut, why)
		done <- res
	case <-time.After(20 * time.Millisecond):
	}
}

func await(t *testing.T, done chan snapshotResult) snapshotResult {
	t.Helper()
	select {
	case res := <-done:
		return res
	case <-time.After(5 * time.Second):
		t.Fatal("the first snapshot never returned")
		return snapshotResult{}
	}
}

// TestSnapshotStartParkedWriter parks a writer at each instant of an
// unpublished commit — before its mark, between the mark and the re-read of
// the tier state, between the re-read and TxEnd (the standalone inner op),
// after the commit with the mark still set — and starts the tier from another
// goroutine meanwhile. The start passes a writer parked before its mark (the
// writer then finds it started and publishes) and waits for one parked after
// (which then commits unpublished, or finds the start under way: a
// transaction aborts and its retry publishes, a standalone write publishes).
// The first snapshot and a later one equal the model at their cuts.
func TestSnapshotStartParkedWriter(t *testing.T) {
	for _, e := range startEngines {
		for _, w := range startWrites {
			for _, point := range markPoints {
				t.Run(fmt.Sprintf("%s/shards=%d/%s/%s", e.key, e.shards, w.name, point), func(t *testing.T) {
					r := newStartRig(t, e.key, e.shards)
					p := parkAt(t, point, 0)
					tx := r.eng.NewWorker(1)
					wrote := make(chan []startOp, 1)
					go func() { wrote <- w.do(r.m, tx, 3, 4) }()
					p.await(t)
					done := r.snapshotAsync()
					var first snapshotResult
					if point == "snapshot.commit.pre-mark" {
						first = await(t, done)
					} else {
						held(t, done, "while a marked commit was parked")
					}
					p.release()
					r.ops = append(r.ops, <-wrote...)
					if point != "snapshot.commit.pre-mark" {
						first = await(t, done)
					}
					r.check(t, "first snapshot", first)
					r.check(t, "later snapshot", r.snapshot(tx))
				})
			}
		}
	}
}

// TestSnapshotStartDuringScan parks the start's scan after it has seeded
// half the keys and commits a writer meanwhile, on keys the scan has passed
// (their seed is older than the write, whose version must shadow it) or has
// yet to reach (the seed already holds the write).
func TestSnapshotStartDuringScan(t *testing.T) {
	for _, e := range startEngines {
		for _, w := range startWrites {
			for _, behind := range []bool{true, false} {
				t.Run(fmt.Sprintf("%s/shards=%d/%s/behind=%v", e.key, e.shards, w.name, behind), func(t *testing.T) {
					r := newStartRig(t, e.key, e.shards)
					order := r.scanOrder()
					i := len(order) / 2
					k, k2 := order[i+1], order[i+2]
					if behind {
						k, k2 = order[i], order[i-1]
					}
					p := parkAt(t, "snapshot.start.scan", i)
					done := r.snapshotAsync()
					p.await(t)
					ops := w.do(r.m, r.eng.NewWorker(1), k, k2)
					if ops[0].ts == 0 {
						t.Fatal("a write during the scan published nothing")
					}
					r.ops = append(r.ops, ops...)
					p.release()
					r.check(t, "first snapshot", await(t, done))
					r.check(t, "later snapshot", r.snapshot(r.eng.NewWorker(2)))
				})
			}
		}
	}
}

// TestSnapshotStartWindowHoldsTheFirstCut: a transaction that drew its
// timestamp during the scan and is parked before TxEnd holds the seal below
// T_ready, and the first snapshot waits for it rather than pin a cut below
// T_ready — one at which a later commit the scan already seeded would show
// early.
func TestSnapshotStartWindowHoldsTheFirstCut(t *testing.T) {
	for _, e := range startEngines {
		t.Run(fmt.Sprintf("%s/shards=%d", e.key, e.shards), func(t *testing.T) {
			r := newStartRig(t, e.key, e.shards)
			order := r.scanOrder()
			i := len(order) / 2
			scan := parkAt(t, "snapshot.start.scan", i)
			done := r.snapshotAsync()
			scan.await(t)

			window := parkAt(t, "snapshot.commit.window", 0)
			slow := r.eng.NewWorker(1)
			wrote := make(chan []startOp, 1)
			go func() { wrote <- startWrites[0].do(r.m, slow, order[i], order[i-1]) }()
			window.await(t)
			r.ops = append(r.ops, startWrites[1].do(r.m, r.eng.NewWorker(2), order[i+1], 0)...)

			scan.release()
			held(t, done, "while a commit that drew before T_ready was parked in its window")
			window.release()
			r.ops = append(r.ops, <-wrote...)
			r.check(t, "first snapshot", await(t, done))
			r.check(t, "later snapshot", r.snapshot(slow))
		})
	}
}

// TestSnapshotStartDropsVersionsBelowSeed: a standalone Remove parked between
// its re-read of the tier state (off) and its inner op holds the start in
// its wait; a Put of the same key meanwhile finds the start under way and
// publishes, below T_seed; then the Remove lands, unpublished. The scan finds
// the key absent, so nothing seeds it, and the Put's version must not survive
// beneath.
func TestSnapshotStartDropsVersionsBelowSeed(t *testing.T) {
	for _, e := range startEngines {
		t.Run(fmt.Sprintf("%s/shards=%d", e.key, e.shards), func(t *testing.T) {
			r := newStartRig(t, e.key, e.shards)
			p := parkAt(t, "snapshot.commit.checked", 0)
			remover := r.eng.NewWorker(1)
			removed := make(chan []startOp, 1)
			go func() { removed <- startWrites[2].do(r.m, remover, 5, 0) }()
			p.await(t)
			done := r.snapshotAsync()
			for r.tier.state.Load() != snapStarting {
				time.Sleep(time.Millisecond)
			}
			put := startWrites[1].do(r.m, r.eng.NewWorker(2), 5, 0)
			if put[0].ts == 0 {
				t.Fatal("a Put during the start published nothing")
			}
			r.ops = append(r.ops, put...)
			held(t, done, "while a marked commit was parked")
			p.release()
			r.ops = append(r.ops, <-removed...)
			r.check(t, "first snapshot", await(t, done))
			r.check(t, "later snapshot", r.snapshot(remover))
		})
	}
}
