package txengine

import (
	"fmt"
	"testing"

	"medley/internal/history"
)

// The snapshot tier's start (snapshot.go, "The start"), explored: the
// engine's first snapshot, a writer and a second writer of the same key are
// stepped through every interleaving of the start's scan and the writers'
// commit instants that preempts a goroutine at most twice. That covers a
// writer parked at each instant of its commit while the tier starts, writes
// landing behind and ahead of the scan, a commit that drew its timestamp
// during the scan holding the first cut below T_ready, and a version
// published below T_seed under a later unpublished write. A later snapshot
// and a read of every key join each history, which the checker must accept:
// every snapshot is the committed state at its cut.

// startEngines are the engines the start is explored on: one per commit path
// (sessionTx, shardedTx), and txMontage, whose scan walks montage's map.
var startEngines = []struct {
	key    string
	shards int
}{{"medley", 0}, {"medley-sharded", 2}, {"txmontage", 0}}

// startPoints are the instants the scheduler steps through: those of an
// unpublished commit (snapAgent.mark, unmark), the commit window of a
// published one, and the scan's, after each key it seeds.
var startPoints = []string{
	"snapshot.commit.pre-mark",
	"snapshot.commit.marked",
	"snapshot.commit.checked",
	"snapshot.commit.done",
	"snapshot.commit.window",
	"snapshot.start.scan",
}

const startKeys = 3 // preloaded keys 0..2 hold 100+k

// startRig is one engine with one preloaded map and the history of what was
// done to it.
type startRig struct {
	eng  Engine
	m    Map[uint64]
	keys []uint64 // in the order the start's scan seeds them
	rec  history.Recorder
}

func newStartRig(t *testing.T, key string, shards int) *startRig {
	t.Helper()
	b, _ := Lookup(key)
	eng, err := b.New(Config{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	m, err := eng.NewUintMap(MapSpec{Kind: KindHash, Buckets: 64})
	if err != nil {
		t.Fatal(err)
	}
	r := &startRig{eng: eng, m: m}
	tx := eng.NewWorker(0)
	for k := range uint64(startKeys) {
		if err := runOps(&r.rec, 0, m, tx, []history.Op{{Kind: history.Put, Key: k, Arg: 100 + k}}, false, nil); err != nil {
			t.Fatal(err)
		}
	}
	m.(snapMap[uint64]).inner.Range(func(k, _ uint64) bool {
		r.keys = append(r.keys, k)
		return true
	})
	return r
}

// startWrites are what the first writer commits: a Put and a Remove inside one
// Run, one standalone Put, or one standalone Remove.
var startWrites = []struct {
	name string
	do   func(r *startRig, tx Tx, k, k2 uint64)
}{
	{"run", func(r *startRig, tx Tx, k, k2 uint64) {
		ops := []history.Op{{Kind: history.Put, Key: k, Arg: 7000 + k}, {Kind: history.Remove, Key: k2}}
		if err := runOps(&r.rec, 2, r.m, tx, ops, false, nil); err != nil {
			panic(err)
		}
	}},
	{"put", func(r *startRig, tx Tx, k, _ uint64) {
		single(&r.rec, 2, r.m, tx, history.Op{Kind: history.Put, Key: k, Arg: 8000 + k})
	}},
	{"remove", func(r *startRig, tx Tx, k, _ uint64) {
		single(&r.rec, 2, r.m, tx, history.Op{Kind: history.Remove, Key: k})
	}},
}

// TestSnapshotStart explores the start on each engine with each kind of first
// writer. The second writer puts the first writer's key, the second in scan
// order, so that the scan can be parked before it or after, in a Run: a
// standalone write may show early at a cut below its stamp, a Run may not.
//
// The first snapshot must wait for a writer that marked its slot with the tier
// off, and for no other: it never returns while a writer is parked between
// the re-read that found the tier off and unmark, and in some interleaving it
// returns while a writer is parked before its mark.
func TestSnapshotStart(t *testing.T) {
	for _, e := range startEngines {
		for _, w := range startWrites {
			t.Run(fmt.Sprintf("%s/shards=%d/%s", e.key, e.shards, w.name), func(t *testing.T) {
				passed := 0 // interleavings whose start passed a writer parked before its mark
				n := history.Explore(t, startPoints, 2, func(t *testing.T, s *history.Sched) {
					r := newStartRig(t, e.key, e.shards)
					defer r.eng.Close()
					k, k2 := r.keys[1], r.keys[2]
					var premark bool
					s.Go(func() {
						snapshotOps(&r.rec, 1, r.m, r.eng.NewWorker(1), r.keys)
						for _, at := range s.Parked() {
							switch at {
							case "snapshot.commit.pre-mark":
								premark = true
							case "snapshot.commit.checked", "snapshot.commit.done":
								t.Errorf("the first snapshot returned while a writer was parked at %s", at)
							}
						}
					})
					s.Go(func() { w.do(r, r.eng.NewWorker(2), k, k2) })
					s.Go(func() {
						if err := runOps(&r.rec, 3, r.m, r.eng.NewWorker(3), []history.Op{{Kind: history.Put, Key: k, Arg: 9000 + k}}, false, nil); err != nil {
							panic(err)
						}
					})
					s.Wait()
					if premark {
						passed++
					}
					tx := r.eng.NewWorker(4)
					snapshotOps(&r.rec, 4, r.m, tx, r.keys)
					if err := readAll(&r.rec, 4, r.m, tx, startKeys); err != nil {
						t.Fatal(err)
					}
					if err := history.Check(r.rec.Events()); err != nil {
						t.Fatal(err)
					}
				})
				if passed == 0 && !t.Failed() {
					t.Error("in no interleaving did the first snapshot return while a writer was parked before its mark")
				}
				t.Logf("%d interleavings, %d passed a writer before its mark", n, passed)
			})
		}
	}
}
