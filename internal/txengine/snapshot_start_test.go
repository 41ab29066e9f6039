package txengine

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"medley/internal/chaos"
	"medley/internal/core"
	"medley/internal/history"
)

// The snapshot tier's start (snapshot.go, "The start"), explored: the
// engine's first snapshot and two writers are stepped through every
// interleaving of the start's scan and the writers' unpublished-commit
// instants that preempts a goroutine at most twice. That
// covers a writer parked at each instant of its mark while the tier starts,
// a write that lands just before the scan, writers that meet the start and
// wait for it on startMu (the scheduler counts them blocked and lets another
// go), and two writers of one key that the start releases together. A later
// snapshot and a read of every key join each history, which the checker must
// accept: every snapshot is the committed state at its cut.

// startEngines are the engines the start is explored on: medley, also built
// by its alias with a device count, and txMontage over one device and over
// two, whose scan walks montage's map.
var startEngines = []struct {
	key     string
	devices int
}{{"medley", 0}, {"medley-sharded", 2}, {"txmontage", 0}, {"txmontage", 2}}

// startPoints are the instants the scheduler steps through: those of an
// unpublished commit (snapAgent.mark, unmark), and the scan's, after each
// key it seeds. A writer's draw (snapshot.commit.window) is not one of them:
// the test asserts there instead that the tier is on.
var startPoints = []string{
	"snapshot.commit.pre-mark",
	"snapshot.commit.marked",
	"snapshot.commit.checked",
	"snapshot.commit.done",
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

func newStartRig(t *testing.T, key string, devices int) *startRig {
	t.Helper()
	b, _ := Lookup(key)
	eng, err := b.New(Config{Shards: devices})
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
// order, in a Run, so that the scan can be parked before it or after, and so
// that two writers of one key that the start held run free together once it
// ends.
//
// The first snapshot must wait for a writer that marked its slot with the tier
// off, and for no other: it never returns while a writer is parked between
// the re-read that found the tier off and unmark, and in some interleaving it
// returns while a writer is parked before its mark. A writer that meets the
// start is held: no writer draws a timestamp until the tier is on.
func TestSnapshotStart(t *testing.T) {
	for _, e := range startEngines {
		for _, w := range startWrites {
			t.Run(fmt.Sprintf("%s/devices=%d/%s", e.key, e.devices, w.name), func(t *testing.T) {
				passed := 0 // interleavings whose start passed a writer parked before its mark
				n, _ := history.Explore(t, startPoints, 2, func(t *testing.T, s *history.Sched) {
					r := newStartRig(t, e.key, e.devices)
					defer r.eng.Close()
					tier := r.m.(snapMap[uint64]).tab.tier
					var early atomic.Bool // a writer drew a timestamp before the tier was on
					if err := chaos.Arm("snapshot.commit.window", chaos.Fault{Kind: chaos.Delay, Action: func() {
						if tier.state.Load() != snapOn {
							early.Store(true)
						}
					}}); err != nil {
						t.Fatal(err)
					}
					defer chaos.Disarm("snapshot.commit.window")
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
					if early.Load() {
						t.Error("a writer drew a timestamp before the tier was on: it was not held")
					}
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

// TestSnapshotStartHoldsNoReader: while the start scans, holding startMu, a
// Run that writes nothing runs to its end. Only a writer that meets the start
// waits for it.
func TestSnapshotStartHoldsNoReader(t *testing.T) {
	for _, e := range startEngines {
		t.Run(fmt.Sprintf("%s/devices=%d", e.key, e.devices), func(t *testing.T) {
			r := newStartRig(t, e.key, e.devices)
			defer r.eng.Close()
			tx := r.eng.NewWorker(2)
			found := make(chan bool, 1)
			if err := chaos.Arm("snapshot.start.scan", chaos.Fault{Kind: chaos.Delay, Times: 1, Action: func() {
				go tx.RunRead(func() {
					_, ok := r.m.Get(tx, r.keys[0])
					select {
					case found <- ok:
					default: // a retry's answer: the first one is in
					}
				})
				select {
				case ok := <-found:
					if !ok {
						t.Error("a read during the start missed a present key")
					}
				case <-time.After(5 * time.Second):
					t.Error("a read-only Run waited for the start")
				}
			}}); err != nil {
				t.Fatal(err)
			}
			defer chaos.Disarm("snapshot.start.scan")
			SnapshotRead(r.eng.NewWorker(1), func() {})
		})
	}
}

// hookMap runs hook once, when the first write it passes to the inner map
// returns: between a standalone write's inner operation and its commit.
type hookMap struct {
	rangeMap[uint64]
	hook func()
}

func (h *hookMap) after() {
	if f := h.hook; f != nil {
		h.hook = nil
		f()
	}
}

func (h *hookMap) Put(s *core.Session, k, v uint64) (uint64, bool) {
	defer h.after()
	return h.rangeMap.Put(s, k, v)
}

func (h *hookMap) Remove(s *core.Session, k uint64) (uint64, bool) {
	defer h.after()
	return h.rangeMap.Remove(s, k)
}

// TestSnapshotStandaloneOrder: on a tier that is on, a Run puts a key between
// a standalone write's inner operation and its commit. The standalone write
// is a transaction of one operation, so the Run aborts it, and its retry
// writes over the Run's value and is stamped above it. Were it applied first
// and stamped after, the table would hold it over the Run's value, which the
// map no longer has: the later snapshot would read what the read of every
// key does not.
func TestSnapshotStandaloneOrder(t *testing.T) {
	for _, e := range startEngines {
		for _, w := range []struct {
			name string
			op   history.Op
		}{{"put", history.Op{Kind: history.Put, Arg: 8000}}, {"remove", history.Op{Kind: history.Remove}}} {
			t.Run(fmt.Sprintf("%s/devices=%d/%s", e.key, e.devices, w.name), func(t *testing.T) {
				r := newStartRig(t, e.key, e.devices)
				defer r.eng.Close()
				snapshotOps(&r.rec, 1, r.m, r.eng.NewWorker(1), r.keys) // starts the tier
				sm := r.m.(snapMap[uint64])
				h := &hookMap{rangeMap: sm.inner}
				m := snapMap[uint64]{inner: h, tab: sm.tab}
				k := r.keys[1]
				h.hook = func() {
					done := make(chan error)
					go func() {
						done <- runOps(&r.rec, 3, m, r.eng.NewWorker(3), []history.Op{{Kind: history.Put, Key: k, Arg: 9000 + k}}, false, nil)
					}()
					if err := <-done; err != nil {
						t.Error(err)
					}
				}
				op := w.op
				op.Key = k
				single(&r.rec, 2, m, r.eng.NewWorker(2), op)
				if h.hook != nil {
					t.Fatal("the standalone write never reached the inner map")
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
		}
	}
}
