package txengine

// Hot-path microbenchmarks for the Medley runtime's transfers: device
// routing, the one-key commit fast path, a two-map transfer undeclared and
// via hints (the latched path), and the latch stripes themselves. The names keep
// the shard vocabulary of the key-routing map they were first measured on,
// so README's history of them stays one series. CI runs the suite at
// -benchtime=1x so the benches always compile and execute.

import (
	"runtime"
	"sync"
	"testing"

	"medley/internal/montage"
)

const benchShards = 8

func benchEngine(b *testing.B) (*medleyEngine, Map[uint64], Map[uint64], *sessionTx) {
	b.Helper()
	eng, err := Build("medley", Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(eng.Close)
	m1, err := eng.NewUintMap(MapSpec{Kind: KindHash, Buckets: 1 << 10})
	if err != nil {
		b.Fatal(err)
	}
	m2, err := eng.NewUintMap(MapSpec{Kind: KindHash, Buckets: 1 << 10})
	if err != nil {
		b.Fatal(err)
	}
	se := eng.(*medleyEngine)
	tx := eng.NewWorker(0).(*sessionTx)
	return se, m1, m2, tx
}

// BenchmarkShardRouteHash measures the device route (Fibonacci hash +
// multiply-high range reduction) a txmontage-sharded write takes.
func BenchmarkShardRouteHash(b *testing.B) {
	acc := 0
	for i := 0; b.N > i; i++ {
		acc += montage.DeviceOf(uint64(i), benchShards)
	}
	sinkInt = acc
}

// BenchmarkSingleShardCommit measures the one-key transaction fast path: one
// read-modify-write, committing with nothing declared.
func BenchmarkSingleShardCommit(b *testing.B) {
	_, m1, _, tx := benchEngine(b)
	m1.Put(tx, 7, 1)
	b.ResetTimer()
	for i := 0; b.N > i; i++ {
		_ = tx.Run(func() error {
			v, _ := m1.Get(tx, 7)
			m1.Put(tx, 7, v+1)
			return nil
		})
	}
}

// BenchmarkCrossShardCommitUndeclared measures an undeclared transfer
// between two maps: two read-modify-writes in one transaction, no latches.
func BenchmarkCrossShardCommitUndeclared(b *testing.B) {
	_, m1, m2, tx := benchEngine(b)
	keys := []uint64{0, 1, 2, 3}
	for _, k := range keys {
		m1.Put(tx, k, 1<<40)
	}
	b.ResetTimer()
	for i := 0; b.N > i; i++ {
		from, to := keys[0], keys[1]
		if i&1 == 1 {
			from, to = keys[2], keys[3]
		}
		_ = tx.Run(func() error {
			v, _ := m1.Get(tx, from)
			m1.Put(tx, from, v-1)
			w, _ := m2.Get(tx, to)
			m2.Put(tx, to, w+1)
			return nil
		})
	}
}

// BenchmarkCrossShardCommitHinted measures the same transfer with both keys
// pre-declared via HintKeys: their latches taken up front.
func BenchmarkCrossShardCommitHinted(b *testing.B) {
	_, m1, m2, tx := benchEngine(b)
	keys := []uint64{0, 1, 2, 3}
	for _, k := range keys {
		m1.Put(tx, k, 1<<40)
	}
	b.ResetTimer()
	for i := 0; b.N > i; i++ {
		from, to := keys[0], keys[1]
		if i&1 == 1 {
			from, to = keys[2], keys[3]
		}
		HintKeys(tx, from, to)
		_ = tx.Run(func() error {
			v, _ := m1.Get(tx, from)
			m1.Put(tx, from, v-1)
			w, _ := m2.Get(tx, to)
			m2.Put(tx, to, w+1)
			return nil
		})
	}
}

// BenchmarkCrossShardDisjointContendedLatched drives eight goroutines
// through hinted transfers whose key pairs are pairwise disjoint. Each body
// yields once mid-transaction
// so transactions genuinely overlap in time (on a host with fewer Ps than
// workers they otherwise run to completion back to back and nothing
// contends). No two workers ever touch a common key, so no latch is ever
// waited for and all eight stay in flight at once.
func BenchmarkCrossShardDisjointContendedLatched(b *testing.B) {
	const workers = 8
	se, m1, m2, init := benchEngine(b)
	var pairs [workers][2]uint64
	for g := range pairs {
		pairs[g] = [2]uint64{uint64(2 * g), uint64(2*g + 1)}
		m1.Put(init, pairs[g][0], 1<<40)
	}
	var id int64
	var mu sync.Mutex
	b.SetParallelism(workers) // goroutines, not Ps: contention on a 1-P host too
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		mu.Lock()
		g := id % workers
		id++
		mu.Unlock()
		tx := se.NewWorker(int(g) + 1)
		from, to := pairs[g][0], pairs[g][1]
		for pb.Next() {
			HintKeys(tx, from, to)
			_ = tx.Run(func() error {
				v, _ := m1.Get(tx, from)
				m1.Put(tx, from, v-1)
				runtime.Gosched() // overlap: another worker's txn interleaves here
				w, _ := m2.Get(tx, to)
				m2.Put(tx, to, w+1)
				return nil
			})
		}
	})
}

// BenchmarkLatchAcquireRelease measures the uncontended latch hot path: a
// four-key declaration's stripes acquired and released per iteration (the
// payment shape), all stripes free — the cost a latched commit pays over an
// unlatched one before any contention.
func BenchmarkLatchAcquireRelease(b *testing.B) {
	lt := new(latchTable)
	set := stage(3, 257, 1031, 8209)
	for i := 0; b.N > i; i++ {
		lt.acquireAll(set)
		lt.releaseAll(set)
	}
}

// BenchmarkLatchContendedHandoff measures the wait/wake path: two
// goroutines hammer one hot key's stripe, so acquisitions constantly wait.
func BenchmarkLatchContendedHandoff(b *testing.B) {
	lt := new(latchTable)
	set := stage(42)
	var wg sync.WaitGroup
	n := b.N
	b.ResetTimer()
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				lt.acquireAll(set)
				lt.releaseAll(set)
			}
		}()
	}
	wg.Wait()
}

// sinkInt defeats dead-code elimination in the routing benches.
var sinkInt int
