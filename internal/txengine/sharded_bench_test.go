package txengine

// Hot-path microbenchmarks for the sharded runtime: key routing, the
// single-shard commit fast path, cross-shard commits undeclared and via
// hints (the latched path), and the latch table itself. CI runs the suite at
// -benchtime=1x so the benches always compile and execute.

import (
	"runtime"
	"sync"
	"testing"
)

const benchShards = 8

func benchEngine(b *testing.B) (*shardedEngine, Map[uint64], Map[uint64], *shardedTx) {
	b.Helper()
	eng, err := Build("medley-sharded", Config{Shards: benchShards})
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
	se := eng.(*shardedEngine)
	tx := eng.NewWorker(0).(*shardedTx)
	return se, m1, m2, tx
}

// BenchmarkShardRouteHash measures the raw hash route (Fibonacci hash +
// multiply-high range reduction), rotating keys so the handle memo never
// applies.
func BenchmarkShardRouteHash(b *testing.B) {
	se, _, _, _ := benchEngine(b)
	acc := 0
	for i := 0; b.N > i; i++ {
		acc += se.shardOf(uint64(i))
	}
	sinkInt = acc
}

// BenchmarkShardRouteMemo measures the handle-local route memo on a
// repeated key — the Get-then-Put-same-key pattern inside one transaction.
func BenchmarkShardRouteMemo(b *testing.B) {
	_, _, _, tx := benchEngine(b)
	acc := 0
	for i := 0; b.N > i; i++ {
		acc += tx.routeOf(12345)
	}
	sinkInt = acc
}

// BenchmarkSingleShardCommit measures the single-shard transaction fast
// path: one read-modify-write on one key, committing without any
// cross-shard machinery.
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

// BenchmarkCrossShardCommitUndeclared measures the undeclared cross-shard
// path: the second shard is noted as touched when the body reaches it.
func BenchmarkCrossShardCommitUndeclared(b *testing.B) {
	se, m1, m2, tx := benchEngine(b)
	keys := distinctShardKeys(b, se, 4, 0)
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

// BenchmarkCrossShardCommitHinted measures the same cross-shard transaction
// with both keys pre-declared via HintKeys: latches taken and both shards
// opened up front.
func BenchmarkCrossShardCommitHinted(b *testing.B) {
	se, m1, m2, tx := benchEngine(b)
	keys := distinctShardKeys(b, se, 4, 0)
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
// through hinted cross-shard transfers whose key pairs are pairwise disjoint
// but all live on the same two shards. Each body yields once mid-transaction
// so transactions genuinely overlap in time (on a host with fewer Ps than
// workers they otherwise run to completion back to back and nothing
// contends). No two workers ever touch a common key, so no latch is ever
// waited for and all eight stay in flight on the one hot shard pair.
func BenchmarkCrossShardDisjointContendedLatched(b *testing.B) {
	const workers = 8
	se, m1, m2, init := benchEngine(b)
	var pairs [workers][2]uint64
	next := uint64(0)
	for g := range pairs {
		pairs[g][0] = keyOnShard(b, se, 0, next)
		pairs[g][1] = keyOnShard(b, se, 1, pairs[g][0]+1)
		next = pairs[g][1] + 1
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
// four-key sorted set acquired and released per iteration (the payment
// shape), all latches free — the cost a latched commit pays over an
// unlatched one before any contention.
func BenchmarkLatchAcquireRelease(b *testing.B) {
	lt := newLatchTable()
	w := newLatchWaiter()
	keys := []uint64{3, 257, 1031, 8209}
	for i := 0; b.N > i; i++ {
		lt.acquireAll(keys, &w)
		lt.releaseAll(keys)
	}
}

// BenchmarkLatchContendedHandoff measures the wait/wake path: two
// goroutines hammer one hot key, so acquisitions constantly queue and
// ownership moves by direct FIFO handoff.
func BenchmarkLatchContendedHandoff(b *testing.B) {
	lt := newLatchTable()
	var wg sync.WaitGroup
	n := b.N
	b.ResetTimer()
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := newLatchWaiter()
			for i := 0; i < n; i++ {
				lt.acquire(42, &w)
				lt.release(42)
			}
		}()
	}
	wg.Wait()
}

// sinkInt defeats dead-code elimination in the routing benches.
var sinkInt int
