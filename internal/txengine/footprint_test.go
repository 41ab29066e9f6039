package txengine

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"testing"
)

// keyOnShard returns the first key >= start that routes to shard s on se.
func keyOnShard(t testing.TB, se *shardedEngine, s int, start uint64) uint64 {
	t.Helper()
	for k := start; k < start+1<<20; k++ {
		if se.shardOf(k) == s {
			return k
		}
	}
	t.Fatalf("no key on shard %d near %d", s, start)
	return 0
}

// distinctShardKeys returns n keys routing to n distinct shards, in shard
// order 0..n-1, with successive calls disjoint via start.
func distinctShardKeys(t testing.TB, se *shardedEngine, n int, start uint64) []uint64 {
	t.Helper()
	keys := make([]uint64, n)
	next := start
	for s := 0; s < n; s++ {
		keys[s] = keyOnShard(t, se, s, next)
		next = keys[s] + 1
	}
	return keys
}

// alternatingShardKeys returns n ascending keys from start on, the i-th on
// shard i % shards: with two shards or more, consecutive keys never share one.
func alternatingShardKeys(t testing.TB, se *shardedEngine, n int, start uint64) []uint64 {
	t.Helper()
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = keyOnShard(t, se, i%len(se.shards), start)
		start = keys[i] + 1
	}
	return keys
}

// oversizedHint returns latchMaxKeys+1 keys no test transacts on: hinted
// alongside a transaction's real keys they push its declaration past the
// latch cap.
func oversizedHint() []uint64 {
	keys := make([]uint64, latchMaxKeys+1)
	for i := range keys {
		keys[i] = 1<<32 + uint64(i)
	}
	return keys
}

// transferOnce moves one unit src[from] -> dst[to] in one transaction.
func transferOnce(t *testing.T, tx Tx, src, dst Map[uint64], from, to uint64) {
	t.Helper()
	if err := tx.Run(func() error {
		c, _ := src.Get(tx, from)
		if c == 0 {
			return nil
		}
		src.Put(tx, from, c-1)
		d, _ := dst.Get(tx, to)
		dst.Put(tx, to, d+1)
		return nil
	}); err != nil {
		t.Fatalf("transfer: %v", err)
	}
}

// TestShardedHintedTransferNoDiscovery: with both keys pre-declared via
// HintKeys, cross-shard transfers must acquire their footprint up front —
// every cross-shard Run a footprint hit, and no misses — while conserving
// value.
func TestShardedHintedTransferNoDiscovery(t *testing.T) {
	const iters = 400
	eng, err := Build("medley-sharded", Config{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	se := eng.(*shardedEngine)
	checking, _ := eng.NewUintMap(MapSpec{Kind: KindHash, Buckets: 256})
	savings, _ := eng.NewUintMap(MapSpec{Kind: KindHash, Buckets: 256})

	const accounts = 64
	init := eng.NewWorker(0)
	for a := uint64(0); a < accounts; a++ {
		checking.Put(init, a, 1000)
		savings.Put(init, a, 1000)
	}

	tx := eng.NewWorker(1)
	rng := rand.New(rand.NewPCG(42, 1))
	base := eng.Stats()
	wantHits := uint64(0)
	for i := 0; i < iters; i++ {
		from, to := rng.Uint64N(accounts), rng.Uint64N(accounts)
		if se.shardOf(from) != se.shardOf(to) {
			wantHits++
		}
		HintKeys(tx, from, to)
		transferOnce(t, tx, checking, savings, from, to)
	}
	d := eng.Stats().Delta(base)
	if d.FootprintMisses != 0 {
		t.Errorf("hinted transfers counted %d misses, want 0", d.FootprintMisses)
	}
	if d.FootprintHits != wantHits {
		t.Errorf("FootprintHits = %d, want %d (one per cross-shard Run)", d.FootprintHits, wantHits)
	}
	if d.Commits != iters {
		t.Errorf("Commits = %d, want %d", d.Commits, iters)
	}

	audit := eng.NewWorker(2)
	sum := uint64(0)
	for a := uint64(0); a < accounts; a++ {
		c, _ := checking.Get(audit, a)
		s, _ := savings.Get(audit, a)
		sum += c + s
	}
	if sum != 2*accounts*1000 {
		t.Fatalf("conservation violated: sum %d, want %d", sum, 2*accounts*1000)
	}
}

// TestShardedMispredictFallbackConservation is the concurrent misprediction
// audit at shards 2 and 8: workers run transfers whose hints are frequently
// wrong (stale keys hinted, fresh keys transacted), so declared attempts
// escape their declaration and join the shards they turn out to need
// mid-flight, under latches that cover the wrong keys, while auditors sweep
// the whole ledger. Conservation must hold
// throughout and at the end.
func TestShardedMispredictFallbackConservation(t *testing.T) {
	const (
		accounts = 48
		perAcct  = 1000
		workers  = 4
		iters    = 250
	)
	for _, shards := range []int{2, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			eng, err := Build("medley-sharded", Config{Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			checking, _ := eng.NewUintMap(MapSpec{Kind: KindHash, Buckets: 256})
			savings, _ := eng.NewUintMap(MapSpec{Kind: KindHash, Buckets: 256})
			init := eng.NewWorker(0)
			for a := uint64(0); a < accounts; a++ {
				checking.Put(init, a, perAcct)
				savings.Put(init, a, perAcct)
			}

			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					tx := eng.NewWorker(1 + id)
					rng := rand.New(rand.NewPCG(uint64(id)+7, uint64(shards)))
					for i := 0; i < iters; i++ {
						from := rng.Uint64N(accounts)
						to := rng.Uint64N(accounts)
						// Deliberately stale hint: declare a different key
						// pair than the transaction will touch. On wide
						// shard counts this mispredicts regularly; the
						// attempt must stay atomic.
						HintKeys(tx, rng.Uint64N(accounts), rng.Uint64N(accounts))
						err := tx.Run(func() error {
							c, ok := checking.Get(tx, from)
							if !ok || c == 0 {
								return nil
							}
							amt := uint64(rng.IntN(int(min(c, 50))) + 1)
							s, _ := savings.Get(tx, to)
							checking.Put(tx, from, c-amt)
							savings.Put(tx, to, s+amt)
							return nil
						})
						if err != nil {
							t.Errorf("transfer: %v", err)
							return
						}
					}
				}(w)
			}
			stop := make(chan struct{})
			violation := make(chan string, 1)
			var rwg sync.WaitGroup
			rwg.Add(1)
			go func() {
				defer rwg.Done()
				tx := eng.NewWorker(100)
				for {
					select {
					case <-stop:
						return
					default:
					}
					sum := uint64(0)
					err := tx.Run(func() error {
						sum = 0
						for a := uint64(0); a < accounts; a++ {
							c, _ := checking.Get(tx, a)
							s, _ := savings.Get(tx, a)
							sum += c + s
						}
						return nil
					})
					if err == nil && sum != 2*accounts*perAcct {
						select {
						case violation <- fmt.Sprintf("committed sweep sums %d, want %d", sum, 2*accounts*perAcct):
						default:
						}
					}
				}
			}()
			wg.Wait()
			close(stop)
			rwg.Wait()
			select {
			case v := <-violation:
				t.Fatalf("misprediction fallback tore a transfer: %s", v)
			default:
			}

			final := eng.NewWorker(999)
			sum := uint64(0)
			for a := uint64(0); a < accounts; a++ {
				c, _ := checking.Get(final, a)
				s, _ := savings.Get(final, a)
				sum += c + s
			}
			if sum != 2*accounts*perAcct {
				t.Fatalf("final sum %d != %d", sum, 2*accounts*perAcct)
			}
			if shards == 8 {
				// At 8 shards disjoint key pairs are common, so the stale
				// hints must actually have exercised the miss path.
				if misses := eng.Stats().FootprintMisses; misses == 0 {
					t.Error("stale hints produced no FootprintMisses at 8 shards; the fallback path went unexercised")
				}
			}
		})
	}
}

// TestShardsOverParallelismWarningOnce pins the registry-wrapper dedupe:
// however many sharded engines a run constructs at an over-parallel shard
// count, the warning prints once per distinct count.
func TestShardsOverParallelismWarningOnce(t *testing.T) {
	var mu sync.Mutex
	var warned []string
	orig := warnShardsFn
	warnShardsFn = func(msg string) {
		mu.Lock()
		warned = append(warned, msg)
		mu.Unlock()
	}
	defer func() { warnShardsFn = orig }()

	// Counts chosen to be over-parallel on any host this test runs on, and
	// distinct from anything other tests construct. The dedupe map is
	// process-global and outlives a run of this test (-count=2), so their
	// entries are forgotten first.
	n1 := 4*runtime.GOMAXPROCS(0) + 7
	n2 := 4*runtime.GOMAXPROCS(0) + 9
	for _, n := range []int{n1, n2, n1 + 2} {
		shardsWarned.Delete(overParallelismWarning(n))
	}
	for i := 0; i < 3; i++ {
		eng, err := Build("medley-sharded", Config{Shards: n1})
		if err != nil {
			t.Fatal(err)
		}
		eng.Close()
	}
	if len(warned) != 1 {
		t.Fatalf("3 constructions at shards=%d warned %d times, want once: %v", n1, len(warned), warned)
	}
	eng, err := Build("original-sharded", Config{Shards: n2})
	if err != nil {
		t.Fatal(err)
	}
	eng.Close()
	if len(warned) != 2 {
		t.Fatalf("a distinct over-parallel count must warn anew: got %d warnings", len(warned))
	}
	// Non-sharded engines ignore Config.Shards and must not warn.
	if eng, err = Build("medley", Config{Shards: n1 + 2}); err != nil {
		t.Fatal(err)
	}
	eng.Close()
	if len(warned) != 2 {
		t.Fatalf("non-sharded engine warned about Shards it ignores: %v", warned)
	}
}

// TestShardedQueueHomeRoundRobinConcurrent pins the atomic round-robin
// home-shard assignment: queues created concurrently — including from
// concurrently built engines — spread exactly evenly, with no duplicate or
// lost counter slots (the data race an unsynchronized counter would have;
// run under -race in CI).
func TestShardedQueueHomeRoundRobinConcurrent(t *testing.T) {
	const (
		engines   = 4
		makers    = 4
		perMaker  = 8
		shardsCnt = 8
	)
	var ewg sync.WaitGroup
	for e := 0; e < engines; e++ {
		ewg.Add(1)
		go func() {
			defer ewg.Done()
			eng, err := Build("medley-sharded", Config{Shards: shardsCnt})
			if err != nil {
				t.Error(err)
				return
			}
			defer eng.Close()
			homes := make(chan int, makers*perMaker)
			var wg sync.WaitGroup
			for m := 0; m < makers; m++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < perMaker; i++ {
						q, err := eng.NewUintQueue()
						if err != nil {
							t.Error(err)
							return
						}
						homes <- q.(*shardedQueue).home
					}
				}()
			}
			wg.Wait()
			close(homes)
			perShard := make([]int, shardsCnt)
			for h := range homes {
				perShard[h]++
			}
			for s, n := range perShard {
				if n != makers*perMaker/shardsCnt {
					t.Errorf("shard %d is home to %d queues, want %d (round-robin must stay exact under concurrency)",
						s, n, makers*perMaker/shardsCnt)
				}
			}
		}()
	}
	ewg.Wait()
}
