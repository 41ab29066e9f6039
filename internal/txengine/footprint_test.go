package txengine

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"

	"medley/internal/montage"
)

// deviceOf routes k among the engine's devices (txmontage).
func (e *medleyEngine) deviceOf(k uint64) int { return montage.DeviceOf(k, len(e.Devices())) }

// keyOnDevice returns the first key >= start whose payloads go to device d
// on se.
func keyOnDevice(t testing.TB, se *medleyEngine, d int, start uint64) uint64 {
	t.Helper()
	for k := start; k < start+1<<20; k++ {
		if se.deviceOf(k) == d {
			return k
		}
	}
	t.Fatalf("no key on device %d near %d", d, start)
	return 0
}

// distinctDeviceKeys returns n keys routing to n distinct devices, in device
// order 0..n-1, with successive calls disjoint via start.
func distinctDeviceKeys(t testing.TB, se *medleyEngine, n int, start uint64) []uint64 {
	t.Helper()
	keys := make([]uint64, n)
	next := start
	for d := 0; d < n; d++ {
		keys[d] = keyOnDevice(t, se, d, next)
		next = keys[d] + 1
	}
	return keys
}

// alternatingDeviceKeys returns n ascending keys from start on, the i-th on
// device i % devices: with two devices or more, consecutive keys never share
// one.
func alternatingDeviceKeys(t testing.TB, se *medleyEngine, n int, start uint64) []uint64 {
	t.Helper()
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = keyOnDevice(t, se, i%len(se.Devices()), start)
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
// HintKeys, every transfer between two accounts counts one footprint hit and
// every transfer of an account to itself (one key) none, while value is
// conserved.
func TestShardedHintedTransferNoDiscovery(t *testing.T) {
	const iters = 400
	eng, err := Build("medley", Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
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
		if from != to {
			wantHits++
		}
		HintKeys(tx, from, to)
		transferOnce(t, tx, checking, savings, from, to)
	}
	d := eng.Stats().Delta(base)
	if d.FootprintHits != wantHits {
		t.Errorf("FootprintHits = %d, want %d (one per Run over two keys)", d.FootprintHits, wantHits)
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
// audit on medley and on txmontage over 8 devices: workers run
// transfers whose hints are frequently
// wrong (stale keys hinted, fresh keys transacted), so declared attempts
// reach keys they did not declare, under latches that cover the wrong keys,
// while auditors sweep the whole ledger. Conservation must hold throughout
// and at the end.
func TestShardedMispredictFallbackConservation(t *testing.T) {
	const (
		accounts = 48
		perAcct  = 1000
		workers  = 4
		iters    = 250
	)
	for i, engine := range []string{"medley", "txmontage"} {
		t.Run(engine, func(t *testing.T) {
			eng, err := Build(engine, Config{Shards: 8})
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
					rng := rand.New(rand.NewPCG(uint64(id)+7, uint64(i)))
					for i := 0; i < iters; i++ {
						from := rng.Uint64N(accounts)
						to := rng.Uint64N(accounts)
						// Deliberately stale hint: declare a different key
						// pair than the transaction will touch, so the
						// attempt latches the wrong keys; it must stay
						// atomic.
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
		})
	}
}
