package txengine

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestShardedRegistryAndKnob pins what is left of the sharded names:
// medley-sharded is an alias Lookup and Build resolve to medley — same
// builder, same engine, Config.Shards ignored — that Names does not list.
func TestShardedRegistryAndKnob(t *testing.T) {
	b, ok := Lookup("Medley-Sharded")
	if base, _ := Lookup("medley"); !ok || b.Key != "medley" || b.Caps != base.Caps || b.Doc != base.Doc {
		t.Fatalf("medley-sharded resolves to %q (ok=%v), want the medley builder", b.Key, ok)
	}
	for _, name := range Names() {
		if strings.HasSuffix(name, "-sharded") {
			t.Errorf("Names lists %q", name)
		}
	}
	for _, shards := range []int{0, 1, 8} {
		eng, err := Build("medley-sharded", Config{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		se := eng.(*medleyEngine)
		if eng.Name() != "Medley" || se.es != nil || se.latch == nil {
			t.Errorf("Shards=%d built %q (devices %d, latch table %v), want plain Medley", shards, eng.Name(), len(se.es), se.latch != nil)
		}
		eng.Close()
	}
}

// TestShardedRouting checks the device routing of txmontage over 8 devices:
// sequential keys must spread over every device, the same key must always
// land on the same device, and the one index serves every key to every
// worker.
func TestShardedRouting(t *testing.T) {
	eng, err := Build("txmontage", Config{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	se := eng.(*medleyEngine)
	hit := make([]int, 8)
	for k := uint64(0); k < 4096; k++ {
		d := se.deviceOf(k)
		if d != se.deviceOf(k) {
			t.Fatal("routing not deterministic")
		}
		hit[d]++
	}
	for d, n := range hit {
		// A uniform spread puts 512 keys per device; demand at least a
		// quarter of that so gross skew fails loudly.
		if n < 128 {
			t.Errorf("device %d got %d/4096 sequential keys (want a roughly uniform spread)", d, n)
		}
	}

	m, err := eng.NewUintMap(MapSpec{Kind: KindHash, Buckets: 1024})
	if err != nil {
		t.Fatal(err)
	}
	w1, w2 := eng.NewWorker(0), eng.NewWorker(1)
	for k := uint64(0); k < 512; k++ {
		m.Insert(w1, k, k*7)
	}
	for k := uint64(0); k < 512; k++ {
		if v, ok := m.Get(w2, k); !ok || v != k*7 {
			t.Fatalf("key %d: got %d,%v want %d,true", k, v, ok, k*7)
		}
	}
}

// TestShardedCrossShardTransfer is the dedicated cross-device atomicity
// test: on txmontage over 1, 2 and 8 devices, concurrent workers move
// value between two maps (accounts spread over every device) while readers
// audit account pairs transactionally; the per-pair invariant must hold on
// every committed read and the total must be conserved at the end.
func TestShardedCrossShardTransfer(t *testing.T) {
	const (
		accounts = 32
		perAcct  = 1000
		workers  = 4
		iters    = 300
	)
	for _, devices := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("devices=%d", devices), func(t *testing.T) {
			eng, err := Build("txmontage", Config{Shards: devices})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			checking, err := eng.NewUintMap(MapSpec{Kind: KindHash, Buckets: 256})
			if err != nil {
				t.Fatal(err)
			}
			savings, err := eng.NewUintMap(MapSpec{Kind: KindHash, Buckets: 256})
			if err != nil {
				t.Fatal(err)
			}
			init := eng.NewWorker(0)
			for a := uint64(0); a < accounts; a++ {
				checking.Put(init, a, perAcct)
				savings.Put(init, a, perAcct)
			}

			violation := make(chan string, workers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(id int) {
					defer wg.Done()
					tx := eng.NewWorker(1 + id)
					rng := rand.New(rand.NewPCG(uint64(id)+1, uint64(devices)))
					for i := 0; i < iters; i++ {
						from := rng.Uint64N(accounts)
						to := rng.Uint64N(accounts)
						if i%5 == 4 {
							// Read-only cross-map pair probe interleaved with
							// the transfers: it exercises the read-only
							// commit path; the actual
							// conservation invariant is asserted by the
							// whole-ledger auditors below, since per-account
							// pair sums are not preserved by from!=to moves.
							if err := tx.Run(func() error {
								checking.Get(tx, from)
								savings.Get(tx, to)
								return nil
							}); err != nil {
								t.Errorf("read probe: %v", err)
								return
							}
							continue
						}
						// Move value checking[from] -> savings[to] atomically.
						err := tx.Run(func() error {
							c, ok := checking.Get(tx, from)
							if !ok {
								return nil
							}
							amt := uint64(rng.IntN(50) + 1)
							if amt > c {
								amt = c
							}
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
			// Concurrent whole-ledger auditors: a transactional sweep of all
			// accounts must always see the grand total conserved.
			stop := make(chan struct{})
			var rwg sync.WaitGroup
			for r := 0; r < 2; r++ {
				rwg.Add(1)
				go func(id int) {
					defer rwg.Done()
					tx := eng.NewWorker(100 + id)
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
							case violation <- fmt.Sprintf("auditor %d: committed sweep sums %d, want %d", id, sum, 2*accounts*perAcct):
							default:
							}
						}
					}
				}(r)
			}
			wg.Wait()
			close(stop)
			rwg.Wait()
			select {
			case v := <-violation:
				t.Fatalf("cross-device atomicity violation: %s", v)
			default:
			}

			final := eng.NewWorker(999)
			sum := uint64(0)
			for a := uint64(0); a < accounts; a++ {
				c, _ := checking.Get(final, a)
				s, _ := savings.Get(final, a)
				sum += c + s
			}
			if want := uint64(2 * accounts * perAcct); sum != want {
				t.Fatalf("final sum %d != %d: a cross-device transfer tore", sum, want)
			}
		})
	}
}

// TestShardedCrossShardNotBlockedByOpenRun pins that the runtime holds no
// lock on a device: while one worker sits inside an open Run that wrote a
// key on device A, another worker's un-hinted transfer over A and B on
// disjoint keys must commit, in one execution of its body, without waiting
// for the first worker to leave.
func TestShardedCrossShardNotBlockedByOpenRun(t *testing.T) {
	eng, err := Build("txmontage", Config{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	se := eng.(*medleyEngine)
	m, err := eng.NewUintMap(MapSpec{Kind: KindHash, Buckets: 1 << 12})
	if err != nil {
		t.Fatal(err)
	}
	held := keyOnDevice(t, se, 0, 0)
	from := keyOnDevice(t, se, 0, held+1)
	to := keyOnDevice(t, se, 1, 0)
	init := eng.NewWorker(0)
	m.Put(init, from, 100)
	m.Put(init, to, 100)

	inside, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	sitter := make(chan error, 1)
	go func() {
		tx := eng.NewWorker(1)
		sitter <- tx.Run(func() error {
			m.Put(tx, held, 1) // a payload on device A
			once.Do(func() { close(inside) })
			<-release
			return nil
		})
	}()
	<-inside

	base := eng.Stats()
	mover := make(chan error, 1)
	execs := 0 // the mover's; read after its Run has returned
	go func() {
		tx := eng.NewWorker(2)
		mover <- tx.Run(func() error {
			execs++
			f, _ := m.Get(tx, from)
			m.Put(tx, from, f-1)
			v, _ := m.Get(tx, to)
			m.Put(tx, to, v+1)
			return nil
		})
	}()
	select {
	case err := <-mover:
		if err != nil {
			t.Errorf("transfer: %v", err)
		}
		if d := eng.Stats().Delta(base); execs != 1 || d.Commits != 1 || d.Aborts != 0 {
			t.Errorf("un-hinted transfer beside an open Run: %+v in %d executions of the body, want one commit in one", d, execs)
		}
	case <-time.After(10 * time.Second):
		t.Error("cross-device transfer parked behind an open Run on one of its devices")
	}
	close(release)
	if err := <-sitter; err != nil {
		t.Errorf("open Run: %v", err)
	}
	audit := eng.NewWorker(3)
	f, _ := m.Get(audit, from)
	v, _ := m.Get(audit, to)
	h, _ := m.Get(audit, held)
	if f != 99 || v != 101 || h != 1 {
		t.Errorf("from=%d to=%d held=%d, want 99 101 1", f, v, h)
	}
}

// TestShardedQueueComposition: queue+map transactions must stay atomic
// while the map's payloads route across 8 devices — the multi-device
// version of the workqueue claim contract.
func TestShardedQueueComposition(t *testing.T) {
	const (
		producers = 2
		consumers = 2
		perWorker = 250
	)
	eng, err := Build("txmontage", Config{Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	q, err := eng.NewUintQueue()
	if err != nil {
		t.Fatal(err)
	}
	states, err := eng.NewUintMap(MapSpec{Kind: KindHash, Buckets: 256})
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	var producing atomic.Int32 // consumers spend no attempt on an empty queue before the producers are done
	producing.Store(producers)
	torn := make(chan string, consumers)
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			defer producing.Add(-1)
			tx := eng.NewWorker(id)
			for i := 0; i < perWorker; i++ {
				j := uint64(id+1)<<32 | uint64(i)
				if err := tx.Run(func() error {
					q.Enqueue(tx, j)
					states.Insert(tx, j, 0)
					return nil
				}); err != nil {
					t.Errorf("produce: %v", err)
					return
				}
			}
		}(p)
	}
	var claimed [consumers]int
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			tx := eng.NewWorker(10 + id)
			for i := 0; i < perWorker; i++ {
				var j uint64
				var got, known bool
				busy := producing.Load() > 0
				if err := tx.Run(func() error {
					j, got = q.Dequeue(tx)
					if !got {
						return nil
					}
					_, known = states.Get(tx, j)
					states.Put(tx, j, uint64(id)+1)
					return nil
				}); err != nil {
					t.Errorf("consume: %v", err)
					return
				}
				if got {
					claimed[id]++
					if !known {
						select {
						case torn <- fmt.Sprintf("consumer %d dequeued job %d before its state registration", id, j):
						default:
						}
					}
				} else if busy {
					i--
					runtime.Gosched()
				}
			}
		}(c)
	}
	wg.Wait()
	select {
	case v := <-torn:
		t.Fatalf("queue+map composition torn: %s", v)
	default:
	}
	total := 0
	for _, n := range claimed {
		total += n
	}
	if total == 0 {
		t.Fatal("consumers claimed nothing")
	}
	// Drain: every leftover job must still be registered pending.
	audit := eng.NewWorker(99)
	for {
		j, ok := q.Dequeue(audit)
		if !ok {
			break
		}
		if st, known := states.Get(audit, j); !known || st != 0 {
			t.Fatalf("leftover job %d has state %d,%v; want 0,true", j, st, known)
		}
		total++
	}
	if total != producers*perWorker {
		t.Fatalf("claimed+leftover = %d, want %d (jobs lost or duplicated)", total, producers*perWorker)
	}
}

// TestShardedOneSessionPerWorker pins what a device is not: a transaction
// scope. Every device of an engine sits under the engine's one TxManager, and
// a worker that has run transactions over all S devices holds one session on
// it — W workers, W sessions, whatever S is. medley-sharded, which is medley
// with no device whatever Shards says, holds the same count.
func TestShardedOneSessionPerWorker(t *testing.T) {
	const workers, rounds = 4, 50
	for _, tc := range []struct {
		engine  string
		devices int
	}{{"medley-sharded", 1}, {"medley-sharded", 2}, {"medley-sharded", 8}, {"txmontage", 1}, {"txmontage", 2}, {"txmontage", 8}} {
		engine, devices := tc.engine, tc.devices
		label := "devices"
		if engine == "medley-sharded" {
			label = "shards" // Config.Shards, which medley-sharded ignores
		}
		t.Run(fmt.Sprintf("%s/%s=%d", engine, label, devices), func(t *testing.T) {
			eng, err := Build(engine, Config{Shards: devices})
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			se := eng.(*medleyEngine)
			mgr := se.mgr
			m, err := eng.NewUintMap(MapSpec{Kind: KindHash, Buckets: 256})
			if err != nil {
				t.Fatal(err)
			}
			keys := distinctDeviceKeys(t, se, max(len(se.es), 1), 1) // one key on every device
			if mgr.NumSessions() != 0 {
				t.Fatalf("%d sessions before the first worker", mgr.NumSessions())
			}
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					tx := eng.NewWorker(w)
					for r := 0; r < rounds; r++ {
						if err := tx.Run(func() error {
							for _, k := range keys {
								v, _ := m.Get(tx, k)
								m.Put(tx, k, v+1)
							}
							return nil
						}); err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			if n := mgr.NumSessions(); n != workers {
				t.Fatalf("%d workers over %d devices hold %d sessions, want one each", workers, len(se.es), n)
			}
			tx := eng.NewWorker(workers)
			for _, k := range keys {
				if v, _ := m.Get(tx, k); v != workers*rounds {
					t.Fatalf("key %d = %d after %d increments", k, v, workers*rounds)
				}
			}
		})
	}
}
