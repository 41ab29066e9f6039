package txengine

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"sync"
	"testing"
	"time"

	"medley/internal/chaos"
	"medley/internal/montage"
	"medley/internal/pnvm"
)

// Key layout shared by the sharded persistence tests: one logical uint64
// map carrying three disjoint regions, so every audit runs over a single
// recovered map.
const (
	jobBase = uint64(1) << 20 // job-state keys: jobBase | job
	ctrBase = uint64(1) << 30 // per-claimer counter keys: ctrBase | claimer
)

func ckKey(a uint64) uint64  { return 2 * a }
func svKey(a uint64) uint64  { return 2*a + 1 }
func jobKey(j uint64) uint64 { return jobBase | j }
func ctrKey(c uint64) uint64 { return ctrBase | c }

// TestShardedPersistRegistry pins how txmontage counts its devices, under
// either name: Config.Shards, else len(Config.Devices), else one, every
// device a Persister reports and every device in the engine's one persistence
// domain. A Devices slice of another length than Shards is refused.
func TestShardedPersistRegistry(t *testing.T) {
	two := []*pnvm.Device{pnvm.New(pnvm.Latencies{}), pnvm.New(pnvm.Latencies{})}
	for _, tc := range []struct {
		name string
		cfg  Config
		want int
	}{
		{"txmontage-sharded", Config{Shards: 4}, 4},
		{"txmontage", Config{Shards: 1}, 1},
		{"txmontage", Config{Shards: 8}, 8},
		{"txmontage", Config{}, 1},
		{"txmontage", Config{Devices: two}, 2},
	} {
		eng, err := Build(tc.name, tc.cfg)
		if err != nil {
			t.Fatalf("%s Shards=%d with %d Devices: %v", tc.name, tc.cfg.Shards, len(tc.cfg.Devices), err)
		}
		p, ok := eng.(Persister)
		if !ok || len(p.Devices()) != tc.want {
			t.Fatalf("%s Shards=%d with %d Devices: want a Persister with %d devices", tc.name, tc.cfg.Shards, len(tc.cfg.Devices), tc.want)
		}
		se := eng.(*medleyEngine)
		if eng.Name() != "txMontage" || se.dom == nil || len(se.dom.Devices()) != tc.want {
			t.Errorf("%s over %d devices: name %q, domain %v", tc.name, tc.want, eng.Name(), se.dom)
		}
		for i, d := range tc.cfg.Devices {
			if p.Devices()[i] != d {
				t.Errorf("%s ignored Config.Devices[%d]", tc.name, i)
			}
		}
		eng.Close()
	}
	three := append(two, pnvm.New(pnvm.Latencies{}))
	if _, err := Build("txmontage", Config{Shards: 2, Devices: three}); err == nil {
		t.Error("txmontage accepted Shards=2 with 3 Devices")
	}
}

// TestShardedCrashRecoveryMerge is the mid-run crash + merged recovery test
// over 1, 2 and 8 devices: concurrent workers run cross-shard transfers and
// claim jobs (each claim marks a job-state key and increments the claimer's
// counter key — almost always on different devices) while the background
// coordinator advances the shared epoch. The crash lands at an arbitrary
// boundary; recovery merges one dump per device and the recovered state
// must pass the transfer-conservation and claim-consistency audits exactly
// — any imbalance means some transaction recovered torn across devices.
func TestShardedCrashRecoveryMerge(t *testing.T) {
	const (
		accounts   = 32
		perAcct    = uint64(1000)
		jobs       = 64
		workers    = 4
		iterations = 120
	)
	for _, devices := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("devices=%d", devices), func(t *testing.T) {
			b, _ := Lookup("txmontage")
			eng, err := b.New(Config{Shards: devices, EpochLen: time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			p := eng.(Persister)
			devs := p.Devices()
			spec := MapSpec{Kind: KindHash, Buckets: 1024}
			m, err := eng.NewUintMap(spec)
			if err != nil {
				t.Fatal(err)
			}

			// Preload: account pairs, pending jobs, zeroed claim counters —
			// all synced so the recovered map must contain every key.
			init := eng.NewWorker(0)
			for a := uint64(0); a < accounts; a++ {
				a := a
				if err := init.Run(func() error {
					m.Put(init, ckKey(a), perAcct)
					m.Put(init, svKey(a), perAcct)
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			}
			for j := uint64(0); j < jobs; j++ {
				m.Put(init, jobKey(j), 0)
			}
			for w := 0; w < workers; w++ {
				m.Put(init, ctrKey(uint64(w)+1), 0)
			}
			p.Sync()

			// Phase 2: unsynced concurrent work racing the epoch
			// coordinator. Whatever fraction of it the crash preserves must
			// be whole transactions at a consistent cut.
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					tx := eng.NewWorker(1 + w)
					cid := uint64(w) + 1
					rng := rand.New(rand.NewPCG(uint64(w)+1, uint64(devices)))
					lo, hi := uint64(w)*jobs/workers, uint64(w+1)*jobs/workers
					next := lo
					for i := 0; i < iterations; i++ {
						if i%3 == 0 && next < hi {
							// Claim a job: state mark + counter increment in
							// one (usually cross-shard) transaction.
							j := next
							next++
							if err := tx.Run(func() error {
								st, ok := m.Get(tx, jobKey(j))
								if !ok || st != 0 {
									return nil
								}
								m.Put(tx, jobKey(j), cid)
								v, _ := m.Get(tx, ctrKey(cid))
								m.Put(tx, ctrKey(cid), v+1)
								return nil
							}); err != nil {
								t.Errorf("claim: %v", err)
								return
							}
							continue
						}
						from := rng.Uint64N(accounts)
						to := rng.Uint64N(accounts)
						if err := tx.Run(func() error {
							c, ok := m.Get(tx, ckKey(from))
							if !ok {
								return nil
							}
							amt := uint64(rng.IntN(50) + 1)
							if amt > c {
								amt = c
							}
							s, _ := m.Get(tx, svKey(to))
							m.Put(tx, ckKey(from), c-amt)
							m.Put(tx, svKey(to), s+amt)
							return nil
						}); err != nil {
							t.Errorf("transfer: %v", err)
							return
						}
						if i%16 == 0 {
							time.Sleep(time.Millisecond) // let epochs advance mid-run
						}
					}
				}(w)
			}
			wg.Wait()

			// Crash without a sync: the cut lands wherever the coordinator
			// got to. Close first so no flush races the crash.
			eng.Close()
			dumps := pnvm.DumpAll(devs)

			// Rebuild with a live coordinator: recovery must be safe even
			// while the background advancer is already ticking (the scrub
			// runs with epoch advancement blocked).
			eng2, err := b.New(Config{Shards: devices, Devices: devs, EpochLen: time.Millisecond})
			if err != nil {
				t.Fatalf("rebuild: %v", err)
			}
			defer eng2.Close()
			rm, err := eng2.(Persister).RecoverUintMap(dumps, spec)
			if err != nil {
				t.Fatal(err)
			}
			tx := eng2.NewWorker(0)

			// Transfer conservation: every account key must exist (synced)
			// and the grand total must be exact.
			sum := uint64(0)
			for a := uint64(0); a < accounts; a++ {
				c, ok1 := rm.Get(tx, ckKey(a))
				s, ok2 := rm.Get(tx, svKey(a))
				if !ok1 || !ok2 {
					t.Fatalf("account %d lost a synced balance key (%v,%v)", a, ok1, ok2)
				}
				sum += c + s
			}
			if want := 2 * accounts * perAcct; sum != want {
				t.Fatalf("recovered ledger sums %d, want %d: a cross-shard transfer recovered torn", sum, want)
			}

			// Claim consistency: each claimer's recovered counter must equal
			// the number of jobs recovered with its mark — the two halves of
			// every claim transaction live on (usually) different devices.
			claimedBy := make(map[uint64]uint64)
			for j := uint64(0); j < jobs; j++ {
				st, ok := rm.Get(tx, jobKey(j))
				if !ok {
					t.Fatalf("job %d lost its synced state key", j)
				}
				if st != 0 {
					if st > uint64(workers) {
						t.Fatalf("job %d recovered with impossible claimer %d", j, st)
					}
					claimedBy[st]++
				}
			}
			for w := 0; w < workers; w++ {
				cid := uint64(w) + 1
				ctr, ok := rm.Get(tx, ctrKey(cid))
				if !ok {
					t.Fatalf("claimer %d lost its synced counter key", cid)
				}
				if ctr != claimedBy[cid] {
					t.Fatalf("claimer %d: counter recovered as %d but %d jobs carry its mark — claim tx recovered torn",
						cid, ctr, claimedBy[cid])
				}
			}
			t.Logf("devices=%d: cut=%d, %d claims recovered", devices, pnvm.Cut(dumps), len(claimedBy))
		})
	}
}

// TestShardedTornCutPrevented injects the exact failure the coordinator
// exists to prevent: a crash between two devices' epoch flushes, at the
// advance's mid-shard crash point. Device 0 persists the epoch holding a
// cross-shard transfer; shard 1 does not. A
// naive per-device recovery would see the debit without the credit; the
// merge must cut at the minimum durable frontier and drop the transfer from
// both devices.
func TestShardedTornCutPrevented(t *testing.T) {
	b, _ := Lookup("txmontage")
	eng, err := b.New(Config{Shards: 2}) // EpochLen 0: epochs advanced by hand
	if err != nil {
		t.Fatal(err)
	}
	se := eng.(*medleyEngine)
	spec := MapSpec{Kind: KindHash, Buckets: 256}
	m, err := eng.NewUintMap(spec)
	if err != nil {
		t.Fatal(err)
	}

	// Two keys on different devices.
	k1 := uint64(1)
	for se.deviceOf(k1) != 0 {
		k1++
	}
	k2 := uint64(1)
	for se.deviceOf(k2) != 1 {
		k2++
	}

	tx := eng.NewWorker(0)
	if err := tx.Run(func() error {
		m.Put(tx, k1, 1000)
		m.Put(tx, k2, 1000)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	se.Sync()

	// Cross-shard transfers in the current epoch E: all of them debit k1
	// (shard 0) and credit k2 (shard 1).
	for i := 0; i < 3; i++ {
		if err := tx.Run(func() error {
			a, _ := m.Get(tx, k1)
			b, _ := m.Get(tx, k2)
			m.Put(tx, k1, a-100)
			m.Put(tx, k2, b+100)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}

	// One clean coordinated advance (flushes the pre-transfer epoch E-1 on
	// both devices), then a torn one: the clock ticks, shard 0 flushes epoch
	// E — transfers included — and the crash lands before shard 1 does.
	se.dom.Advance()
	devs := se.Devices()
	t.Cleanup(chaos.DisarmAll)
	if err := chaos.Arm("txmontage.advance.mid-shard", chaos.Fault{Kind: chaos.Crash, Action: func() {
		for _, d := range devs {
			d.Crash()
		}
	}}); err != nil {
		t.Fatal(err)
	}
	if !chaosCrashed(se.dom.Advance) {
		t.Fatal("the advance did not crash between the devices' flushes")
	}
	chaos.DisarmAll()
	dumps := pnvm.DumpAll(devs)
	eng.Close()

	f0, f1 := pnvm.Cut(dumps[:1]), pnvm.Cut(dumps[1:])
	if f0 <= f1 {
		t.Fatalf("torn flush not injected: frontiers %d, %d", f0, f1)
	}
	// Sanity: naive per-device recovery (every unretired record, no cut)
	// really would tear — shard 0 holds the post-transfer debit, shard 1
	// still the pre-transfer credit.
	naive := uint64(0)
	dec := montage.Uint64Codec().Dec
	for _, d := range dumps {
		for _, r := range d {
			if r.Retire == 0 && (r.Key == k1 || r.Key == k2) {
				naive += dec(r.Val)
			}
		}
	}
	if naive == 2000 {
		t.Fatal("naive union unexpectedly consistent; torn-cut scenario not exercised")
	}

	eng2, err := b.New(Config{Shards: 2, Devices: devs})
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	rm, err := eng2.(Persister).RecoverUintMap(dumps, spec)
	if err != nil {
		t.Fatal(err)
	}
	tx2 := eng2.NewWorker(0)
	v1, ok1 := rm.Get(tx2, k1)
	v2, ok2 := rm.Get(tx2, k2)
	if !ok1 || !ok2 {
		t.Fatalf("synced keys lost: (%v,%v)", ok1, ok2)
	}
	if v1+v2 != 2000 {
		t.Fatalf("merged recovery tore the transfer: %d + %d != 2000", v1, v2)
	}
	if v1 != 1000 || v2 != 1000 {
		t.Fatalf("cut should drop the half-flushed epoch entirely: got %d/%d, want 1000/1000", v1, v2)
	}

	// Second life, second crash: recovery must have scrubbed the devices
	// (beyond-cut records and stale frontier markers removed) and
	// re-anchored the clock past the cut — otherwise this cycle would
	// compute its cut from pre-first-crash markers and resurrect the torn
	// transfer discarded above.
	se2 := eng2.(*medleyEngine)
	for i := 0; i < 2; i++ {
		if err := tx2.Run(func() error {
			a, _ := rm.Get(tx2, k1)
			b, _ := rm.Get(tx2, k2)
			rm.Put(tx2, k1, a-100)
			rm.Put(tx2, k2, b+100)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	se2.Sync()
	dumps2 := pnvm.DumpAll(se2.Devices())
	eng2.Close()

	eng3, err := b.New(Config{Shards: 2, Devices: devs})
	if err != nil {
		t.Fatal(err)
	}
	defer eng3.Close()
	rm3, err := eng3.(Persister).RecoverUintMap(dumps2, spec)
	if err != nil {
		t.Fatal(err)
	}
	tx3 := eng3.NewWorker(0)
	w1, _ := rm3.Get(tx3, k1)
	w2, _ := rm3.Get(tx3, k2)
	if w1 != 800 || w2 != 1200 {
		t.Fatalf("second recovery cycle inconsistent: got %d/%d, want 800/1200 (stale pre-crash state leaked?)", w1, w2)
	}
}

// payloadEpoch returns the creation epoch of key's one unretired record in a
// device's post-crash dump.
func payloadEpoch(t *testing.T, dump []pnvm.Record, key uint64) uint64 {
	t.Helper()
	var epochs []uint64
	for _, r := range dump {
		if r.Key == key && r.Retire == 0 {
			epochs = append(epochs, r.Epoch)
		}
	}
	if len(epochs) != 1 {
		t.Fatalf("key %d has unretired records of epochs %v on its device, want exactly one", key, epochs)
	}
	return epochs[0]
}

// TestShardedEpochStraddle: a transaction holds one epoch pin whichever
// devices it touches, so a clock tick between its first and its second
// device's operation cannot put it in two recovery cuts — it can only make
// the pin stale, and then the attempt aborts by validation alone (nothing
// locks the clock against commits). The tick is an advance run inside the
// transaction, which its pin, being current, does not hold up. The retry
// commits in the new epoch, and after Sync + crash + recovery both devices
// hold that attempt's payloads, tagged with the same epoch, and nothing of
// the first.
func TestShardedEpochStraddle(t *testing.T) {
	b, _ := Lookup("txmontage")
	eng, err := b.New(Config{Shards: 2}) // EpochLen 0: the test owns the clock
	if err != nil {
		t.Fatal(err)
	}
	se := eng.(*medleyEngine)
	spec := MapSpec{Kind: KindHash, Buckets: 256}
	m, err := eng.NewUintMap(spec)
	if err != nil {
		t.Fatal(err)
	}
	keys := distinctDeviceKeys(t, se, 2, 1)
	k1, k2 := keys[0], keys[1]
	tx := eng.NewWorker(0).(*sessionTx)
	m.Put(tx, k1, 1000)
	m.Put(tx, k2, 1000)
	se.Sync()

	var pinned [][2]uint64 // per execution of the body: the pinned epoch at the first and at the second shard's operation
	base := eng.Stats()
	if err := tx.Run(func() error {
		a, _ := m.Get(tx, k1)
		m.Put(tx, k1, a-100)
		e1 := montage.PinnedEpoch(tx.s)
		if len(pinned) == 0 {
			se.dom.Advance()
		}
		b, _ := m.Get(tx, k2)
		m.Put(tx, k2, b+100)
		pinned = append(pinned, [2]uint64{e1, montage.PinnedEpoch(tx.s)})
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(pinned) != 2 || pinned[0][0] != pinned[0][1] || pinned[1] != [2]uint64{pinned[0][0] + 1, pinned[0][0] + 1} {
		t.Fatalf("pinned epochs per attempt = %v, want (e, e) across the tick, then (e+1, e+1)", pinned)
	}
	if d, want := eng.Stats().Delta(base), (Stats{Commits: 1, Aborts: 1, Retries: 1}); d != want {
		t.Fatalf("stats %+v, want %+v: the attempt the tick went through aborted, the retry committed", d, want)
	}

	se.Sync()
	dumps := pnvm.DumpAll(se.Devices())
	if e1, e2 := payloadEpoch(t, dumps[se.deviceOf(k1)], k1), payloadEpoch(t, dumps[se.deviceOf(k2)], k2); e1 != e2 || e1 != pinned[1][0] {
		t.Fatalf("the two devices' payloads carry epochs %d and %d, want both the retry's %d", e1, e2, pinned[1][0])
	}
	devs := se.Devices()
	eng.Close()
	eng2, err := b.New(Config{Shards: 2, Devices: devs})
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	rm, err := eng2.(Persister).RecoverUintMap(dumps, spec)
	if err != nil {
		t.Fatal(err)
	}
	tx2 := eng2.NewWorker(0)
	v1, _ := rm.Get(tx2, k1)
	v2, _ := rm.Get(tx2, k2)
	if v1 != 900 || v2 != 1100 {
		t.Fatalf("recovered %d / %d, want 900 / 1100: both writes of the retry, none of the aborted attempt", v1, v2)
	}
}

// TestShardedStraddleEveryGap enumerates where a tick can fall inside a
// cross-shard transaction: a transfer over k keys (k = 2, 3, 4) on alternating
// devices, the clock ticked by an advance in each gap between two consecutive
// device touches and in the one between the last touch and TxEnd — every
// position.
// Wherever it falls the attempt must abort and the retry commit; after Sync +
// crash + recovery every payload of the transfer carries one epoch and the
// transfer is there whole.
func TestShardedStraddleEveryGap(t *testing.T) {
	b, _ := Lookup("txmontage")
	spec := MapSpec{Kind: KindHash, Buckets: 256}
	for _, devices := range []int{2, 8} {
		for k := 2; k <= 4; k++ {
			for gap := 0; gap < k; gap++ { // after the operations on keys[gap]: before keys[gap+1]'s, or before TxEnd
				t.Run(fmt.Sprintf("devices=%d/k=%d/gap=%d", devices, k, gap), func(t *testing.T) {
					eng, err := b.New(Config{Shards: devices})
					if err != nil {
						t.Fatal(err)
					}
					se := eng.(*medleyEngine)
					m, err := eng.NewUintMap(spec)
					if err != nil {
						t.Fatal(err)
					}
					tx := eng.NewWorker(0)
					keys := alternatingDeviceKeys(t, se, k, 1)
					for _, key := range keys {
						m.Put(tx, key, 1000)
					}
					se.Sync()

					runs, base := 0, eng.Stats()
					if err := tx.Run(func() error {
						runs++
						for i, key := range keys {
							v, _ := m.Get(tx, key)
							if i == 0 {
								m.Put(tx, key, v-uint64(k-1))
							} else {
								m.Put(tx, key, v+1)
							}
							if runs == 1 && i == gap {
								se.dom.Advance()
							}
						}
						return nil
					}); err != nil {
						t.Fatal(err)
					}
					if d := eng.Stats().Delta(base); d.Commits != 1 || d.Aborts != 1 || d.Retries != 1 {
						t.Fatalf("commits %d, aborts %d, retries %d: want the ticked attempt aborted and the retry committed (1/1/1)", d.Commits, d.Aborts, d.Retries)
					}

					se.Sync()
					dumps := pnvm.DumpAll(se.Devices())
					epoch := payloadEpoch(t, dumps[se.deviceOf(keys[0])], keys[0])
					for _, key := range keys[1:] {
						if e := payloadEpoch(t, dumps[se.deviceOf(key)], key); e != epoch {
							t.Fatalf("key %d's payload carries epoch %d, key %d's %d: one transaction in two cuts", key, e, keys[0], epoch)
						}
					}
					devs := se.Devices()
					eng.Close()
					eng2, err := b.New(Config{Shards: devices, Devices: devs})
					if err != nil {
						t.Fatal(err)
					}
					defer eng2.Close()
					rm, err := eng2.(Persister).RecoverUintMap(dumps, spec)
					if err != nil {
						t.Fatal(err)
					}
					tx2 := eng2.NewWorker(0)
					for i, key := range keys {
						want := uint64(1001)
						if i == 0 {
							want = 1000 - uint64(k-1)
						}
						if v, ok := rm.Get(tx2, key); !ok || v != want {
							t.Fatalf("recovered key %d = %d, %v, want %d", key, v, ok, want)
						}
					}
				})
			}
		}
	}
}

// TestConfigShardsValidation pins the central Config.Shards validation:
// every registry construction path rejects negative and absurd device counts
// with a clear error, and device-count mismatches fail fast.
func TestConfigShardsValidation(t *testing.T) {
	for _, engine := range Names() {
		for _, bad := range []struct {
			shards int
			bound  string
		}{{-1, ">= 0"}, {-64, ">= 0"}, {MaxShards + 1, fmt.Sprint("MaxShards ", MaxShards)}} {
			_, err := Build(engine, Config{Shards: bad.shards})
			if err == nil {
				t.Fatalf("%s accepted Shards=%d", engine, bad.shards)
			}
			if msg := err.Error(); !strings.Contains(msg, "Shards") || !strings.Contains(msg, bad.bound) {
				t.Errorf("%s Shards=%d error %q does not name the field and its bound %q", engine, bad.shards, err, bad.bound)
			}
		}
	}
	// As many Devices as Shards asks for, enforced at construction.
	devs := []*pnvm.Device{pnvm.New(pnvm.Latencies{}), pnvm.New(pnvm.Latencies{}), pnvm.New(pnvm.Latencies{})}
	if _, err := Build("txmontage", Config{Shards: 2, Devices: devs}); err == nil {
		t.Fatal("device-count mismatch accepted")
	}
	// And a dump-count mismatch, at recovery.
	eng, err := Build("txmontage", Config{Shards: 2})
	if err != nil {
		t.Fatalf("valid device count rejected: %v", err)
	}
	defer eng.Close()
	if _, err := eng.(Persister).RecoverUintMap(make([][]pnvm.Record, 3), MapSpec{Kind: KindHash}); err == nil {
		t.Fatal("dump/device mismatch accepted")
	}
}

// TestShardedDeviceRouting pins where txmontage keeps a key: on four
// devices, after Puts, overwrites and Removes in transactions over several
// keys, a crash and a recovery, every media record of key k — live, retired
// or rewritten after recovery — is on k's routed device and no other, and a
// dump count that differs from the device count is still refused.
func TestShardedDeviceRouting(t *testing.T) {
	const devices, keys, fresh = 4, 256, 64
	b, _ := Lookup("txmontage")
	spec := MapSpec{Kind: KindHash, Buckets: 256}
	eng, err := b.New(Config{Shards: devices}) // EpochLen 0: synced by hand
	if err != nil {
		t.Fatal(err)
	}
	se := eng.(*medleyEngine)
	// routed fails the test on any record of a dump off its key's device.
	routed := func(when string, dumps [][]pnvm.Record) {
		t.Helper()
		n := 0
		for d, dump := range dumps {
			for _, r := range dump {
				if r.Key == pnvm.MarkerKey {
					continue
				}
				n++
				if want := se.deviceOf(r.Key); d != want {
					t.Fatalf("%s: key %d has a record on device %d, routed to %d", when, r.Key, d, want)
				}
			}
		}
		if n == 0 {
			t.Fatalf("%s: no records to check", when)
		}
	}
	m, err := eng.NewUintMap(spec)
	if err != nil {
		t.Fatal(err)
	}
	tx := eng.NewWorker(0)
	for k := uint64(0); k < keys; k++ {
		m.Put(tx, k, k)
	}
	se.Sync()
	// Overwrite k and k+1 together, remove every fourth key, in transactions
	// that span devices.
	want := make(map[uint64]uint64, keys)
	for k := uint64(0); k < keys; k += 4 {
		if err := tx.Run(func() error {
			m.Put(tx, k, k+1000)
			m.Put(tx, k+1, k+2000)
			m.Remove(tx, k+3)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		want[k], want[k+1], want[k+2] = k+1000, k+2000, k+2
	}
	se.Sync()
	routed("before the crash", pnvm.DumpAll(se.Devices()))
	for k := uint64(keys); k < keys+fresh; k++ {
		m.Put(tx, k, k) // unsynced: the crash may keep it or not
	}
	devs := se.Devices()
	dumps := pnvm.DumpAll(devs)
	eng.Close()
	routed("in the crash dumps", dumps)

	eng2, err := b.New(Config{Shards: devices, Devices: devs})
	if err != nil {
		t.Fatal(err)
	}
	defer eng2.Close()
	for _, bad := range [][][]pnvm.Record{dumps[:devices-1], append(dumps[:devices:devices], nil)} {
		if _, err := eng2.(Persister).RecoverUintMap(bad, spec); err == nil {
			t.Fatalf("%d dumps for %d devices accepted", len(bad), devices)
		}
	}
	rm, err := eng2.(Persister).RecoverUintMap(dumps, spec)
	if err != nil {
		t.Fatal(err)
	}
	se2, tx2 := eng2.(*medleyEngine), eng2.NewWorker(0)
	for k := uint64(0); k < keys+fresh; k++ {
		v, ok := rm.Get(tx2, k)
		switch w, synced := want[k]; {
		case k >= keys:
			if ok && v != k {
				t.Fatalf("unsynced key %d recovered as %d", k, v)
			}
		case !synced:
			if ok {
				t.Fatalf("removed key %d recovered as %d", k, v)
			}
		case !ok || v != w:
			t.Fatalf("key %d recovered as %d, %v, want %d", k, v, ok, w)
		}
	}
	routed("after recovery", pnvm.DumpAll(devs))
	for k := uint64(0); k < keys+fresh; k += 3 {
		rm.Put(tx2, k, k+3000)
	}
	se2.Sync()
	routed("after writes on the recovered map", pnvm.DumpAll(devs))
}
