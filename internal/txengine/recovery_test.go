package txengine

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"medley/internal/chaos"
	"medley/internal/pnvm"
)

// TestCrashRecoveryConformance is the cross-engine crash/recovery contract
// for persistent engines (txMontage over one device or several, POneFile),
// mirroring cmd/recoverydemo through the engine layer: commit transactions,
// crash the engine's whole device fleet, rebuild a fresh engine on the
// survivors, and assert that synced committed state is visible, aborted
// writes are absent, and post-sync transactions recover all-or-nothing. The
// contract is multi-device: the engine reports its devices, the crash dumps
// them all, and recovery merges the dumps at an epoch-consistent cut.
func TestCrashRecoveryConformance(t *testing.T) {
	const (
		n       = 32
		poison1 = uint64(1 << 20)
		poison2 = poison1 + 1
	)
	for _, b := range sweptBuilders() {
		b := b
		t.Run(b.Key, func(t *testing.T) {
			eng, err := b.New(Config{})
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			p, ok := eng.(Persister)
			if !ok || len(p.Devices()) == 0 {
				eng.Close()
				t.Skipf("%s is transient", b.Key)
			}
			devs := p.Devices()
			spec := testSpec(b.Caps)
			m, err := eng.NewUintMap(spec)
			if err != nil {
				t.Fatal(err)
			}
			tx := eng.NewWorker(0)

			// Phase 1: committed pair transactions, made durable by Sync.
			for i := uint64(0); i < n; i++ {
				i := i
				if err := tx.Run(func() error {
					m.Put(tx, i, 100+i)
					m.Put(tx, i+n, 100+i)
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			}
			// An aborted transaction: its write must never recover.
			errBiz := errors.New("insufficient")
			if err := tx.Run(func() error {
				m.Put(tx, poison1, 666)
				return errBiz
			}); !errors.Is(err, errBiz) {
				t.Fatalf("business abort returned %v", err)
			}
			p.Sync()

			// Phase 2 (after the sync boundary): committed pairs that a
			// buffered-durability engine may legitimately lose — but only
			// whole transactions at a time — plus another aborted write.
			for i := uint64(0); i < n; i++ {
				i := i
				if err := tx.Run(func() error {
					m.Put(tx, 2*n+i, 500+i)
					m.Put(tx, 3*n+i, 500+i)
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			}
			if err := tx.Run(func() error {
				m.Put(tx, poison2, 667)
				return tx.Abort()
			}); !errors.Is(err, ErrBusinessAbort) {
				t.Fatalf("Tx.Abort returned %v", err)
			}

			dumps := pnvm.DumpAll(devs)
			eng.Close()

			// Post-crash world: a fresh engine reattached to the same
			// device fleet.
			eng2, err := b.New(Config{Devices: devs})
			if err != nil {
				t.Fatalf("rebuild: %v", err)
			}
			defer eng2.Close()
			p2 := eng2.(Persister)
			redevs := p2.Devices()
			if len(redevs) != len(devs) {
				t.Fatalf("rebuilt engine has %d devices, want %d", len(redevs), len(devs))
			}
			for i := range devs {
				if redevs[i] != devs[i] {
					t.Fatalf("rebuilt engine ignored Config.Devices at index %d", i)
				}
			}
			rm, err := p2.RecoverUintMap(dumps, spec)
			if err != nil {
				t.Fatal(err)
			}
			tx2 := eng2.NewWorker(0)

			// Synced committed state must be fully visible.
			for i := uint64(0); i < n; i++ {
				for _, k := range []uint64{i, i + n} {
					if v, ok := rm.Get(tx2, k); !ok || v != 100+i {
						t.Fatalf("synced key %d: got %d,%v want %d,true", k, v, ok, 100+i)
					}
				}
			}
			// Aborted writes must be absent.
			for _, k := range []uint64{poison1, poison2} {
				if v, ok := rm.Get(tx2, k); ok {
					t.Fatalf("aborted write recovered: key %d = %d", k, v)
				}
			}
			// Post-sync transactions: all-or-nothing, with correct values
			// when present.
			recovered := 0
			for i := uint64(0); i < n; i++ {
				v1, ok1 := rm.Get(tx2, 2*n+i)
				v2, ok2 := rm.Get(tx2, 3*n+i)
				if ok1 != ok2 {
					t.Fatalf("post-sync tx %d recovered torn: (%v,%v)", i, ok1, ok2)
				}
				if ok1 {
					recovered++
					if v1 != 500+i || v2 != 500+i {
						t.Fatalf("post-sync tx %d recovered wrong values: %d,%d", i, v1, v2)
					}
				}
			}
			// POneFile persists eagerly: everything committed must survive.
			if b.Key == "ponefile" && recovered != n {
				t.Fatalf("eager persistence lost %d/%d post-sync transactions", n-recovered, n)
			}
			t.Logf("%s: %d devices, recovered %d/%d post-sync transactions", b.Key, len(devs), recovered, n)
		})
	}
}

// TestRecoveryAdvancerWaitsForTheMap: an engine built with a background
// advancer over a crashed image starts the advancer with the map it
// recovers, not at construction. The image's durable frontier is two epochs
// in, with the next epoch's batch written back but not its marker: keys
// synced, then overwritten or removed, then a crash inside the sync. Twenty
// advancer periods pass between construction and recovery, and the media
// must not change meanwhile — a fresh-clock marker written there would pass
// the old frontier, and a recovery that then ran from the media would cut
// beyond it, reviving the unsynced overwrites and removals. Every synced key
// comes back with its synced value.
func TestRecoveryAdvancerWaitsForTheMap(t *testing.T) {
	const n = uint64(32)
	for _, tc := range []struct {
		key     string
		devices int
	}{{"txmontage", 1}, {"txmontage", 2}} {
		t.Run(fmt.Sprintf("%s/devices=%d", tc.key, tc.devices), func(t *testing.T) {
			t.Cleanup(chaos.DisarmAll)
			b, _ := Lookup(tc.key)
			eng, err := b.New(Config{Shards: tc.devices}) // EpochLen 0: sync by hand
			if err != nil {
				t.Fatal(err)
			}
			p := eng.(Persister)
			devs := p.Devices()
			spec := MapSpec{Kind: KindHash, Buckets: 64}
			m, err := eng.NewUintMap(spec)
			if err != nil {
				t.Fatal(err)
			}
			tx := eng.NewWorker(0)
			for k := uint64(0); k < n; k++ {
				if err := tx.Run(func() error { m.Put(tx, k, 100+k); return nil }); err != nil {
					t.Fatal(err)
				}
			}
			p.Sync()
			for k := uint64(0); k < n; k++ {
				if err := tx.Run(func() error {
					if k%2 == 0 {
						m.Put(tx, k, 900+k)
					} else {
						m.Remove(tx, k)
					}
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			}
			// The sync's first advance flushes an empty epoch on every device;
			// the second writes the overwrites back and crashes before the first
			// device's marker.
			if err := chaos.Arm("txmontage.flush.pre-marker", chaos.Fault{
				Kind:  chaos.Crash,
				After: len(devs),
				Action: func() {
					for _, d := range devs {
						d.Crash()
					}
				},
			}); err != nil {
				t.Fatal(err)
			}
			if !chaosCrashed(p.Sync) {
				t.Fatal("the crash inside the sync never fired")
			}
			chaos.DisarmAll()
			pnvm.DumpAll(devs) // the restart reopens the media

			eng2, err := b.New(Config{Shards: tc.devices, EpochLen: time.Millisecond, Devices: devs})
			if err != nil {
				t.Fatal(err)
			}
			defer eng2.Close()
			before := deviceWrites(devs)
			time.Sleep(25 * time.Millisecond)
			if after := deviceWrites(devs); after != before {
				t.Errorf("%d device writes between construction and recovery", after-before)
			}
			rm, err := eng2.(Persister).RecoverUintMap(pnvm.DumpAll(devs), spec)
			if err != nil {
				t.Fatal(err)
			}
			tx2 := eng2.NewWorker(0)
			for k := uint64(0); k < n; k++ {
				if v, ok := rm.Get(tx2, k); !ok || v != 100+k {
					t.Fatalf("synced key %d recovered as (%d, %v), want (%d, true)", k, v, ok, 100+k)
				}
			}
		})
	}
}

func deviceWrites(devs []*pnvm.Device) (n uint64) {
	for _, d := range devs {
		w, _, _ := d.Stats()
		n += w
	}
	return n
}

// TestPersisterCoverage pins that the persistent engines actually implement
// Persister with live devices — so the conformance suite above cannot
// silently skip them all — including txmontage's device count, which
// ponefile ignores. (Independent of subtest filtering.)
func TestPersisterCoverage(t *testing.T) {
	for _, tc := range []struct {
		key    string
		shards int
		wantN  int
	}{
		{"txmontage", 0, 1},
		{"ponefile", 0, 1},
		{"ponefile", 4, 1},
		{"txmontage", 4, 4},
		{"txmontage", 8, 8},
	} {
		b, ok := Lookup(tc.key)
		if !ok {
			t.Fatalf("registry missing %q", tc.key)
		}
		eng, err := b.New(Config{Shards: tc.shards})
		if err != nil {
			t.Fatalf("build %s: %v", tc.key, err)
		}
		p, ok := eng.(Persister)
		if !ok {
			t.Errorf("%s must implement Persister", tc.key)
			eng.Close()
			continue
		}
		if got := len(p.Devices()); got != tc.wantN {
			t.Errorf("%s (shards=%d): %d devices, want %d", tc.key, tc.shards, got, tc.wantN)
		}
		// Reattachment must adopt the supplied fleet.
		devs := p.Devices()
		eng.Close()
		eng2, err := b.New(Config{Shards: tc.shards, Devices: devs})
		if err != nil {
			t.Fatalf("rebuild %s: %v", tc.key, err)
		}
		re := eng2.(Persister).Devices()
		for i := range devs {
			if re[i] != devs[i] {
				t.Errorf("%s: rebuilt engine ignored Config.Devices[%d]", tc.key, i)
			}
		}
		eng2.Close()
	}
}
