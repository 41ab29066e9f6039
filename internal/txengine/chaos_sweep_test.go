package txengine

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"medley/internal/chaos"
	"medley/internal/montage"
	"medley/internal/pnvm"
)

// The crash-point sweep: for every registered fault point on an engine's
// persistence path, arm a device-fleet crash there (at several hit offsets,
// so the fault lands mid-payload and mid-retire, not just on first touch),
// run transactions until the crash fires, recover from the surviving media,
// and audit failure atomicity. This is the systematic version of the
// conformance suite's single coarse crash: instead of one failure between
// flushes, a failure at every reachable instant inside them.

// ponefilePoints spans POneFile's WriteTx persistence window in protocol
// order, plus the media-level points that fire inside it.
var ponefilePoints = []string{
	"ponefile.commit.pre-log",
	"ponefile.commit.payload",
	"ponefile.commit.retire",
	"ponefile.commit.pre-mark",
	"ponefile.commit.mark-volatile",
	"ponefile.commit.post-mark",
	"ponefile.commit.gc",
	"pnvm.write",
	"pnvm.writeback",
}

// montagePoints spans the txMontage flush/advance path, plus the media-level
// points that fire during transactions themselves.
var montagePoints = []string{
	"txmontage.flush.batch",
	"txmontage.flush.pre-marker",
	"txmontage.flush.marker-volatile",
	"txmontage.advance.pre-flush",
	"txmontage.advance.mid-shard",
	"txmontage.advance.reclaim",
	"pnvm.write",
	"pnvm.writeback",
}

// recoverPoints spans the one recovery pipeline (pnvm.RecoverDomain) in
// protocol order; every persistent engine recovers through it.
var recoverPoints = []string{
	"recover.scrub",
	"recover.pre-marker",
	"recover.marker-volatile",
	"recover.post-marker",
	"recover.mid-device",
}

// requireRegistered pins the sweep's point lists against the live registry,
// so a renamed point fails loudly instead of silently never firing.
func requireRegistered(t *testing.T, names []string) {
	t.Helper()
	reg := map[string]bool{}
	for _, n := range chaos.Names() {
		reg[n] = true
	}
	for _, n := range names {
		if !reg[n] {
			t.Fatalf("chaos point %q is not registered (catalog: %v)", n, chaos.Names())
		}
	}
}

// chaosCrashed runs fn, converting a chaos crash panic — the modeled process
// death — into a true return. Any other panic propagates.
func chaosCrashed(fn func()) (crashed bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := chaos.AsCrash(r); !ok {
				panic(r)
			}
			crashed = true
		}
	}()
	fn()
	return false
}

// TestChaosCrashPointSweepPOneFile is the acceptance sweep for the redo-log
// commit record: a crash armed at ANY registered point inside POneFile's
// WriteTx persistence window must recover with no torn transaction visible.
// Each transaction writes two fresh stamp keys and moves one unit between
// two accounts; after crash + recovery, every attempted transaction must be
// all-or-nothing (stamp pair both-or-neither), every transaction that
// returned before the crash must be fully present (eager persistence), and
// the account total must be conserved.
func TestChaosCrashPointSweepPOneFile(t *testing.T) {
	requireRegistered(t, ponefilePoints)
	for _, point := range ponefilePoints {
		for _, after := range []int{0, 1, 2} {
			t.Run(fmt.Sprintf("%s/after=%d", point, after), func(t *testing.T) {
				sweepPOneFile(t, point, after)
			})
		}
	}
}

func sweepPOneFile(t *testing.T, point string, after int) {
	ponefileToCrash(t, point, after).recoverAndAudit(t)
}

// crashedRun is a sweep workload stopped by its armed crash: the wounded
// engine is abandoned, and what remains is the device fleet, how to rebuild
// an engine over it, and the workload's own audit of a recovered map (it
// returns how many keys the map holds).
type crashedRun struct {
	b     Builder
	cfg   Config // Devices unset
	devs  []*pnvm.Device
	spec  MapSpec
	audit func(t *testing.T, rm Map[uint64], tx Tx) (keys int)
}

// recoverInto dumps the (crashed) fleet and starts recovery on a fresh
// engine over it. The error is RecoverUintMap's; a fault armed inside
// recovery panics through, for chaosCrashed to catch.
func (r crashedRun) recoverInto(t *testing.T) (eng Engine, rm Map[uint64], err error) {
	t.Helper()
	dumps := pnvm.DumpAll(r.devs)
	cfg := r.cfg
	cfg.Devices = r.devs
	eng, err = r.b.New(cfg)
	if err != nil {
		t.Fatalf("rebuild: %v", err)
	}
	t.Cleanup(eng.Close)
	rm, err = eng.(Persister).RecoverUintMap(dumps, r.spec)
	return eng, rm, err
}

// recoverAndAudit recovers the fleet on a fresh engine, runs the workload's
// audit, and requires the media to hold exactly the recovered keys plus one
// marker per device. It returns the durable media content (per device: key →
// value bytes, and the marker epochs), read back through one more crash.
func (r crashedRun) recoverAndAudit(t *testing.T) (media []map[uint64]string, markers [][]uint64) {
	t.Helper()
	eng, rm, err := r.recoverInto(t)
	if err != nil {
		t.Fatal(err)
	}
	keys := r.audit(t, rm, eng.NewWorker(0))
	onMedia := 0
	for _, d := range r.devs {
		onMedia += d.Live()
	}
	if want := keys + len(r.devs); onMedia != want {
		t.Fatalf("media holds %d records after recovery, want %d live keys + %d markers", onMedia, keys, len(r.devs))
	}
	media, markers = make([]map[uint64]string, len(r.devs)), make([][]uint64, len(r.devs))
	for i, d := range pnvm.DumpAll(r.devs) {
		media[i] = map[uint64]string{}
		for _, rec := range d {
			if rec.Key == pnvm.MarkerKey {
				markers[i] = append(markers[i], rec.Epoch)
			} else {
				media[i][rec.Key] = string(rec.Val)
			}
		}
		if len(media[i])+len(markers[i]) != len(d) || len(markers[i]) != 1 {
			t.Fatalf("device %d after recovery: %d records for %d keys and markers %v", i, len(d), len(media[i]), markers[i])
		}
	}
	return media, markers
}

// ponefileToCrash runs the POneFile sweep workload until the crash armed at
// point (skipping its first after hits) lands.
func ponefileToCrash(t *testing.T, point string, after int) crashedRun {
	const (
		accounts = uint64(8)
		opening  = uint64(1000)
		stampA   = uint64(10_000)
		stampB   = uint64(20_000)
		maxTx    = 40
	)
	t.Cleanup(chaos.DisarmAll)
	b, _ := Lookup("ponefile")
	eng, err := b.New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	p := eng.(Persister)
	devs := p.Devices()
	spec := testSpec(b.Caps)
	m, err := eng.NewUintMap(spec)
	if err != nil {
		t.Fatal(err)
	}
	tx := eng.NewWorker(0)
	if err := tx.Run(func() error {
		for a := uint64(0); a < accounts; a++ {
			m.Put(tx, a, opening)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	if err := chaos.Arm(point, chaos.Fault{
		Kind:  chaos.Crash,
		After: after,
		Action: func() {
			for _, d := range devs {
				d.Crash()
			}
		},
	}); err != nil {
		t.Fatal(err)
	}

	// Transfer transactions until the armed crash lands. completed counts
	// transactions whose Run returned: POneFile is eager, so all of them
	// must survive in full. The one in flight at the crash may land either
	// way — but never torn.
	completed, attempted := 0, 0
	crashed := false
	for i := 1; i <= maxTx && !crashed; i++ {
		i := uint64(i)
		attempted = int(i)
		crashed = chaosCrashed(func() {
			from := (i * 7) % accounts
			to := (from + 3) % accounts
			if err := tx.Run(func() error {
				fv, _ := m.Get(tx, from)
				tv, _ := m.Get(tx, to)
				m.Put(tx, from, fv-1)
				m.Put(tx, to, tv+1)
				m.Put(tx, stampA+i, i)
				m.Put(tx, stampB+i, i)
				return nil
			}); err != nil {
				t.Fatalf("transfer %d: %v", i, err)
			}
		})
		if !crashed {
			completed = int(i)
		}
	}
	if !crashed {
		t.Fatalf("point %s (after=%d) never fired in %d transactions", point, after, maxTx)
	}
	chaos.DisarmAll()

	return crashedRun{b: b, devs: devs, spec: spec, audit: func(t *testing.T, rm Map[uint64], tx2 Tx) int {
		// Conservation: transfers move value, never create or destroy it.
		var sum uint64
		for a := uint64(0); a < accounts; a++ {
			v, ok := rm.Get(tx2, a)
			if !ok {
				t.Fatalf("account %d missing after recovery", a)
			}
			sum += v
		}
		if want := accounts * opening; sum != want {
			t.Fatalf("conservation broken: accounts sum to %d, want %d", sum, want)
		}
		// Atomicity, per attempted transaction: its stamp pair recovers
		// both-or-neither, and every transaction acknowledged before the
		// crash recovers in full (eager persistence loses nothing
		// acknowledged).
		keys := int(accounts)
		for i := uint64(1); i <= uint64(attempted); i++ {
			v1, ok1 := rm.Get(tx2, stampA+i)
			v2, ok2 := rm.Get(tx2, stampB+i)
			if ok1 != ok2 {
				t.Fatalf("tx %d recovered torn at %s: stamps (%v,%v)", i, point, ok1, ok2)
			}
			if ok1 && (v1 != i || v2 != i) {
				t.Fatalf("tx %d recovered wrong stamps: %d,%d", i, v1, v2)
			}
			if int(i) <= completed && !ok1 {
				t.Fatalf("acknowledged tx %d lost after crash at %s", i, point)
			}
			if ok1 {
				keys += 2
			}
		}
		t.Logf("%s after=%d: crashed in tx %d (%d acknowledged), recovery atomic", point, after, attempted, completed)
		return keys
	}}
}

// TestChaosCrashPointSweepShardedMontage sweeps the txMontage flush/advance
// path over 1, 2 and 8 devices: base state is committed and synced, more pair
// transactions run, then a crash is armed and fired either mid-transaction
// (media points) or mid-sync (flush/advance points). Recovery must keep the
// synced state intact and every later pair all-or-nothing — including the
// torn-domain cases where only some devices carry the newest frontier marker.
func TestChaosCrashPointSweepShardedMontage(t *testing.T) {
	requireRegistered(t, montagePoints)
	for _, devices := range []int{1, 2, 8} {
		for _, point := range montagePoints {
			t.Run(fmt.Sprintf("devices=%d/%s", devices, point), func(t *testing.T) {
				montageToCrash(t, devices, point).recoverAndAudit(t)
			})
		}
	}
}

// montageToCrash runs the txMontage sweep workload over the given number of
// devices until the crash armed at point lands.
func montageToCrash(t *testing.T, devices int, point string) crashedRun {
	const n = uint64(16)
	t.Cleanup(chaos.DisarmAll)
	b, _ := Lookup("txmontage")
	cfg := Config{Shards: devices} // EpochLen 0: sync by hand, no background advancer
	eng, err := b.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := eng.(Persister)
	devs := p.Devices()
	spec := testSpec(b.Caps)
	m, err := eng.NewUintMap(spec)
	if err != nil {
		t.Fatal(err)
	}
	tx := eng.NewWorker(0)

	// Phase 1: committed pairs, made durable by an un-instrumented sync.
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
	p.Sync()

	if err := chaos.Arm(point, chaos.Fault{
		Kind: chaos.Crash,
		Action: func() {
			for _, d := range devs {
				d.Crash()
			}
		},
	}); err != nil {
		t.Fatal(err)
	}

	// Phase 2: more pairs, then a sync — the media points fire inside the
	// transactions, the flush/advance points inside the sync. Each
	// transaction also rewrites a synced pair with the values it has, so the
	// sync has retired records to reclaim: one freed before its successor is
	// inside the cut would show as a synced key gone.
	crashed := false
	for i := uint64(0); i < n && !crashed; i++ {
		i := i
		crashed = chaosCrashed(func() {
			if err := tx.Run(func() error {
				m.Put(tx, 2*n+i, 500+i)
				m.Put(tx, 3*n+i, 500+i)
				m.Put(tx, i, 100+i)
				m.Put(tx, i+n, 100+i)
				return nil
			}); err != nil {
				t.Fatalf("phase-2 tx %d: %v", i, err)
			}
		})
	}
	if !crashed {
		crashed = chaosCrashed(func() { p.Sync() })
	}
	if !crashed {
		t.Fatalf("point %s never fired at devices=%d (transactions and sync both survived)", point, devices)
	}
	chaos.DisarmAll()

	return crashedRun{b: b, cfg: cfg, devs: devs, spec: spec, audit: func(t *testing.T, rm Map[uint64], tx2 Tx) int {
		// Synced committed state must be fully visible.
		for i := uint64(0); i < n; i++ {
			for _, k := range []uint64{i, i + n} {
				if v, ok := rm.Get(tx2, k); !ok || v != 100+i {
					t.Fatalf("synced key %d: got %d,%v want %d,true", k, v, ok, 100+i)
				}
			}
		}
		// Post-sync pairs: all-or-nothing, correct values when present.
		recovered := 0
		for i := uint64(0); i < n; i++ {
			v1, ok1 := rm.Get(tx2, 2*n+i)
			v2, ok2 := rm.Get(tx2, 3*n+i)
			if ok1 != ok2 {
				t.Fatalf("post-sync pair %d recovered torn at %s: (%v,%v)", i, point, ok1, ok2)
			}
			if ok1 {
				recovered++
				if v1 != 500+i || v2 != 500+i {
					t.Fatalf("post-sync pair %d recovered wrong values: %d,%d", i, v1, v2)
				}
			}
		}
		t.Logf("devices=%d %s: crash fired, %d/%d post-sync pairs recovered, no tears", devices, point, recovered, n)
		return int(2*n) + 2*recovered
	}}
}

// TestShardedStraddleStormCrashSweep runs the crash-point sweep under a tick
// storm: a goroutine advancing the domain back to back beside four workers
// moving units between accounts on different devices, so ticks land in every
// gap of a cross-device transaction — between two devices' operations, between
// the last one and TxEnd, inside validation — thousands of times, with nothing
// but the transaction's one epoch validator between them and a commit. The
// crash fires wherever the point is next hit, in a worker's transaction or in
// the storm's advance; at whatever cut recovery lands, every account is there
// and the total is the one that was synced: no transfer was persisted half in
// one epoch and half in the next.
func TestShardedStraddleStormCrashSweep(t *testing.T) {
	requireRegistered(t, montagePoints)
	for _, devices := range []int{2, 8} {
		for _, point := range montagePoints {
			t.Run(fmt.Sprintf("devices=%d/%s", devices, point), func(t *testing.T) {
				stormToCrash(t, devices, point).recoverAndAudit(t)
			})
		}
	}
}

// stormToCrash runs transfers under a tick storm on txmontage over the given
// number of devices until the crash armed at point lands.
func stormToCrash(t *testing.T, devices int, point string) crashedRun {
	const accounts, start, workers = 6, 1000, 4
	t.Cleanup(chaos.DisarmAll)
	b, _ := Lookup("txmontage")
	cfg := Config{Shards: devices} // EpochLen 0: the storm is the only advancer
	eng, err := b.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	se := eng.(*medleyEngine)
	spec := testSpec(b.Caps)
	m, err := eng.NewUintMap(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Account i lives on device i % devices: with an even device count,
	// accounts of different parity are on different devices, and every transfer below
	// is between an even and an odd one.
	keys := alternatingDeviceKeys(t, se, accounts, 0)
	setup := eng.NewWorker(workers)
	for _, k := range keys {
		m.Put(setup, k, start)
	}
	se.Sync()

	var down atomic.Bool // the fleet has lost power
	if err := chaos.Arm(point, chaos.Fault{
		Kind:  chaos.Crash,
		After: 200, // well into the storm, whichever point it is
		Times: 1,
		Action: func() {
			down.Store(true) // before the first device goes: whoever trips over it knows why
			for _, d := range se.Devices() {
				d.Crash()
			}
		},
	}); err != nil {
		t.Fatal(err)
	}
	// dies runs fn as one thread of the process that is about to lose power:
	// the thread the crash fires in, and any thread that then trips over the
	// dead media, are gone; any other panic is a bug.
	dies := func(fn func()) (dead bool) {
		defer func() {
			if r := recover(); r != nil {
				if _, crash := chaos.AsCrash(r); !crash && !down.Load() {
					panic(r)
				}
				dead = true
			}
		}()
		fn()
		return false
	}
	deadline := time.Now().Add(30 * time.Second)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !down.Load() && time.Now().Before(deadline) {
			if dies(func() { montage.AdvanceTogether(se.clock, se.es) }) {
				return
			}
		}
	}()
	// Workers 0 and 1 move units back and forth between the two hot accounts,
	// 0 and 1, as fast as they can. Workers 2 and 3 each pay out of an account
	// of their own (3 and 5: nobody else conflicts with them) into hot account
	// 0, and dawdle between the two devices: ticks fall in that gap, and so do
	// whole transactions of the fast workers in the epochs after them, whose
	// result the credit then reads. Such an attempt must not commit — it would
	// be persisted an epoch before what it read — and nothing but its epoch
	// validator says so.
	errStop := errors.New("stop")
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tx := eng.NewWorker(w).(*sessionTx)
			for n := 0; ; n++ {
				from, to, dawdle := (w+n)%2, (w+n+1)%2, 0
				if w >= 2 {
					from, to, dawdle = 2*w-1, 0, 3
				}
				var err error
				if dies(func() {
					err = tx.Run(func() error {
						if down.Load() || time.Now().After(deadline) {
							return errStop
						}
						a, _ := m.Get(tx, keys[from])
						m.Put(tx, keys[from], a-1)
						for i := 0; i < dawdle; i++ {
							runtime.Gosched()
						}
						b, _ := m.Get(tx, keys[to])
						m.Put(tx, keys[to], b+1)
						return nil
					})
				}) {
					// A thread that dies inside its commit's cleanups dies
					// pinned. The process it models is gone, but this one's
					// storm would wait for the pin forever: let it go.
					if !tx.s.InTx() {
						tx.s.TxBegin()
						tx.s.TxAbort()
					}
					return
				}
				if err != nil {
					return
				}
				runtime.Gosched() // nobody keeps a processor for a whole time slice
			}
		}()
	}
	wg.Wait()
	chaos.DisarmAll()
	st := eng.Stats()
	if !down.Load() {
		t.Fatalf("point %s never fired at devices=%d (%d commits, %d aborts)", point, devices, st.Commits, st.Aborts)
	}

	return crashedRun{b: b, cfg: cfg, devs: se.Devices(), spec: spec, audit: func(t *testing.T, rm Map[uint64], tx2 Tx) int {
		total := uint64(0)
		for i, k := range keys {
			v, ok := rm.Get(tx2, k)
			if !ok {
				t.Fatalf("account %d lost after crash at %s", i, point)
			}
			total += v
		}
		if total != accounts*start {
			t.Fatalf("recovered total %d after crash at %s, want %d: a transfer was cut in half", total, point, accounts*start)
		}
		t.Logf("devices=%d %s: crashed after %d commits and %d aborts, total conserved", devices, point, st.Commits, st.Aborts)
		return accounts
	}}
}

// TestChaosCrashInsideRecoverySweep is the second-failure sweep: the sweep
// workloads above run to a first crash that leaves recovery real work (torn
// payloads and beyond-cut retire marks on POneFile; a fleet torn between two
// devices' flushes, markers ahead of the domain cut, or one stopped inside its
// reclaim pass, durably dead records still on media, on txMontage), recovery
// starts on a fresh engine, and a second power failure lands at every point
// of the one recovery pipeline × hit offsets — the first and last hit of
// each point, plus mid-scrub. A third engine then recovers what is left and
// must reach the same cut, pass the workload's audits, and leave the same
// durable media (live keys + one marker per device) as a recovery that was
// never interrupted. A marker write that fails instead of crashing must come
// back as RecoverUintMap's error, with nothing lost either.
func TestChaosCrashInsideRecoverySweep(t *testing.T) {
	requireRegistered(t, recoverPoints)
	type scenario struct {
		name string
		run  func(t *testing.T) crashedRun
	}
	scenarios := []scenario{
		{"ponefile-after-commit.pre-mark", func(t *testing.T) crashedRun { return ponefileToCrash(t, "ponefile.commit.pre-mark", 2) }},
		{"ponefile-after-commit.gc", func(t *testing.T) crashedRun { return ponefileToCrash(t, "ponefile.commit.gc", 2) }},
		// No device count: txmontage's default of one device.
		{"txmontage", func(t *testing.T) crashedRun { return montageToCrash(t, 0, "txmontage.advance.mid-shard") }},
	}
	for _, devices := range []int{1, 2, 8} {
		scenarios = append(scenarios, scenario{fmt.Sprintf("txmontage-%d", devices), func(t *testing.T) crashedRun {
			return montageToCrash(t, devices, "txmontage.advance.mid-shard")
		}}, scenario{fmt.Sprintf("txmontage-%d-after-reclaim", devices), func(t *testing.T) crashedRun {
			return montageToCrash(t, devices, "txmontage.advance.reclaim")
		}})
	}
	injected := errors.New("injected media error")
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			ref := sc.run(t)
			refCut := pnvm.Cut(pnvm.DumpAll(ref.devs))
			wantMedia, wantMarkers := ref.recoverAndAudit(t)
			nd := len(ref.devs)

			type armed struct {
				point string
				chaos.Fault
			}
			faults := []armed{{"pnvm.write", chaos.Fault{Kind: chaos.Error, Err: injected}}}
			for _, point := range recoverPoints {
				last := nd - 1 // per-device points fire once per device
				offsets := []int{0, last}
				if point == "recover.scrub" { // once per device shard (pnvm has 64)
					last = 64*nd - 1
					offsets = []int{0, 1, 37, last}
				}
				for i, after := range offsets {
					if i > 0 && after <= offsets[i-1] {
						continue
					}
					faults = append(faults, armed{point, chaos.Fault{Kind: chaos.Crash, After: after}})
				}
			}
			for _, f := range faults {
				t.Run(fmt.Sprintf("%s/%v/after=%d", f.point, f.Kind, f.After), func(t *testing.T) {
					r := sc.run(t)
					f.Action = func() {
						for _, d := range r.devs {
							d.Crash()
						}
					}
					if err := chaos.Arm(f.point, f.Fault); err != nil {
						t.Fatal(err)
					}
					var err error
					crashed := chaosCrashed(func() { _, _, err = r.recoverInto(t) })
					chaos.DisarmAll()
					if f.Kind == chaos.Crash && !crashed {
						t.Fatalf("crash at %s after=%d never fired inside recovery", f.point, f.After)
					}
					if f.Kind == chaos.Error && !errors.Is(err, injected) {
						t.Fatalf("failed marker write: RecoverUintMap returned %v, want the injected error", err)
					}
					// What the interrupted recovery left behind fixes the
					// same cut an uninterrupted one computed.
					left := pnvm.DumpAll(r.devs)
					if cut := pnvm.Cut(left); cut != refCut {
						t.Fatalf("cut after the interrupted recovery is %d, uninterrupted recovery cut at %d", cut, refCut)
					}
					media, markers := r.recoverAndAudit(t)
					if !reflect.DeepEqual(media, wantMedia) || !reflect.DeepEqual(markers, wantMarkers) {
						t.Fatalf("media after interrupted + repeated recovery differs from an uninterrupted recovery:\n got %v %v\nwant %v %v", media, markers, wantMedia, wantMarkers)
					}
				})
			}
		})
	}
}
