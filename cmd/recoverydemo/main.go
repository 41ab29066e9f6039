// Command recoverydemo walks through failure-atomic persistence on any
// persistent engine of the txengine registry — the same Persister path the
// recovery conformance tests exercise. It runs transfer transactions over
// one persistent map, syncs a durable boundary, keeps running, crashes the
// engine's whole (simulated) NVM device fleet, rebuilds a fresh engine on
// the survivors, and shows that the merged recovery is a
// transaction-consistent cut: every account pair still sums to its opening
// balance (buffered durable strict serializability).
//
// With -engine txmontage -devices N the demo becomes the multi-device story:
// the map is one index whose keys' payloads go to N devices of one
// persistence domain (one epoch clock), transfers routinely span devices, and
// recovery rebuilds the index from one dump per device at the minimum durable
// frontier — so even a crash landing between two devices' flushes never
// recovers half a transfer.
//
// -crash <point> moves the failure from the quiet spot between transactions
// to a named chaos point INSIDE the persistence machinery (see
// internal/chaos): the armed point crashes the device fleet mid-operation —
// mid-flush, mid-commit-record, mid-write-back — and the same audits must
// still hold. Exits 2 if the named point never fires.
//
// A recover.* point moves the failure inside recovery itself: the run crashes
// between transactions as usual, recovery starts on a fresh engine, a second
// power failure lands at the named instant of the one recovery pipeline
// (pnvm.RecoverDomain), and a third engine recovers what is left — the same
// audits must hold, and the media must end at live keys + one marker per
// device.
//
// Examples:
//
//	recoverydemo                                   # txMontage, one device
//	recoverydemo -devices 8
//	recoverydemo -engine ponefile                  # eager persistence: nothing lost
//	recoverydemo -devices 4 -crash txmontage.advance.mid-shard
//	recoverydemo -devices 4 -crash txmontage.advance.reclaim
//	recoverydemo -engine ponefile -crash ponefile.commit.mark-volatile
//	recoverydemo -devices 4 -crash recover.pre-marker
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"medley/internal/chaos"
	"medley/internal/pnvm"
	"medley/internal/txengine"
)

const opening = uint64(1000) // per-account opening balance in each half

// Account a's two balances live at distinct keys of one map, so recovery
// audits a single recovered structure while the halves' payloads still go to
// (usually) different devices when txmontage runs over several.
func checkingKey(a uint64) uint64 { return 2 * a }
func savingsKey(a uint64) uint64  { return 2*a + 1 }

func main() {
	engine := flag.String("engine", "txmontage", "persistent engine to demo (txmontage | ponefile)")
	devices := flag.Int("devices", 1, "device count of txmontage; other engines ignore it")
	accounts := flag.Uint64("accounts", 8, "account pairs to open")
	crashPoint := flag.String("crash", "", "chaos point to crash at during the unsynced phase, or a recover.* point to crash a second time inside recovery (empty: crash between transactions)")
	flag.Parse()
	// A recover.* point fires inside recovery, not inside the run: the first
	// crash stays between transactions and the point is armed later.
	recoverPoint := ""
	if strings.HasPrefix(*crashPoint, "recover.") {
		recoverPoint, *crashPoint = *crashPoint, ""
		if !slices.Contains(chaos.Names(), recoverPoint) {
			fmt.Fprintf(os.Stderr, "unknown chaos point %q (registered: %s)\n", recoverPoint, strings.Join(chaos.Names(), ", "))
			os.Exit(2)
		}
	}

	cfg := txengine.Config{Latencies: pnvm.DefaultLatencies(), Shards: *devices}
	eng, err := txengine.Build(*engine, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	p, ok := eng.(txengine.Persister)
	if !ok || len(p.Devices()) == 0 {
		fmt.Fprintf(os.Stderr, "engine %q is transient; pick a persistent one (txmontage, ponefile)\n", *engine)
		os.Exit(2)
	}
	devs := p.Devices()
	spec := txengine.MapSpec{Kind: txengine.KindHash, Buckets: 1024}
	m, err := eng.NewUintMap(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	tx := eng.NewWorker(0)

	// Open the account pairs; every transfer below preserves
	// checking+savings == 2*opening per account.
	for a := uint64(0); a < *accounts; a++ {
		a := a
		must(tx.Run(func() error {
			m.Put(tx, checkingKey(a), opening)
			m.Put(tx, savingsKey(a), opening)
			return nil
		}))
	}
	transfer := func(a, amt uint64) {
		must(tx.Run(func() error {
			c, _ := m.Get(tx, checkingKey(a))
			if c < amt {
				return nil
			}
			s, _ := m.Get(tx, savingsKey(a))
			m.Put(tx, checkingKey(a), c-amt)
			m.Put(tx, savingsKey(a), s+amt)
			return nil
		}))
	}
	for a := uint64(0); a < *accounts; a++ {
		transfer(a, 100*(a%5+1))
	}
	p.Sync() // everything so far is durable on every device
	fmt.Printf("%s: %d accounts opened and shuffled; synced across %d device(s)\n",
		eng.Name(), *accounts, len(devs))

	// More transfers that are NOT synced: a buffered engine may lose them,
	// but only whole transactions at a time. With -crash armed, one of them
	// (or the sync that follows) dies mid-operation at the named point.
	armCrash := func(point string) {
		if err := chaos.Arm(point, chaos.Fault{Kind: chaos.Crash, Action: func() {
			for _, d := range devs {
				d.Crash()
			}
		}}); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}
	if *crashPoint != "" {
		armCrash(*crashPoint)
	}
	crashed := false
	ran := uint64(0)
	for a := uint64(0); a < *accounts && !crashed; a++ {
		a := a
		crashed = runToCrash(func() { transfer(a, 50) })
		if !crashed {
			ran++
		}
	}
	if *crashPoint != "" {
		if !crashed {
			// The point must be on the flush/advance path: force it with a sync.
			crashed = runToCrash(func() { p.Sync() })
		}
		if !crashed {
			fmt.Fprintf(os.Stderr, "-crash %s never fired (transfers and sync both completed)\n", *crashPoint)
			os.Exit(2)
		}
		chaos.DisarmAll()
		fmt.Printf("ran %d more transfers without sync; crashed mid-operation at %s\n", ran, *crashPoint)
		// The engine died mid-operation; it is not closed, just abandoned —
		// exactly what a process crash leaves behind.
	} else {
		fmt.Printf("ran %d more transfers without sync; crashing all %d device(s)...\n",
			*accounts, len(devs))
		eng.Close()
	}
	// Post-crash world: a fresh engine over the same devices, one merged
	// logical map at an epoch-consistent cut.
	recoverFleet := func() (txengine.Engine, txengine.Map[uint64]) {
		dumps := pnvm.DumpAll(devs)
		total := 0
		for _, d := range dumps {
			total += len(d)
		}
		fmt.Printf("recovering from %d surviving records across %d dump(s), cut %d\n", total, len(dumps), pnvm.Cut(dumps))
		eng, err := txengine.Build(*engine, txengine.Config{
			Latencies: pnvm.DefaultLatencies(), Shards: *devices, Devices: devs,
		})
		var m txengine.Map[uint64]
		if err == nil {
			m, err = eng.(txengine.Persister).RecoverUintMap(dumps, spec)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		return eng, m
	}
	if recoverPoint != "" {
		armCrash(recoverPoint)
		if !runToCrash(func() { recoverFleet() }) {
			fmt.Fprintf(os.Stderr, "-crash %s never fired (recovery completed)\n", recoverPoint)
			os.Exit(2)
		}
		chaos.DisarmAll()
		fmt.Printf("power failed again inside recovery at %s; recovering what is left...\n", recoverPoint)
	}
	eng2, rm := recoverFleet()
	tx2 := eng2.NewWorker(0)

	// Two audits gate the exit status. Conservation alone would pass
	// vacuously if the whole synced transfer were lost (opening balances
	// also sum right), so the durable-frontier audit additionally pins each
	// account to one of its two legitimate post-sync states: the synced
	// transfer applied, with the unsynced one either present or absent —
	// never rolled back past the sync.
	ok = true
	for a := uint64(0); a < *accounts; a++ {
		c, ok1 := rm.Get(tx2, checkingKey(a))
		s, ok2 := rm.Get(tx2, savingsKey(a))
		if !ok1 || !ok2 {
			fmt.Printf("account %v: a synced balance key was lost — NOT transaction-consistent\n", a)
			ok = false
			continue
		}
		if c+s != 2*opening {
			fmt.Printf("account %v: %v+%v != %v — split transaction recovered!\n", a, c, s, 2*opening)
			ok = false
			continue
		}
		amt := 100 * (a%5 + 1) // the synced transfer's amount (see above)
		switch c {
		case opening - amt:
			fmt.Printf("account %v: checking+savings = %v+%v = %v ✓ (synced transfer durable, unsynced dropped)\n", a, c, s, 2*opening)
		case opening - amt - 50:
			fmt.Printf("account %v: checking+savings = %v+%v = %v ✓ (both transfers survived)\n", a, c, s, 2*opening)
		default:
			fmt.Printf("account %v: checking %v is neither post-sync state (%v or %v) — a SYNCED transfer was lost\n",
				a, c, opening-amt, opening-amt-50)
			ok = false
		}
	}
	// Recovery scrubs the media down to the live set: one record per
	// surviving key, one cut marker per device.
	onMedia := 0
	for _, d := range devs {
		onMedia += d.Live()
	}
	if want := 2*int(*accounts) + len(devs); onMedia != want {
		fmt.Printf("media holds %d records, want %d (2×%d balances + %d markers)\n", onMedia, want, *accounts, len(devs))
		ok = false
	} else {
		fmt.Printf("media holds %d records: %d balances + %d marker(s)\n", onMedia, 2**accounts, len(devs))
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "recovery audit FAILED")
		os.Exit(1)
	}
	fmt.Println("recovered state is a consistent epoch-boundary cut (BDSS holds)")
}

func must(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// runToCrash runs fn, converting a chaos crash panic — the simulated process
// death — into a true return. Any other panic propagates.
func runToCrash(fn func()) (crashed bool) {
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
