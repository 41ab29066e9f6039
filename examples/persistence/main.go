// Persistence example: txMontage in action. Medley transactions over
// persistent maps gain failure atomicity and durability from the epoch
// system "almost for free" (paper Section 4.4): the transaction's epoch is
// validated inside MCNS commit, and payload batches persist at epoch
// boundaries, off the critical path.
package main

import (
	"fmt"
	"sync"
	"time"

	"medley/internal/core"
	"medley/internal/montage"
	"medley/internal/pnvm"
)

func main() {
	dev := pnvm.NewDefault()
	es := montage.NewEpochSys(dev)
	mgr := core.NewTxManager()
	montage.Attach(mgr, es) // ← this one call turns Medley into txMontage
	stopAdvancer := montage.StartAdvancer(es.Clock(), []*montage.EpochSys{es}, 5*time.Millisecond)

	inventory := montage.NewHashMap([]*montage.EpochSys{es}, montage.Uint64Codec(), 4096)
	ledger := montage.NewSkipMap([]*montage.EpochSys{es}, montage.Uint64Codec())

	// Concurrent sales: each transaction decrements stock and appends to
	// the ledger — atomically, durably (within the epoch window).
	var wg sync.WaitGroup
	const items = 32
	s0 := mgr.Session()
	for i := uint64(0); i < items; i++ {
		inventory.Put(s0, i, 100)
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := mgr.Session()
			for i := 0; i < 200; i++ {
				item := uint64((w*200 + i) % items)
				saleID := uint64(w+1)<<32 | uint64(i) // disjoint from item keys
				_ = s.Run(func() error {
					q, ok := inventory.Get(s, item)
					if !ok || q == 0 {
						return nil
					}
					inventory.Put(s, item, q-1)
					ledger.Put(s, saleID, item)
					return nil
				})
			}
		}(w)
	}
	wg.Wait()
	stopAdvancer()
	es.Sync() // push everything over an epoch boundary
	fmt.Println("sold items across 4 goroutines; synced to simulated NVM")

	sold := uint64(0)
	for i := uint64(0); i < items; i++ {
		q, _ := inventory.Get(s0, i)
		sold += 100 - q
	}
	fmt.Printf("inventory says %d units sold\n", sold)

	// Crash and recover through the one recovery pipeline: cut at the
	// newest durable frontier marker, live payloads at the cut, media
	// scrubbed down to them. The recovered payload set must reflect whole
	// transactions only: units missing from inventory == ledger entries.
	devs := []*pnvm.Device{dev}
	rec, err := pnvm.RecoverDomain(devs, pnvm.DumpAll(devs))
	if err != nil {
		panic(err)
	}
	live := rec.Live[0]
	fmt.Printf("crash: %d live payloads recovered at epoch cut %d; %d records left on media\n", len(live), rec.Cut, dev.Live())

	// Payload keys < items are inventory rows; the rest are ledger rows.
	var invUnits, ledgerEntries uint64
	dec := montage.Uint64Codec().Dec
	for _, r := range live {
		if r.Key < items {
			invUnits += dec(r.Val)
		} else {
			ledgerEntries++
		}
	}
	fmt.Printf("recovered state: %d units remaining + %d ledger entries = %d (want %d)\n",
		invUnits, ledgerEntries, invUnits+ledgerEntries, uint64(items*100))
	if invUnits+ledgerEntries != items*100 {
		panic("recovered state is not transaction-consistent")
	}
	fmt.Println("recovered cut is failure-atomic: no sale was half-recovered")

	w, wb, f := dev.Stats()
	fmt.Printf("device: %d NVM writes, %d write-backs, %d fences (batched off critical path)\n", w, wb, f)
}
