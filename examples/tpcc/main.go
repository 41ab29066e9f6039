// TPC-C example: run the paper's Figure 9 workload (newOrder + payment,
// 1:1) over Medley skiplist tables for a few seconds and verify the
// database-level invariants that only hold if transactions are atomic.
package main

import (
	"fmt"
	"runtime"
	"time"

	"medley/internal/tpcc"
	"medley/internal/txengine"
)

func main() {
	cfg := tpcc.DefaultConfig(2)
	st, err := tpcc.NewStore("medley", txengine.Config{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("loading %d warehouses...\n", cfg.Warehouses)
	tpcc.Load(st, cfg)

	threads := runtime.GOMAXPROCS(0)
	fmt.Printf("running newOrder:payment 1:1 on %d threads for 2s...\n", threads)
	res := tpcc.Run(st, cfg, threads, 2*time.Second)
	fmt.Printf("%s: %d transactions, %.0f txn/s\n", res.System, res.Txns, res.Throughput)

	// Invariant 1: warehouse YTD equals the sum of its districts' YTD
	// (payment updates both atomically).
	// Invariant 2: order ids are dense — every id below NextOID exists
	// (newOrder reads and bumps NextOID and inserts the order atomically).
	w := st.NewWorker(0)
	err = w.RunTx(func(h tpcc.Handle) error {
		for wh := 0; wh < cfg.Warehouses; wh++ {
			wv, _ := h.Get(tpcc.TWarehouse, tpcc.WKey(wh))
			var dsum uint64
			var orders uint64
			for d := 0; d < cfg.DistPerWh; d++ {
				dv, _ := h.Get(tpcc.TDistrict, tpcc.DKey(wh, d))
				dist := dv.(*tpcc.District)
				dsum += dist.YTD
				for oid := uint64(1); oid < dist.NextOID; oid++ {
					if _, ok := h.Get(tpcc.TOrder, tpcc.OKey(wh, d, oid)); !ok {
						return fmt.Errorf("w%d d%d: order %d missing", wh, d, oid)
					}
					orders++
				}
			}
			ytd := wv.(*tpcc.Warehouse).YTD
			if ytd != dsum {
				return fmt.Errorf("w%d: warehouse YTD %d != district sum %d", wh, ytd, dsum)
			}
			fmt.Printf("warehouse %d: YTD %d == Σ district YTD ✓; %d orders dense ✓\n", wh, ytd, orders)
		}
		return nil
	})
	if err != nil {
		panic(err)
	}
	fmt.Println("all TPC-C atomicity invariants hold")
}
