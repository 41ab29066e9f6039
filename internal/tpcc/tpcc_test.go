package tpcc

import (
	"math/rand/v2"
	"testing"
	"time"
)

func smallCfg() Config {
	return Config{
		Warehouses: 2, DistPerWh: 4, CustPerDist: 20,
		Items: 50, StockPerWh: 50, MaxLinesPerO: 8,
	}
}

// namedStore is a Store under its subtest name.
type namedStore struct {
	name string
	Store
}

// stores builds one Store per registry engine that can run TPC-C (LFTT is
// static-only and excluded by Engines itself), named by its display name,
// plus txMontage over four devices.
func stores(t *testing.T) []namedStore {
	t.Helper()
	names := Engines()
	if len(names) < 5 {
		t.Fatalf("Engines() = %v, want at least medley/txmontage/onefile/tdsl/boost", names)
	}
	build := func(name string, opt StoreOptions) Store {
		st, err := NewStore(name, opt)
		if err != nil {
			t.Fatalf("NewStore(%s): %v", name, err)
		}
		return st
	}
	out := make([]namedStore, 0, len(names)+1)
	for _, name := range names {
		st := build(name, StoreOptions{})
		out = append(out, namedStore{st.Name(), st})
	}
	return append(out, namedStore{"txMontage/devices=4", build("txmontage", StoreOptions{Shards: 4})})
}

// TPC-C must refuse engines that cannot express its transactions.
func TestNewStoreRejectsStaticEngines(t *testing.T) {
	if _, err := NewStore("lftt", StoreOptions{}); err == nil {
		t.Fatal("NewStore(lftt) succeeded; LFTT cannot run TPC-C")
	}
	if _, err := NewStore("no-such-engine", StoreOptions{}); err == nil {
		t.Fatal("NewStore of unknown engine succeeded")
	}
}

func TestLoadAndRunAllStores(t *testing.T) {
	cfg := smallCfg()
	for _, st := range stores(t) {
		t.Run(st.name, func(t *testing.T) {
			Load(st, cfg)
			w := st.NewWorker(1)
			rng := rand.New(rand.NewPCG(1, 2))
			var seq uint64
			for i := 0; i < 200; i++ {
				if err := w.RunTx(func(h Handle) error { return NewOrder(h, cfg, rng, 1) }); err != nil {
					t.Fatalf("newOrder: %v", err)
				}
				if err := w.RunTx(func(h Handle) error { return Payment(h, cfg, rng, 1, &seq) }); err != nil {
					t.Fatalf("payment: %v", err)
				}
			}
			st.Close()
		})
	}
}

// Money conservation: warehouse YTD + district YTDs must equal the sum of
// history amounts (payment writes all three atomically).
func TestPaymentMoneyConservation(t *testing.T) {
	cfg := smallCfg()
	for _, st := range stores(t) {
		t.Run(st.name, func(t *testing.T) {
			Load(st, cfg)
			res := Run(st, cfg, 8, 300*time.Millisecond)
			if res.Txns == 0 {
				t.Fatal("no transactions completed")
			}
			// Verify warehouse YTD == sum of district YTD for each
			// warehouse (payment adds the same amount to both).
			w := st.NewWorker(99)
			err := w.RunTx(func(h Handle) error {
				for wh := 0; wh < cfg.Warehouses; wh++ {
					wv, ok := h.Get(TWarehouse, WKey(wh))
					if !ok {
						t.Fatal("warehouse missing")
					}
					var dsum uint64
					for d := 0; d < cfg.DistPerWh; d++ {
						dv, ok := h.Get(TDistrict, DKey(wh, d))
						if !ok {
							t.Fatal("district missing")
						}
						dsum += dv.(*District).YTD
					}
					if got := wv.(*Warehouse).YTD; got != dsum {
						t.Errorf("warehouse %d YTD %d != district sum %d (atomicity broken)", wh, got, dsum)
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			st.Close()
		})
	}
}

// Order ids handed out by newOrder must be dense and unique per district:
// every oid below NextOID has exactly one order row.
func TestNewOrderIDsDense(t *testing.T) {
	cfg := smallCfg()
	st, err := NewStore("medley", StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	Load(st, cfg)
	res := Run(st, cfg, 8, 300*time.Millisecond)
	if res.Txns == 0 {
		t.Fatal("no transactions")
	}
	w := st.NewWorker(99)
	err = w.RunTx(func(h Handle) error {
		for wh := 0; wh < cfg.Warehouses; wh++ {
			for d := 0; d < cfg.DistPerWh; d++ {
				dv, _ := h.Get(TDistrict, DKey(wh, d))
				next := dv.(*District).NextOID
				for oid := uint64(1); oid < next; oid++ {
					if _, ok := h.Get(TOrder, OKey(wh, d, oid)); !ok {
						t.Errorf("w%d d%d: oid %d missing below NextOID %d", wh, d, oid, next)
						return nil
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// txMontage TPC-C with a running epoch advancer must stay correct.
func TestTxMontageWithAdvancer(t *testing.T) {
	cfg := smallCfg()
	st, err := NewStore("txmontage", StoreOptions{EpochLen: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	Load(st, cfg)
	res := Run(st, cfg, 4, 300*time.Millisecond)
	st.Close()
	if res.Txns == 0 {
		t.Fatal("no transactions with advancer running")
	}
}
