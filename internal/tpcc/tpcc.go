// Package tpcc implements the TPC-C subset the Medley paper evaluates in
// Figure 9: the newOrder and payment transactions, run in a 1:1 ratio over
// transactional ordered maps (skiplists), following the methodology of Yu
// et al. (DBx1000) as cited by the paper. Neither transaction performs a
// range query, which is what makes the skiplist representation adequate.
//
// The schema is keyed by composite uint64s; rows are immutable structs
// replaced on update (the natural fit for all four transactional systems
// under test). Scale parameters (items, customers per district) are
// configurable so tests stay fast while cmd/tpccbench can run closer to
// standard cardinalities.
package tpcc

import (
	"errors"
	"math/rand/v2"

	"medley/internal/txengine"
)

// Table identifies one TPC-C table.
type Table int

// Tables used by newOrder and payment.
const (
	TWarehouse Table = iota
	TDistrict
	TCustomer
	TStock
	TItem
	TOrder
	TNewOrder
	TOrderLine
	THistory
	NumTables
)

// Row types. All fields are scaled integers (money in cents).
type (
	// Warehouse row.
	Warehouse struct {
		YTD uint64
		Tax uint64
	}
	// District row.
	District struct {
		NextOID uint64
		YTD     uint64
		Tax     uint64
	}
	// Customer row.
	Customer struct {
		Balance    int64
		YTDPayment uint64
		PaymentCnt uint64
	}
	// Stock row.
	Stock struct {
		Quantity int64
		YTD      uint64
		OrderCnt uint64
	}
	// Item row (read-only after load).
	Item struct {
		Price uint64
	}
	// Order row.
	Order struct {
		CID   uint64
		OLCnt uint64
	}
	// NewOrderRow marks an order as new.
	NewOrderRow struct{}
	// OrderLine row.
	OrderLine struct {
		IID    uint64
		Qty    uint64
		Amount uint64
	}
	// History row.
	History struct {
		Amount uint64
	}
)

// Config sets the (scaled-down) cardinalities.
type Config struct {
	Warehouses   int
	DistPerWh    int // standard: 10
	CustPerDist  int // standard: 3000
	Items        int // standard: 100000
	StockPerWh   int // == Items
	MaxLinesPerO int // standard: 5-15 order lines
}

// DefaultConfig returns a laptop-scale configuration.
func DefaultConfig(warehouses int) Config {
	return Config{
		Warehouses:   warehouses,
		DistPerWh:    10,
		CustPerDist:  300,
		Items:        1000,
		StockPerWh:   1000,
		MaxLinesPerO: 15,
	}
}

// Key encodings (composite → uint64).

// WKey returns the warehouse key.
func WKey(w int) uint64 { return uint64(w) }

// DKey returns the district key.
func DKey(w, d int) uint64 { return uint64(w)*10 + uint64(d) }

// CKey returns the customer key.
func CKey(w, d, c int) uint64 { return (DKey(w, d) << 32) | uint64(c) }

// SKey returns the stock key.
func SKey(w, i int) uint64 { return (uint64(w) << 32) | uint64(i) }

// IKey returns the item key.
func IKey(i int) uint64 { return uint64(i) }

// OKey returns the order key.
func OKey(w, d int, oid uint64) uint64 { return (DKey(w, d) << 36) | oid }

// OLKey returns the order-line key.
func OLKey(w, d int, oid uint64, line int) uint64 {
	return (DKey(w, d) << 44) | (oid << 8) | uint64(line)
}

// HKey returns a unique history key from a per-worker sequence.
func HKey(tid int, seq uint64) uint64 { return (uint64(tid) << 40) | seq }

// Handle is the per-transaction view of the store.
type Handle interface {
	Get(t Table, k uint64) (any, bool)
	Put(t Table, k uint64, v any)
	Insert(t Table, k uint64, v any) bool
	// Abort marks the transaction doomed for business reasons (e.g. 1% of
	// newOrders roll back in standard TPC-C); implementations return an
	// error that their RunTx treats as a no-retry abort.
	Abort() error
}

// Worker executes TPC-C transactions for one thread.
type Worker interface {
	RunTx(fn func(h Handle) error) error
	// RunTxHinted is RunTx with the transaction's key footprint declared
	// up front (payment knows all four of its row keys before it starts).
	// Engines without footprint hints ignore the keys, so drivers can call
	// it unconditionally.
	RunTxHinted(keys []uint64, fn func(h Handle) error) error
}

// Store is one system under test.
type Store interface {
	Name() string
	NewWorker(tid int) Worker
	// Stats snapshots the underlying engine's cumulative transaction
	// outcomes (commits/aborts/retries/fallbacks).
	Stats() txengine.Stats
	Close()
}

// Load populates a store with the initial TPC-C data (single worker,
// unmeasured).
func Load(st Store, cfg Config) {
	w0 := st.NewWorker(0)
	// Batch rows into modest transactions to keep descriptors small.
	batch := func(rows []func(h Handle)) {
		const chunk = 64
		for i := 0; i < len(rows); i += chunk {
			end := min(i+chunk, len(rows))
			if err := w0.RunTx(func(h Handle) error {
				for _, f := range rows[i:end] {
					f(h)
				}
				return nil
			}); err != nil {
				panic("tpcc load: " + err.Error())
			}
		}
	}
	var rows []func(h Handle)
	for w := 0; w < cfg.Warehouses; w++ {
		w := w
		rows = append(rows, func(h Handle) {
			h.Insert(TWarehouse, WKey(w), &Warehouse{Tax: 5})
		})
		for d := 0; d < cfg.DistPerWh; d++ {
			d := d
			rows = append(rows, func(h Handle) {
				h.Insert(TDistrict, DKey(w, d), &District{NextOID: 1, Tax: 7})
			})
			for c := 0; c < cfg.CustPerDist; c++ {
				c := c
				rows = append(rows, func(h Handle) {
					h.Insert(TCustomer, CKey(w, d, c), &Customer{Balance: -1000})
				})
			}
		}
		for i := 0; i < cfg.StockPerWh; i++ {
			i := i
			rows = append(rows, func(h Handle) {
				h.Insert(TStock, SKey(w, i), &Stock{Quantity: 50})
			})
		}
	}
	for i := 0; i < cfg.Items; i++ {
		i := i
		rows = append(rows, func(h Handle) {
			h.Insert(TItem, IKey(i), &Item{Price: uint64(100 + i%900)})
		})
	}
	batch(rows)
}

// ErrRollback is the deliberate 1% newOrder rollback of standard TPC-C.
var ErrRollback = errors.New("tpcc: deliberate rollback")

// NewOrder runs one newOrder transaction on h.
func NewOrder(h Handle, cfg Config, rng *rand.Rand, tid int) error {
	w := rng.IntN(cfg.Warehouses)
	d := rng.IntN(cfg.DistPerWh)
	c := rng.IntN(cfg.CustPerDist)
	nLines := 5 + rng.IntN(cfg.MaxLinesPerO-5+1)

	dv, ok := h.Get(TDistrict, DKey(w, d))
	if !ok {
		return errors.New("tpcc: missing district")
	}
	dist := dv.(*District)
	oid := dist.NextOID
	h.Put(TDistrict, DKey(w, d), &District{NextOID: oid + 1, YTD: dist.YTD, Tax: dist.Tax})

	if _, ok := h.Get(TCustomer, CKey(w, d, c)); !ok {
		return errors.New("tpcc: missing customer")
	}

	var total uint64
	for l := 0; l < nLines; l++ {
		item := rng.IntN(cfg.Items)
		qty := uint64(1 + rng.IntN(10))
		iv, ok := h.Get(TItem, IKey(item))
		if !ok {
			// Standard TPC-C: 1% of newOrders reference an invalid item
			// and roll back. We model it via an out-of-range item below.
			return h.Abort()
		}
		price := iv.(*Item).Price
		// Remote warehouse 1% of the time when multiple warehouses exist.
		sw := w
		if cfg.Warehouses > 1 && rng.IntN(100) == 0 {
			sw = rng.IntN(cfg.Warehouses)
		}
		sv, ok := h.Get(TStock, SKey(sw, item))
		if !ok {
			return errors.New("tpcc: missing stock")
		}
		stock := sv.(*Stock)
		newQty := stock.Quantity - int64(qty)
		if newQty < 10 {
			newQty += 91
		}
		h.Put(TStock, SKey(sw, item), &Stock{
			Quantity: newQty,
			YTD:      stock.YTD + qty,
			OrderCnt: stock.OrderCnt + 1,
		})
		amount := qty * price
		total += amount
		h.Insert(TOrderLine, OLKey(w, d, oid, l), &OrderLine{IID: uint64(item), Qty: qty, Amount: amount})
	}
	h.Insert(TOrder, OKey(w, d, oid), &Order{CID: uint64(c), OLCnt: uint64(nLines)})
	h.Insert(TNewOrder, OKey(w, d, oid), &NewOrderRow{})
	// 1% deliberate rollback.
	if rng.IntN(100) == 0 {
		return h.Abort()
	}
	_ = total
	return nil
}

// PaymentArgs are one payment transaction's pre-drawn inputs. Unlike
// newOrder — which draws its items inside the body and so can only be
// discovered — payment's whole key set (warehouse, district, customer,
// history) is fixed by these draws before the transaction starts, which is
// what lets the driver hint it to the Medley family's latches.
type PaymentArgs struct {
	W, D, C int
	// CW, CD are the customer's warehouse/district (15% remote).
	CW, CD  int
	Amount  uint64
	HistKey uint64
}

// DrawPayment samples one payment's inputs and advances the per-worker
// history sequence. The draws match Payment's: uniform warehouse, district
// and customer; 15% remote customer when multiple warehouses exist.
func DrawPayment(cfg Config, rng *rand.Rand, tid int, seq *uint64) PaymentArgs {
	a := PaymentArgs{
		W:      rng.IntN(cfg.Warehouses),
		D:      rng.IntN(cfg.DistPerWh),
		C:      rng.IntN(cfg.CustPerDist),
		Amount: uint64(100 + rng.IntN(4900)),
	}
	a.CW, a.CD = a.W, a.D
	if cfg.Warehouses > 1 && rng.IntN(100) < 15 {
		a.CW = rng.IntN(cfg.Warehouses)
		a.CD = rng.IntN(cfg.DistPerWh)
	}
	*seq++
	a.HistKey = HKey(tid, *seq)
	return a
}

// Keys appends the four row keys the payment will touch to dst. Keys from
// different tables can collide numerically; for footprint purposes that is
// benign — a latch collision only over-serializes.
func (a PaymentArgs) Keys(dst []uint64) []uint64 {
	return append(dst, WKey(a.W), DKey(a.W, a.D), CKey(a.CW, a.CD, a.C), a.HistKey)
}

// Payment runs one payment transaction on h, drawing its inputs inline.
// seq supplies a unique history key sequence per worker. The driver's
// measured loop instead draws via DrawPayment and hints the keys; this
// wrapper keeps the draw-inside shape for tests and unhinted callers.
func Payment(h Handle, cfg Config, rng *rand.Rand, tid int, seq *uint64) error {
	return PaymentWith(h, DrawPayment(cfg, rng, tid, seq))
}

// PaymentWith runs one payment transaction on h with pre-drawn inputs.
func PaymentWith(h Handle, a PaymentArgs) error {
	wv, ok := h.Get(TWarehouse, WKey(a.W))
	if !ok {
		return errors.New("tpcc: missing warehouse")
	}
	wh := wv.(*Warehouse)
	h.Put(TWarehouse, WKey(a.W), &Warehouse{YTD: wh.YTD + a.Amount, Tax: wh.Tax})

	dv, ok := h.Get(TDistrict, DKey(a.W, a.D))
	if !ok {
		return errors.New("tpcc: missing district")
	}
	dist := dv.(*District)
	h.Put(TDistrict, DKey(a.W, a.D), &District{NextOID: dist.NextOID, YTD: dist.YTD + a.Amount, Tax: dist.Tax})

	cv, ok := h.Get(TCustomer, CKey(a.CW, a.CD, a.C))
	if !ok {
		return errors.New("tpcc: missing customer")
	}
	cust := cv.(*Customer)
	h.Put(TCustomer, CKey(a.CW, a.CD, a.C), &Customer{
		Balance:    cust.Balance - int64(a.Amount),
		YTDPayment: cust.YTDPayment + a.Amount,
		PaymentCnt: cust.PaymentCnt + 1,
	})
	h.Insert(THistory, a.HistKey, &History{Amount: a.Amount})
	return nil
}
