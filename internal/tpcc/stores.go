package tpcc

import (
	"errors"
	"fmt"
	"time"

	"medley/internal/montage"
	"medley/internal/pnvm"
	"medley/internal/txengine"
)

// StoreOptions configures engine construction for TPC-C stores. The zero
// value is a transient engine with free NVM timing.
type StoreOptions struct {
	// Latencies drives the simulated NVM device of persistent engines.
	Latencies pnvm.Latencies
	// EpochLen is txMontage's persistence epoch length (0: advancer off).
	EpochLen time.Duration
	// Shards is txmontage's device count (0: one device); other engines
	// ignore it. It passes through to txengine.Config.Shards.
	Shards int
}

// Engines returns the registry keys of every engine that can run TPC-C
// (dynamic transactions over row maps), in registration order.
func Engines() []string {
	var out []string
	for _, b := range txengine.Builders() {
		if b.Caps.Has(txengine.CapDynamicTx | txengine.CapRowMaps) {
			out = append(out, b.Key)
		}
	}
	return out
}

// DefaultEngines returns the default TPC-C series: every capable engine
// not marked Slow in the registry (ponefile's eager persistence is
// impractical at benchmark durations; it still runs when named explicitly).
func DefaultEngines() []string {
	var out []string
	for _, name := range Engines() {
		if b, ok := txengine.Lookup(name); ok && !b.Slow {
			out = append(out, name)
		}
	}
	return out
}

// CanRun reports whether the named engine can run TPC-C: it must exist and
// support dynamic transactions over row maps. TPC-C branches on values read
// inside the transaction, which is why LFTT (static transactions) cannot
// run it, as the paper notes.
func CanRun(engine string) error {
	b, ok := txengine.Lookup(engine)
	if !ok {
		return fmt.Errorf("tpcc: unknown engine %q", engine)
	}
	if !b.Caps.Has(txengine.CapDynamicTx | txengine.CapRowMaps) {
		return fmt.Errorf("tpcc: engine %q cannot run TPC-C (needs dynamic transactions over row maps): %w",
			engine, txengine.ErrUnsupported)
	}
	return nil
}

// NewStore builds the named engine from the txengine registry and lays the
// TPC-C tables over its transactional row maps (see CanRun for which
// engines qualify). Tables prefer the skiplist shape (the paper's
// representation); engines without one (Boost) fall back to hash tables.
func NewStore(engine string, opt StoreOptions) (Store, error) {
	if err := CanRun(engine); err != nil {
		return nil, err
	}
	b, _ := txengine.Lookup(engine)
	eng, err := b.New(txengine.Config{
		Latencies: opt.Latencies,
		EpochLen:  opt.EpochLen,
		RowCodec:  rowCodec(),
		Shards:    opt.Shards,
	})
	if err != nil {
		return nil, err
	}
	spec := txengine.MapSpec{Kind: txengine.KindSkip, Stripes: 512}
	if !b.Caps.Has(txengine.CapSkipMap) {
		spec = txengine.MapSpec{Kind: txengine.KindHash, Buckets: 1 << 14}
	}
	st := &engineStore{eng: eng}
	for i := range st.tables {
		st.tables[i], err = eng.NewRowMap(spec)
		if err != nil {
			eng.Close()
			return nil, fmt.Errorf("tpcc: %s table %d: %w", engine, i, err)
		}
	}
	return st, nil
}

// engineStore is the one TPC-C store adapter: any row-capable engine,
// with one transactional row map per table.
type engineStore struct {
	eng    txengine.Engine
	tables [NumTables]txengine.Map[any]
}

// Name implements Store.
func (st *engineStore) Name() string { return st.eng.Name() }

// Stats implements Store.
func (st *engineStore) Stats() txengine.Stats { return st.eng.Stats() }

// Close implements Store.
func (st *engineStore) Close() { st.eng.Close() }

// NewWorker implements Store.
func (st *engineStore) NewWorker(tid int) Worker {
	return &engineWorker{st: st, tx: st.eng.NewWorker(tid)}
}

type engineWorker struct {
	st *engineStore
	tx txengine.Tx
}

// RunTx executes fn transactionally; a business abort (Handle.Abort) rolls
// the transaction back and counts as completed work.
func (w *engineWorker) RunTx(fn func(h Handle) error) error {
	err := w.tx.Run(func() error { return fn(engineHandle{w}) })
	if errors.Is(err, txengine.ErrBusinessAbort) {
		return nil // deliberate rollback: counted as completed work
	}
	return err
}

// RunTxHinted is RunTx with the key footprint declared before the
// transaction starts; txengine.HintKeys no-ops on engines without hints.
func (w *engineWorker) RunTxHinted(keys []uint64, fn func(h Handle) error) error {
	txengine.HintKeys(w.tx, keys...)
	return w.RunTx(fn)
}

type engineHandle struct {
	w *engineWorker
}

func (h engineHandle) Get(t Table, k uint64) (any, bool) {
	return h.w.st.tables[t].Get(h.w.tx, k)
}
func (h engineHandle) Put(t Table, k uint64, v any) {
	h.w.st.tables[t].Put(h.w.tx, k, v)
}
func (h engineHandle) Insert(t Table, k uint64, v any) bool {
	return h.w.st.tables[t].Insert(h.w.tx, k, v)
}
func (h engineHandle) Abort() error { return h.w.tx.Abort() }

// ------------------------------------------------------------- row codec --

// rowCodec encodes the row structs into NVM payload bytes for txMontage —
// the one engine-specific hook TPC-C supplies. Rows are small fixed shapes,
// so a one-byte tag plus little-endian fields suffices; decoding is
// exercised by recovery tests.
func rowCodec() montage.Codec[any] {
	put := func(b []byte, vs ...uint64) []byte {
		for _, v := range vs {
			for i := 0; i < 8; i++ {
				b = append(b, byte(v>>(8*i)))
			}
		}
		return b
	}
	get := func(b []byte, i int) uint64 {
		var v uint64
		for j := 0; j < 8; j++ {
			v |= uint64(b[1+i*8+j]) << (8 * j)
		}
		return v
	}
	return montage.Codec[any]{
		Enc: func(v any) []byte {
			switch r := v.(type) {
			case *Warehouse:
				return put([]byte{0}, r.YTD, r.Tax)
			case *District:
				return put([]byte{1}, r.NextOID, r.YTD, r.Tax)
			case *Customer:
				return put([]byte{2}, uint64(r.Balance), r.YTDPayment, r.PaymentCnt)
			case *Stock:
				return put([]byte{3}, uint64(r.Quantity), r.YTD, r.OrderCnt)
			case *Item:
				return put([]byte{4}, r.Price)
			case *Order:
				return put([]byte{5}, r.CID, r.OLCnt)
			case *NewOrderRow:
				return []byte{6}
			case *OrderLine:
				return put([]byte{7}, r.IID, r.Qty, r.Amount)
			case *History:
				return put([]byte{8}, r.Amount)
			}
			return nil
		},
		Dec: func(b []byte) any {
			if len(b) == 0 {
				return nil
			}
			switch b[0] {
			case 0:
				return &Warehouse{YTD: get(b, 0), Tax: get(b, 1)}
			case 1:
				return &District{NextOID: get(b, 0), YTD: get(b, 1), Tax: get(b, 2)}
			case 2:
				return &Customer{Balance: int64(get(b, 0)), YTDPayment: get(b, 1), PaymentCnt: get(b, 2)}
			case 3:
				return &Stock{Quantity: int64(get(b, 0)), YTD: get(b, 1), OrderCnt: get(b, 2)}
			case 4:
				return &Item{Price: get(b, 0)}
			case 5:
				return &Order{CID: get(b, 0), OLCnt: get(b, 1)}
			case 6:
				return &NewOrderRow{}
			case 7:
				return &OrderLine{IID: get(b, 0), Qty: get(b, 1), Amount: get(b, 2)}
			case 8:
				return &History{Amount: get(b, 0)}
			}
			return nil
		},
	}
}
