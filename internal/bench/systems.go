package bench

import (
	"fmt"
	"time"

	"medley/internal/pnvm"
	"medley/internal/txengine"
)

// Options configures engine construction for benchmarked systems. The zero
// value is a transient engine with free NVM timing.
type Options struct {
	// Latencies drives the simulated NVM device of persistent engines.
	Latencies pnvm.Latencies
	// EpochLen is txMontage's persistence epoch length (0: advancer off).
	EpochLen time.Duration
	// Shards is txmontage's device count (0: one device); other engines
	// ignore it. It passes through to txengine.Config.Shards.
	Shards int
}

// NewSystem builds the named engine from the txengine registry and wraps it
// as a benchmark System over one transactional uint64 map of the given
// kind, sized for wl (hash buckets track the keyspace, as in the paper's
// 1M-bucket table; TDSL stripes scale with keyspace to keep partitions
// skiplist-shaped).
func NewSystem(engine string, kind txengine.MapKind, wl Workload, opt Options) (System, error) {
	b, ok := txengine.Lookup(engine)
	if !ok {
		return nil, fmt.Errorf("bench: unknown engine %q", engine)
	}
	switch kind {
	case txengine.KindHash:
		if !b.Caps.Has(txengine.CapHashMap) {
			return nil, fmt.Errorf("bench: engine %q has no hash map: %w", engine, txengine.ErrUnsupported)
		}
	case txengine.KindSkip:
		if !b.Caps.Has(txengine.CapSkipMap) {
			return nil, fmt.Errorf("bench: engine %q has no skiplist: %w", engine, txengine.ErrUnsupported)
		}
	}
	eng, err := b.New(txengine.Config{Latencies: opt.Latencies, EpochLen: opt.EpochLen, Shards: opt.Shards})
	if err != nil {
		return nil, err
	}
	stripes := int(wl.KeySpace / 64)
	if stripes < 8 {
		stripes = 8
	}
	m, err := eng.NewUintMap(txengine.MapSpec{Kind: kind, Buckets: int(wl.KeySpace), Stripes: stripes})
	if err != nil {
		eng.Close()
		return nil, err
	}
	return &engineSystem{
		name: eng.Name() + "-" + kind.String(),
		eng:  eng,
		m:    m,
	}, nil
}

// TxSystemsFor returns the registry keys of every engine that can run
// transactions over a map of the given kind — the default series of the
// throughput figures.
func TxSystemsFor(kind txengine.MapKind) []string {
	var out []string
	need := txengine.CapTx | txengine.CapHashMap
	if kind == txengine.KindSkip {
		need = txengine.CapTx | txengine.CapSkipMap
	}
	for _, b := range txengine.Builders() {
		if b.Caps.Has(need) {
			out = append(out, b.Key)
		}
	}
	return out
}

// engineSystem is the one benchmark adapter: any registered engine, driven
// through its Tx handles over a single transactional map.
type engineSystem struct {
	name string
	eng  txengine.Engine
	m    txengine.Map[uint64]
}

func (b *engineSystem) Name() string          { return b.name }
func (b *engineSystem) Stats() txengine.Stats { return b.eng.Stats() }
func (b *engineSystem) Close()                { b.eng.Close() }

func (b *engineSystem) Preload(wl Workload) {
	w := b.eng.NewWorker(-1)
	step := wl.KeySpace / uint64(wl.Preload)
	if !b.eng.Caps().Has(txengine.CapTx) {
		w.NoTx(func() {
			for i := 0; i < wl.Preload; i++ {
				k := uint64(i) * step
				b.m.Put(w, k, k+1)
			}
		})
		return
	}
	// Batch into modest transactions to keep descriptors and static op
	// lists small.
	const chunk = 256
	for i := 0; i < wl.Preload; i += chunk {
		end := min(i+chunk, wl.Preload)
		if err := w.Run(func() error {
			for j := i; j < end; j++ {
				k := uint64(j) * step
				b.m.Put(w, k, k+1)
			}
			return nil
		}); err != nil {
			panic("bench preload: " + err.Error())
		}
	}
}

func (b *engineSystem) NewWorker(tid int) Worker {
	return &engineWorker{m: b.m, tx: b.eng.NewWorker(tid)}
}

type engineWorker struct {
	m  txengine.Map[uint64]
	tx txengine.Tx
}

func (w *engineWorker) apply(ops []Op) {
	for _, op := range ops {
		switch op.Kind {
		case Get:
			w.m.Get(w.tx, op.Key)
		case Insert:
			w.m.Insert(w.tx, op.Key, op.Val)
		case Remove:
			w.m.Remove(w.tx, op.Key)
		}
	}
}

func (w *engineWorker) RunTx(ops []Op) {
	readOnly := true
	for _, op := range ops {
		if op.Kind != Get {
			readOnly = false
			break
		}
	}
	if readOnly {
		w.tx.RunRead(func() { w.apply(ops) })
		return
	}
	_ = w.tx.Run(func() error { w.apply(ops); return nil })
}

func (w *engineWorker) RunOpsNoTx(ops []Op) {
	w.tx.NoTx(func() { w.apply(ops) })
}
