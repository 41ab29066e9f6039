package txengine

// The OCC-read vs snapshot-read microbenchmark pair: the same 95/5
// read/write mix over the same hot keyspace on medley-sharded, with read
// probes served either as OCC read-only transactions (RunRead — validated,
// abortable) or as MVCC snapshot reads (SnapshotRead — validation-free,
// never aborting). The delta is what read validation and retry risk cost a
// read-mostly workload; README "MVCC snapshot reads" quotes the pair.

import (
	"math/rand/v2"
	"sync/atomic"
	"testing"
)

const (
	benchSnapKeys    = 512
	benchSnapReadPct = 95
)

func benchSnapEngine(b *testing.B) (Engine, Map[uint64]) {
	b.Helper()
	eng, err := Build("medley-sharded", Config{Shards: 4})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(eng.Close)
	m, err := eng.NewUintMap(MapSpec{Kind: KindHash, Buckets: 1 << 10})
	if err != nil {
		b.Fatal(err)
	}
	tx := eng.NewWorker(0)
	for lo := uint64(0); lo < benchSnapKeys; lo += 128 {
		lo := lo
		if err := tx.Run(func() error {
			for k := lo; k < lo+128; k++ {
				m.Put(tx, k, k)
			}
			return nil
		}); err != nil {
			b.Fatal(err)
		}
	}
	return eng, m
}

func benchReadMostly(b *testing.B, snapshot bool) {
	eng, m := benchSnapEngine(b)
	if snapshot && !eng.Caps().Has(CapSnapshot) {
		b.Fatal("engine lost CapSnapshot")
	}
	var tids atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		tid := int(tids.Add(1))
		tx := eng.NewWorker(tid)
		rng := rand.New(rand.NewPCG(42, uint64(tid)))
		var sink uint64
		for pb.Next() {
			k := rng.Uint64N(benchSnapKeys)
			if rng.IntN(100) < benchSnapReadPct {
				probe := func() { sink, _ = m.Get(tx, k) }
				if snapshot {
					SnapshotRead(tx, probe)
				} else {
					tx.RunRead(probe)
				}
				continue
			}
			_ = tx.Run(func() error {
				v, _ := m.Get(tx, k)
				m.Put(tx, k, v+1)
				return nil
			})
		}
		_ = sink
	})
}

// BenchmarkReadMostlyOCC is the control: read probes as validated OCC
// read-only transactions.
func BenchmarkReadMostlyOCC(b *testing.B) {
	benchReadMostly(b, false)
}

// BenchmarkReadMostlySnapshot is the same mix with validation-free MVCC
// snapshot probes.
func BenchmarkReadMostlySnapshot(b *testing.B) {
	benchReadMostly(b, true)
}
