package txengine

import "testing"

// What one committed overwrite and the Sync that makes it durable cost on the
// simulated device, as exact counts — the media twin of core's allocation
// budgets. Nothing here depends on timing: the engines run without a
// background advancer, one worker, one key.
//
// txmontage, buffered: the transaction stores the new payload, and the flush
// of its epoch stores the old payload's retire mark (2 writes). Sync is two
// advances, and each flush ends in a frontier marker: write, write-back, and a
// fence either side of it (2 writes, 2 write-backs, 4 fences). Of the two
// batches only the second holds anything: the new payload and the retired one
// (2 write-backs).
//
// ponefile, eager: the commit stores and writes back the new payload and the
// old one's retire mark (2 + 2), fences, then the commit record (1 + 1) and
// its fence; Sync has nothing left to do.
//
// Both drop the retired payload once its retire mark is inside the cut —
// montage in the advance that flushes the retire epoch, POneFile after its
// commit record — and a drop is not a media operation: the device ends at one
// key and one marker on the same counts a device that kept the payload has.
func TestDeviceBudgetCommittedOverwrite(t *testing.T) {
	for _, c := range []struct {
		engine                     string
		writes, writeBacks, fences uint64
	}{
		{"txmontage", 2 + 2, 2 + 2, 4},
		{"ponefile", 2 + 1, 2 + 1, 2},
	} {
		eng, err := Build(c.engine, Config{})
		if err != nil {
			t.Fatal(err)
		}
		m, err := eng.NewUintMap(MapSpec{Kind: KindHash, Buckets: 16})
		if err != nil {
			t.Fatal(err)
		}
		p, tx := eng.(Persister), eng.NewWorker(0)
		dev := p.Devices()[0]
		put := func(v uint64) {
			if err := tx.Run(func() error { m.Put(tx, 7, v); return nil }); err != nil {
				t.Fatal(err)
			}
			p.Sync()
		}
		put(1)
		w0, wb0, f0 := dev.Stats()
		put(2)
		w, wb, f := dev.Stats()
		if w-w0 != c.writes || wb-wb0 != c.writeBacks || f-f0 != c.fences {
			t.Errorf("%s: an overwrite + Sync cost %d writes, %d write-backs, %d fences; budget exactly %d, %d, %d",
				c.engine, w-w0, wb-wb0, f-f0, c.writes, c.writeBacks, c.fences)
		}
		if got := dev.Live(); got != 2 {
			t.Errorf("%s: device holds %d records after the overwrite is durable, want one key and one marker", c.engine, got)
		}
		eng.Close()
	}
}
