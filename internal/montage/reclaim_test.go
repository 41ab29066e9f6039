package montage

import (
	"testing"

	"medley/internal/chaos"
	"medley/internal/core"
	"medley/internal/pnvm"
)

// recoverKV crashes the devices and returns, per device, the key→value
// bindings recovery finds live, and the cut.
func recoverKV(t *testing.T, devs []*pnvm.Device) (kv []map[uint64]uint64, cut uint64) {
	t.Helper()
	rec, err := pnvm.RecoverDomain(devs, pnvm.DumpAll(devs))
	if err != nil {
		t.Fatal(err)
	}
	kv = make([]map[uint64]uint64, len(devs))
	for i, live := range rec.Live {
		kv[i] = map[uint64]uint64{}
		for _, r := range live {
			kv[i][r.Key] = Uint64Codec().Dec(r.Val)
		}
	}
	return kv, rec.Cut
}

// A record created in epoch e and retired in e+1 is written back with batch e,
// which makes its e+1 mark durable while the cut is still e. Freeing it then
// loses the key: its successor lies beyond the cut.
func TestReclaimWaitsForTheRetireEpoch(t *testing.T) {
	es, mgr := testSys()
	m := NewSkipMap([]*EpochSys{es}, Uint64Codec())
	s := mgr.Session()
	e := es.Current()
	m.Put(s, 1, 10) // created in e
	es.Advance()
	m.Put(s, 1, 11) // retires it in e+1
	es.Advance()    // flushes e
	if got := es.Device().Live(); got != 3 {
		t.Fatalf("device holds %d records after flushing the creation epoch, want both versions and a marker", got)
	}
	kv, cut := recoverKV(t, []*pnvm.Device{es.Device()})
	if cut != e || kv[0][1] != 10 {
		t.Fatalf("recovered %v at cut %d, want key 1 = 10 at cut %d", kv[0], cut, e)
	}
}

// The same record one advance later: e+1 is flushed, the mark is at the cut,
// and the record is gone from media before any recovery has to scrub it.
func TestReclaimFreesAtTheRetireEpoch(t *testing.T) {
	es, mgr := testSys()
	m := NewSkipMap([]*EpochSys{es}, Uint64Codec())
	s := mgr.Session()
	m.Put(s, 1, 10)
	es.Advance()
	m.Put(s, 1, 11)
	es.Sync()
	if got := es.Device().Live(); got != 2 {
		t.Fatalf("device holds %d records after the retire epoch was flushed, want one version and a marker", got)
	}
	if kv, _ := recoverKV(t, []*pnvm.Device{es.Device()}); kv[0][1] != 11 {
		t.Fatalf("recovered %v, want key 1 = 11", kv[0])
	}
}

// A crash between two shards' flushes of epoch e cuts the domain at e-1,
// where everything retired in e is live — also on the shard whose marker for
// e is already durable. Nothing may have been freed there.
func TestReclaimWaitsForTheWholeDomain(t *testing.T) {
	t.Cleanup(chaos.DisarmAll)
	clock := NewEpochClock()
	devs := []*pnvm.Device{pnvm.New(pnvm.Latencies{}), pnvm.New(pnvm.Latencies{})}
	systems := []*EpochSys{NewEpochSysShared(devs[0], clock), NewEpochSysShared(devs[1], clock)}
	var maps []*Map[uint64]
	var sess []*core.Session
	for _, es := range systems {
		mgr := core.NewTxManager()
		Attach(mgr, es)
		maps = append(maps, NewSkipMap([]*EpochSys{es}, Uint64Codec()))
		sess = append(sess, mgr.Session())
	}
	for i, m := range maps {
		m.Put(sess[i], uint64(i), 10)
	}
	SyncTogether(clock, systems)
	e := clock.Current()
	for i, m := range maps {
		m.Put(sess[i], uint64(i), 11) // retires both first versions in e
	}
	AdvanceTogether(clock, systems) // flushes e-1

	err := chaos.Arm("txmontage.advance.mid-shard", chaos.Fault{Kind: chaos.Crash, Action: func() {
		if got := devs[0].Live(); got != 3 {
			t.Errorf("shard 0 holds %d records after its own flush of epoch %d, want both versions and a marker", got, e)
		}
		for _, d := range devs {
			d.Crash()
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if _, ok := chaos.AsCrash(recover()); !ok {
				t.Fatal("the advance that flushes the retire epoch did not crash between the shards")
			}
		}()
		AdvanceTogether(clock, systems)
	}()
	chaos.DisarmAll()
	kv, cut := recoverKV(t, devs)
	if cut != e-1 || kv[0][0] != 10 || kv[1][1] != 10 {
		t.Fatalf("recovered %v at cut %d, want both keys = 10 at cut %d", kv, cut, e-1)
	}
}

// The device's footprint is the live keys plus what the last two epochs
// retired: an epoch's retirees leave with the advance that flushes it.
func TestReclaimBoundsTheDevice(t *testing.T) {
	const keys, rounds = 20, 50
	es, mgr := testSys()
	m := NewHashMap([]*EpochSys{es}, Uint64Codec(), keys)
	s := mgr.Session()
	for round := uint64(0); round < rounds; round++ {
		for k := uint64(0); k < keys; k++ {
			m.Put(s, k, round)
		}
		es.Advance()
		if got, most := es.Device().Live(), keys+2*keys+1; got > most {
			t.Fatalf("round %d: device holds %d records, want at most %d keys + %d retired in two epochs + 1 marker", round, got, keys, 2*keys)
		}
	}
	es.Sync()
	if got := es.Device().Live(); got != keys+1 {
		t.Fatalf("device holds %d records after Sync, want exactly %d keys + 1 marker", got, keys)
	}
	kv, _ := recoverKV(t, []*pnvm.Device{es.Device()})
	for k := uint64(0); k < keys; k++ {
		if v, ok := kv[0][k]; !ok || v != rounds-1 {
			t.Fatalf("recovered key %d = %d,%v, want %d", k, v, ok, rounds-1)
		}
	}
}

// An aborted transaction's payload is deleted at once (UnNew) but its id stays
// in the epoch's batch, and by the time the batch is flushed the slot it named
// belongs to another record: here one that committed and was overwritten in
// the same epoch, so that a write-back through the stale id would find a
// durably retired record, queue the stale id as dead, and the reclaim would
// free a slot twice. The flush must skip those ids.
func TestFlushSkipsAbortedPayloads(t *testing.T) {
	const keys = 128 // two laps of the device's 64 shards
	es, mgr := testSys()
	m := NewHashMap([]*EpochSys{es}, Uint64Codec(), keys)
	s := mgr.Session()
	for k := uint64(0); k < keys; k++ {
		s.TxBegin()
		m.Put(s, 1000+k, 1)
		s.TxAbort()
	}
	if got := es.Device().Live(); got != 0 {
		t.Fatalf("device holds %d records after %d aborted puts", got, keys)
	}
	for k := uint64(0); k < keys; k++ {
		m.Put(s, k, 1)
		m.Put(s, k, 10+k)
	}
	es.Sync()
	if got := es.Device().Live(); got != keys+1 {
		t.Fatalf("device holds %d records after Sync, want exactly %d keys + 1 marker", got, keys)
	}
	kv, _ := recoverKV(t, []*pnvm.Device{es.Device()})
	if len(kv[0]) != keys {
		t.Fatalf("recovered %d keys, want %d", len(kv[0]), keys)
	}
	for k := uint64(0); k < keys; k++ {
		if v, ok := kv[0][k]; !ok || v != 10+k {
			t.Fatalf("recovered key %d = %d,%v, want %d", k, v, ok, 10+k)
		}
	}
	if got := es.Device().Live(); got != keys+1 {
		t.Fatalf("device holds %d records after recovery, want exactly %d keys + 1 marker", got, keys)
	}
}
