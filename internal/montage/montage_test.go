package montage

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"medley/internal/core"
	"medley/internal/pnvm"
)

// testSys is a domain over one zero-latency device, attached to a fresh
// manager.
func testSys() (*Domain, *core.TxManager) {
	d := NewDomain(pnvm.New(pnvm.Latencies{}))
	mgr := core.NewTxManager()
	d.Attach(mgr)
	return d, mgr
}

func TestBasicMapOps(t *testing.T) {
	d, mgr := testSys()
	m := NewSkipMap(d, Uint64Codec())
	s := mgr.Session()
	if _, ok := m.Get(s, 1); ok {
		t.Fatal("empty map had key")
	}
	m.Put(s, 1, 10)
	if v, ok := m.Get(s, 1); !ok || v != 10 {
		t.Fatalf("Get = %d,%v", v, ok)
	}
	old, replaced := m.Put(s, 1, 11)
	if !replaced || old != 10 {
		t.Fatalf("Put = %d,%v", old, replaced)
	}
	if v, ok := m.Remove(s, 1); !ok || v != 11 {
		t.Fatalf("Remove = %d,%v", v, ok)
	}
	if _, ok := m.Get(s, 1); ok {
		t.Fatal("present after remove")
	}
}

func TestTransactionalAtomicity(t *testing.T) {
	d, mgr := testSys()
	m1 := NewHashMap(d, Uint64Codec(), 64)
	m2 := NewSkipMap(d, Uint64Codec())
	s := mgr.Session()
	m1.Put(s, 1, 100)

	err := s.Run(func() error {
		v, ok := m1.Get(s, 1)
		if !ok {
			return core.ErrTxAborted
		}
		m1.Put(s, 1, v-30)
		m2.Put(s, 2, 30)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	v1, _ := m1.Get(s, 1)
	v2, _ := m2.Get(s, 2)
	if v1 != 70 || v2 != 30 {
		t.Fatalf("balances = %d,%d", v1, v2)
	}
}

func TestAbortUndoesPayloads(t *testing.T) {
	d, mgr := testSys()
	m := NewSkipMap(d, Uint64Codec())
	s := mgr.Session()
	m.Put(s, 1, 10)
	before := d.Devices()[0].Live()

	s.TxBegin()
	m.Put(s, 2, 20) // creates payload
	m.Remove(s, 1)  // retires payload
	s.TxAbort()

	if got := d.Devices()[0].Live(); got != before {
		t.Fatalf("payload count after abort = %d, want %d", got, before)
	}
	if v, ok := m.Get(s, 1); !ok || v != 10 {
		t.Fatalf("aborted remove took effect: %d,%v", v, ok)
	}
	if _, ok := m.Get(s, 2); ok {
		t.Fatal("aborted insert visible")
	}
}

func TestEpochValidatorAbortsCrossEpochTx(t *testing.T) {
	d, mgr := testSys()
	m := NewSkipMap(d, Uint64Codec())
	s := mgr.Session()

	s.TxBegin()
	m.Put(s, 1, 10)
	// The epoch advances while the transaction is in flight. Advance only
	// waits for transactions pinned to the epoch being flushed (two back),
	// so it must not block on this current-epoch transaction.
	done := make(chan struct{})
	go func() { d.Advance(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Advance blocked on a current-epoch transaction")
	}
	if err := s.TxEnd(); !errors.Is(err, core.ErrTxAborted) {
		t.Fatalf("TxEnd = %v, want abort (epoch moved)", err)
	}
	if _, ok := m.Get(s, 1); ok {
		t.Fatal("cross-epoch tx committed")
	}
}

func TestCrashRecoveryDurableState(t *testing.T) {
	dev := pnvm.New(pnvm.Latencies{})
	d := NewDomain(dev)
	mgr := core.NewTxManager()
	d.Attach(mgr)
	m := NewSkipMap(d, Uint64Codec())
	s := mgr.Session()

	for k := uint64(0); k < 100; k++ {
		m.Put(s, k, k*2)
	}
	d.Sync() // make everything durable
	// Post-sync updates that will be lost (not yet flushed).
	m.Put(s, 5, 999)
	m.Remove(s, 6)
	m.Put(s, 200, 1)

	d2 := NewDomain(dev)
	rec, err := d2.Recover(pnvm.DumpAll([]*pnvm.Device{dev}))
	if err != nil {
		t.Fatal(err)
	}
	m2 := NewSkipMap(d2, Uint64Codec())
	m2.Rebuild(rec.Live[0])
	chk := core.NewTxManager().Session()
	// The fresh clock restarts past the cut: a new transaction must never
	// share an epoch number with a pre-crash batch still on media.
	if d2.Current() < rec.Cut+2 {
		t.Fatalf("clock resumed at epoch %d, want at least cut %d + 2", d2.Current(), rec.Cut)
	}

	// The synced prefix must be intact…
	for k := uint64(0); k < 100; k++ {
		v, ok := m2.Get(chk, k)
		if !ok || v != k*2 {
			t.Fatalf("recovered Get(%d) = %d,%v want %d", k, v, ok, k*2)
		}
	}
	// …and the unflushed suffix lost (buffered durability).
	if _, ok := m2.Get(chk, 200); ok {
		t.Fatal("unflushed insert survived crash")
	}
	if v, _ := m2.Get(chk, 5); v == 999 {
		t.Fatal("unflushed update survived crash")
	}
	if _, ok := m2.Get(chk, 6); !ok {
		t.Fatal("unflushed remove took effect across crash")
	}
}

// Failure atomicity: a transaction writing to two maps is recovered all or
// nothing, never split (the epoch check guarantees both payloads carry the
// same epoch).
func TestFailureAtomicityAcrossCrash(t *testing.T) {
	for trial := 0; trial < 5; trial++ {
		dev := pnvm.New(pnvm.Latencies{})
		d := NewDomain(dev)
		mgr := core.NewTxManager()
		d.Attach(mgr)
		ma := NewSkipMap(d, Uint64Codec())
		mb := NewSkipMap(d, Uint64Codec())

		var wg sync.WaitGroup
		stop := make(chan struct{})
		advDone := make(chan struct{})
		// Background advancer racing with transactions.
		go func() {
			defer close(advDone)
			for {
				select {
				case <-stop:
					return
				default:
					d.Advance()
					time.Sleep(200 * time.Microsecond)
				}
			}
		}()
		// Writers: tx i writes (i, i) to both maps atomically. The two maps
		// share the device's raw key space, so mb keeps its keys disjoint
		// from ma's (recovery merges same-key records, newest wins).
		const writers = 4
		const perWriter = 200
		const mbBase = uint64(1) << 32
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				s := mgr.Session()
				for i := 0; i < perWriter; i++ {
					k := uint64(w*perWriter + i)
					_ = s.Run(func() error {
						ma.Put(s, k, k)
						mb.Put(s, mbBase+k, k)
						return nil
					})
				}
			}(w)
		}
		wg.Wait()
		close(stop)
		<-advDone

		devs := []*pnvm.Device{dev}
		rec, err := pnvm.RecoverDomain(devs, pnvm.DumpAll(devs))
		if err != nil {
			t.Fatal(err)
		}
		// Each transaction wrote one payload per map, in the same epoch.
		// Failure atomicity means a key either survives in both maps (2
		// live payloads) or in neither (0) — never 1.
		count := map[uint64]int{}
		for _, r := range rec.Live[0] {
			count[r.Key%mbBase]++
		}
		for k, c := range count {
			if c != 2 {
				t.Fatalf("trial %d: key %d has %d live payloads; tx recovered partially", trial, k, c)
			}
		}
	}
}

// twoDevices builds a domain of two devices with a map over them, its
// manager attached, and returns a key routed to each device.
func twoDevices(lat pnvm.Latencies) (d *Domain, m *Map[uint64], s *core.Session, keys [2]uint64) {
	d = NewDomain(pnvm.New(lat), pnvm.New(lat))
	mgr := core.NewTxManager()
	d.Attach(mgr)
	return d, NewHashMap(d, Uint64Codec(), 64), mgr.Session(), keyPerDevice()
}

// keyPerDevice returns the first key routed to each of two devices.
func keyPerDevice() [2]uint64 { return [2]uint64(keysOn(2, 0)) }

// keysOn returns, for each of n devices, the first key from base up routed to
// it.
func keysOn(n int, base uint64) []uint64 {
	keys, left := make([]uint64, n), n
	found := make([]bool, n)
	for k := base; left > 0; k++ {
		if i := DeviceOf(k, n); !found[i] {
			keys[i], found[i], left = k, true, left-1
		}
	}
	return keys
}

// An aborted transaction leaves the devices as it found them: the payload
// its overwrite created is deleted, and neither the payload that overwrite
// superseded nor the one its remove took is marked retired, so no flush
// frees them and recovery finds both keys at their old values.
func TestAbortLeavesTheDevicesAsTheyWere(t *testing.T) {
	d, m, s, keys := twoDevices(pnvm.Latencies{})
	devs := d.Devices()
	m.Put(s, keys[0], 1)
	m.Put(s, keys[1], 2)
	d.Sync()
	live := []int{devs[0].Live(), devs[1].Live()}

	s.TxBegin()
	m.Put(s, keys[0], 10)
	m.Remove(s, keys[1])
	s.TxAbort()
	d.Sync() // flushes and frees anything the abort retired

	for i, dev := range devs {
		if got := dev.Live(); got != live[i] {
			t.Errorf("device %d holds %d records after the abort and a sync, want %d as before", i, got, live[i])
		}
	}
	kv, _ := recoverKV(t, devs)
	if v, ok := kv[0][keys[0]]; !ok || v != 1 {
		t.Errorf("recovered key %d = %d,%v, want 1", keys[0], v, ok)
	}
	if v, ok := kv[1][keys[1]]; !ok || v != 2 {
		t.Errorf("recovered key %d = %d,%v, want 2", keys[1], v, ok)
	}
}

// A committed remove's payloads join the batch of the transaction's own epoch,
// whose flush marks them retired: the layer's End hands them over before it
// releases the pin, and the advance that flushes the epoch waits for the pin.
// Here that advance is already waiting when the transaction commits (its
// cleanup starts it), so payloads handed over after the pin was released, or
// to the batch of an epoch other than the pinned one, would miss the flush,
// and the crash that follows would find the keys live at the cut of the epoch
// that removed them.
func TestCommittedRemoveIsDurableAtItsEpoch(t *testing.T) {
	d, m, s, keys := twoDevices(pnvm.Latencies{})
	devs := d.Devices()
	m.Put(s, keys[0], 1)
	m.Put(s, keys[1], 2)
	d.Sync()

	e := d.Current()
	flushed := make(chan struct{})
	s.TxBegin()
	m.Remove(s, keys[0])
	m.Remove(s, keys[1])
	s.AddToCleanups(core.Func(func() {
		// Committed, the payloads not yet handed over. This advance flushes e-1
		// and waits for no pin below e; the next flushes e once no session
		// is pinned below e+1, which this one is until its End is done.
		d.Advance()
		go func() {
			d.Advance()
			close(flushed)
		}()
		for d.Current() != e+2 { // ticked: it waits for the pin
			runtime.Gosched()
		}
	}), nil, nil)
	if err := s.TxEnd(); err != nil {
		t.Fatal(err)
	}
	<-flushed

	kv, cut := recoverKV(t, devs)
	if cut != e {
		t.Fatalf("recovered at cut %d, want the remove's epoch %d", cut, e)
	}
	for i, k := range keys {
		if v, ok := kv[i][k]; ok {
			t.Errorf("key %d recovered = %d at the cut of the epoch that removed it", k, v)
		}
	}
}

// A Map written under a manager that Attach never saw would tag each payload
// with whatever epoch is current, and nothing would hold a transaction to
// one epoch. Every write path refuses, before it writes a payload, and says
// what is missing.
func TestUnattachedManagerPanics(t *testing.T) {
	dev := pnvm.New(pnvm.Latencies{})
	m := NewSkipMap(NewDomain(dev), Uint64Codec())
	mgr := core.NewTxManager()
	for _, c := range []struct {
		name  string
		inTx  bool
		write func(s *core.Session)
	}{
		{"Put", true, func(s *core.Session) { m.Put(s, 1, 1) }},
		{"Insert", true, func(s *core.Session) { m.Insert(s, 1, 1) }},
		{"Remove", true, func(s *core.Session) { m.Remove(s, 1) }},
		{"standalone Put", false, func(s *core.Session) { m.Put(s, 1, 1) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := mgr.Session() // a fresh one: the panic leaves its transaction open
			if c.inTx {
				s.TxBegin()
			}
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "montage.Attach") {
					t.Fatalf("panic %q, want one that names montage.Attach", msg)
				}
				if got := dev.Live(); got != 0 {
					t.Fatalf("device holds %d records after the refused write", got)
				}
			}()
			c.write(s)
		})
	}
}
