package montage

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"medley/internal/chaos"
	"medley/internal/core"
	"medley/internal/pnvm"
)

// A session stalled between Begin's clock read and its pin store, across two
// advances (the second flushes the epoch it read), goes on to pin the current
// epoch, and what it then writes, on both devices, is written back by the
// flush of the epoch it is tagged with. Without Begin's recheck it pins the
// epoch it read, whose batches a flush has already taken.
func TestBeginRechecksTheClock(t *testing.T) {
	t.Cleanup(chaos.DisarmAll)
	d, m, s, keys := twoDevices(pnvm.Latencies{})
	held, release := make(chan struct{}), make(chan struct{})
	if err := chaos.Arm("txmontage.begin", chaos.Fault{Kind: chaos.Delay, Times: 1, Action: func() {
		close(held)
		<-release
	}}); err != nil {
		t.Fatal(err)
	}
	var pinned, current []uint64 // per attempt
	done := make(chan error)
	go func() {
		done <- s.Run(func() error {
			pinned, current = append(pinned, PinnedEpoch(s)), append(current, d.Current())
			m.Put(s, keys[0], 1)
			m.Put(s, keys[1], 2)
			return nil
		})
	}()
	<-held
	read := d.Current()
	d.Advance()
	d.Advance() // flushes the epoch the session read
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	for i := range pinned {
		if pinned[i] != current[i] {
			t.Fatalf("attempt %d pinned epoch %d with the clock at %d (the session read %d before two advances)", i, pinned[i], current[i], read)
		}
	}
	e := pinned[len(pinned)-1]
	for d.Current() < e+2 {
		d.Advance()
	}
	kv, cut := recoverKV(t, d.Devices())
	if cut != e {
		t.Fatalf("recovered at cut %d, want %d: the flush of the session's epoch", cut, e)
	}
	for i, want := range []uint64{1, 2} {
		if v, ok := kv[i][keys[i]]; !ok || v != want {
			t.Errorf("device %d: key %d recovered as %d,%v at the cut of its epoch, want %d", i, keys[i], v, ok, want)
		}
	}
}

// Sessions write while advances flush their batches, on two devices: every
// write a session committed is durable after a Sync, at its last value. Under
// the race detector this is the check that a flush reads and empties a batch
// only once its session can no longer append to it.
func TestSessionBatchesFlushUnderTicks(t *testing.T) {
	const sessions, rounds = 4, 200
	d := NewDomain(pnvm.New(pnvm.Latencies{}), pnvm.New(pnvm.Latencies{}))
	mgr := core.NewTxManager()
	d.Attach(mgr)
	m := NewHashMap(d, Uint64Codec(), 64)
	stop, ticked := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(ticked)
		for {
			select {
			case <-stop:
				return
			default:
				d.Advance()
			}
		}
	}()
	var wg sync.WaitGroup
	for w := range sessions {
		s := mgr.Session()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range uint64(rounds) {
				k := uint64(w)*rounds + r%16
				if err := s.Run(func() error { m.Put(s, k, r); return nil }); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-ticked
	d.Sync()
	kv, _ := recoverKV(t, d.Devices())
	for w := range uint64(sessions) {
		for r := uint64(rounds - 16); r < rounds; r++ {
			k := w*rounds + r%16
			if v, ok := kv[DeviceOf(k, 2)][k]; !ok || v != r {
				t.Errorf("key %d recovered as %d,%v, want %d", k, v, ok, r)
			}
		}
	}
}

// domainOf builds a domain over n zero-latency devices with a hash map over
// them, its manager attached.
func domainOf(n int) (*Domain, *Map[uint64], *core.Session) {
	devs := make([]*pnvm.Device, n)
	for i := range devs {
		devs[i] = pnvm.New(pnvm.Latencies{})
	}
	d := NewDomain(devs...)
	mgr := core.NewTxManager()
	d.Attach(mgr)
	return d, NewHashMap(d, Uint64Codec(), 64), mgr.Session()
}

// writes returns the stores the domain's devices have counted.
func writes(d *Domain) (n uint64) {
	for _, dev := range d.Devices() {
		w, _, _ := dev.Stats()
		n += w
	}
	return n
}

// A committed overwrite stores its new payloads and nothing else: the
// superseded payloads' retire marks are stored by the flush of the epoch the
// overwrite committed in, which writes each back with its mark. Until that
// flush the devices count one write a key, and the superseded records are
// live at every cut: after it they are dead at a cut at that epoch and live
// at a cut at the epoch before, and the same advance frees them. On one
// device and on four, for records synced long before the overwrite and for
// records created in the epoch just before it (whose own flush comes first).
func TestCommitStoresOnlyNewPayloads(t *testing.T) {
	for _, devices := range []int{1, 4} {
		for _, fresh := range []bool{false, true} {
			// How the advance that flushes the overwrite's epoch ends: a crash
			// before the last device's marker (the cut stays at the epoch
			// before), a crash after every device's marker and before the
			// frees (the cut is the epoch), or no crash.
			for _, end := range []string{"before the last marker", "before the frees", "no crash"} {
				t.Run(fmt.Sprintf("devices=%d/fresh=%v/%s", devices, fresh, end), func(t *testing.T) {
					overwriteAndFlush(t, devices, fresh, end)
				})
			}
		}
	}
}

func overwriteAndFlush(t *testing.T, devices int, fresh bool, end string) {
	t.Cleanup(chaos.DisarmAll)
	d, m, s := domainOf(devices)
	devs := d.Devices()
	keys := keysOn(devices, 0)
	put := func(v uint64) {
		t.Helper()
		if err := s.Run(func() error {
			for _, k := range keys {
				m.Put(s, k, v)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	put(1)
	if fresh {
		d.Advance() // the first versions were created in e-1
	} else {
		d.Sync()
	}
	e := d.Current()
	w := writes(d)
	put(2)
	if got, want := writes(d)-w, uint64(len(keys)); got != want {
		t.Fatalf("the overwrite of %d keys stored %d times, want %d: its new payloads only", len(keys), got, want)
	}
	d.Advance() // flushes e-1: one marker a device, and no retire mark of e's
	if got, want := writes(d)-w, uint64(len(keys)+devices); got != want {
		t.Fatalf("after the flush of epoch %d the devices stored %d times, want %d payloads and %d markers", e-1, got, len(keys), devices)
	}

	var point string
	switch end {
	case "before the last marker":
		point = "txmontage.flush.pre-marker"
	case "before the frees":
		point = "txmontage.advance.mid-shard"
	}
	if point != "" {
		// Both points fire once a device: the last hit is the last device's.
		if err := chaos.Arm(point, chaos.Fault{Kind: chaos.Crash, After: devices - 1, Action: func() {
			for _, dev := range devs {
				dev.Crash()
			}
		}}); err != nil {
			t.Fatal(err)
		}
		if !chaosCrash(d.Advance) {
			t.Fatalf("the flush of epoch %d did not crash at %s", e, point)
		}
		chaos.DisarmAll()
	} else {
		d.Advance() // flushes e and frees what it found dead
		live := 0
		for _, dev := range devs {
			live += dev.Live()
		}
		if want := len(keys) + devices; live != want {
			t.Fatalf("the devices hold %d records after the flush of epoch %d, want %d keys and %d markers: the superseded records freed", live, e, len(keys), devices)
		}
	}

	// The superseded records are on media until the frees, durably dead at e.
	dumps, superseded := pnvm.DumpAll(devs), 0
	for i, dump := range dumps {
		for _, r := range dump {
			if r.Key == keys[i] && Uint64Codec().Dec(r.Val) == 1 {
				superseded++
				if r.Retire != e {
					t.Errorf("device %d: the superseded record of key %d carries durable retire mark %d, want %d", i, r.Key, r.Retire, e)
				}
			}
		}
	}
	want := len(keys)
	if point == "" {
		want = 0
	}
	if superseded != want {
		t.Errorf("%d superseded records on media after the advance, want %d", superseded, want)
	}
	rec, err := pnvm.RecoverDomain(devs, dumps)
	if err != nil {
		t.Fatal(err)
	}
	val, cut := uint64(2), e
	if end == "before the last marker" {
		val, cut = 1, e-1 // marked at e and durably so, but the cut is before e
	}
	if rec.Cut != cut {
		t.Fatalf("recovered at cut %d, want %d", rec.Cut, cut)
	}
	for i, live := range rec.Live {
		if len(live) != 1 || live[0].Key != keys[i] || Uint64Codec().Dec(live[0].Val) != val {
			t.Errorf("device %d recovered %+v at cut %d, want key %d = %d", i, live, rec.Cut, keys[i], val)
		}
	}
}

// chaosCrash runs f and reports whether an armed chaos crash stopped it.
func chaosCrash(f func()) (crashed bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := chaos.AsCrash(r); !ok {
				panic(r)
			}
			crashed = true
		}
	}()
	f()
	return false
}

// A crash at the second write-back group of a flush lands between two device
// shards' write-backs, and a crash takes every shard's lock: the group must
// fire its point before it takes its own. The flush stops there, and recovery
// cuts at the epoch before, with the synced keys at their values and none of
// the flushed epoch's writes. A deadlock fails on a deadline.
func TestCrashBetweenWriteBackGroups(t *testing.T) {
	for _, devices := range []int{1, 4} {
		t.Run(fmt.Sprintf("devices=%d", devices), func(t *testing.T) {
			t.Cleanup(chaos.DisarmAll)
			d, m, s := domainOf(devices)
			devs := d.Devices()
			const keys = 256 // every device's batch spans many shards
			for k := uint64(0); k < keys; k++ {
				m.Put(s, k, 1)
			}
			d.Sync()
			for k := uint64(0); k < keys; k++ {
				m.Put(s, k+keys, 2) // a new key
				m.Put(s, k, 2)      // and an overwrite
			}
			e := d.Current()
			d.Advance() // flushes e-1
			if err := chaos.Arm("pnvm.writeback", chaos.Fault{Kind: chaos.Crash, After: 1, Action: func() {
				for _, dev := range devs {
					dev.Crash()
				}
			}}); err != nil {
				t.Fatal(err)
			}
			crashed := make(chan bool)
			go func() { crashed <- chaosCrash(d.Advance) }() // flushes e
			select {
			case ok := <-crashed:
				if !ok {
					t.Fatal("the flush did not crash at its second write-back group")
				}
			case <-time.After(10 * time.Second):
				t.Fatal("the flush did not return in 10 s after a crash at its second write-back group: deadlocked")
			}
			chaos.DisarmAll()
			kv, cut := recoverKV(t, devs)
			if cut != e-1 {
				t.Fatalf("recovered at cut %d, want %d: the flush of %d never finished", cut, e-1, e)
			}
			n := 0
			for i := range kv {
				for k, v := range kv[i] {
					if k >= keys || v != 1 {
						t.Fatalf("device %d recovered key %d = %d, want only the synced keys at 1", i, k, v)
					}
					n++
				}
			}
			if n != keys {
				t.Fatalf("recovered %d keys, want the %d synced ones", n, keys)
			}
		})
	}
}
