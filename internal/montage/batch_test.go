package montage

import (
	"sync"
	"testing"

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
