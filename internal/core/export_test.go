package core

import (
	"testing"

	"medley/internal/chaos"
)

// HeldHelper is a goroutine that runs load, a plain Load of an object that
// holds another session's cell, each time Enter is called, and stops inside
// it at the named core point until Leave. A round allocates nothing.
type HeldHelper struct {
	start, arrived, resume, done, exited chan struct{}
}

// NewHeldHelper arms point and starts the goroutine; both end with the test.
func NewHeldHelper(t testing.TB, point string, load func()) *HeldHelper {
	h := &HeldHelper{make(chan struct{}), make(chan struct{}), make(chan struct{}), make(chan struct{}, 1), make(chan struct{})}
	go func() {
		defer close(h.exited)
		for range h.start {
			load()
			h.done <- struct{}{}
		}
	}()
	t.Cleanup(func() {
		close(h.resume) // lets go a load a failed test left at a point
		close(h.start)
		<-h.exited
	})
	h.arm(t, point, 0) // disarmed, by cleanup, before the above
	return h
}

// arm makes the helper stop at point, at most times times (0: every time).
func (h *HeldHelper) arm(t testing.TB, point string, times int) {
	if err := chaos.Arm(point, chaos.Fault{Kind: chaos.Delay, Times: times, Action: h.stop}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { chaos.Disarm(point) })
}

func (h *HeldHelper) stop() {
	h.arrived <- struct{}{}
	<-h.resume
}

// Enter lets the helper load, and returns once it has stopped at the point.
func (h *HeldHelper) Enter(t testing.TB) {
	h.start <- struct{}{}
	h.await(t)
}

// Next makes the helper stop once more, at point, lets it go on, and returns
// once it has stopped there.
func (h *HeldHelper) Next(t testing.TB, point string) {
	h.arm(t, point, 1)
	h.resume <- struct{}{}
	h.await(t)
}

func (h *HeldHelper) await(t testing.TB) {
	select {
	case <-h.arrived:
	case <-h.done:
		t.Fatal("the helper's load never reached its point")
	}
}

// Leave lets the helper go on, and returns once its load has returned.
func (h *HeldHelper) Leave() {
	h.resume <- struct{}{}
	<-h.done
}
