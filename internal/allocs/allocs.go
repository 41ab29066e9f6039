// Package allocs counts what a call allocates, for the tests that pin exact
// allocation budgets: the count is a process-wide malloc delta, so it is
// exact only with nothing else running, and the race detector's
// instrumentation allocates on its own account (Race).
package allocs

import "runtime"

// Count reports the allocations and bytes per call of f over n calls, both
// taken over the same calls at GOMAXPROCS(1) and divided as
// testing.AllocsPerRun divides: a fixed count of calls, not a timed
// benchmark's. It runs no warm-up call of its own.
func Count(n int, f func()) (allocs, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / uint64(n), (after.TotalAlloc - before.TotalAlloc) / uint64(n)
}
