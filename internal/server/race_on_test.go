//go:build race

package server

// raceEnabled lets the allocation budget tests skip themselves under the
// race detector, whose instrumentation allocates on its own account.
const raceEnabled = true
