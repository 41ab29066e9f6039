//go:build race

package allocs

// Race reports that the race detector is on: a budget test skips itself.
const Race = true
