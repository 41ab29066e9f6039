//go:build !race

package allocs

// Race reports that the race detector is off.
const Race = false
