//go:build !race

package txengine

const raceEnabled = false
