//go:build !race

package sim

// raceEnabled reports whether the race detector is compiled in; allocation
// assertions are skipped under it, since it makes sync.Pool drop items at
// random.
const raceEnabled = false
