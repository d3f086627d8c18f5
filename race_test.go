//go:build race

package socksdirect_test

// raceEnabled reports whether the race detector is compiled in: it
// allocates on its own, so the allocation counts skip themselves.
const raceEnabled = true
