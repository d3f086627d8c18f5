//go:build !race

package socksdirect_test

// raceEnabled reports whether the race detector is compiled in; see
// race_test.go.
const raceEnabled = false
