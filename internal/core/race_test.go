//go:build race

package core_test

// raceEnabled reports whether the race detector is compiled in. The
// simulator busy-polls in 20 ns steps of virtual time, and under the
// detector a cross-host dial costs ~0.4 s of host time, so the churn test
// runs fewer inter-host cycles there.
const raceEnabled = true
