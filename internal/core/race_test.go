//go:build race

package core_test

// raceEnabled reports whether the race detector is compiled in. The
// simulator busy-polls in 20 ns steps of virtual time, and under the
// detector a cross-host dial costs ~50 ms of host time (six hosts: ~0.2 s),
// so the churn and cluster tests run fewer inter-host cycles there.
const raceEnabled = true
