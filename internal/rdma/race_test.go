//go:build race

package rdma

// raceEnabled reports whether the race detector is compiled in. The
// zero-alloc guard measures the Go heap, and race instrumentation
// allocates shadow state on paths that are allocation-free in a normal
// build, so the hard-zero assertion runs in normal builds only.
const raceEnabled = true
