package experiments

import "testing"

// TestBenchSuiteShape: the smoke suite produces the committed entry set
// with sane numbers — this is what CI archives and diffs, so the shape
// itself is under test.
func TestBenchSuiteShape(t *testing.T) {
	rep := RunBenchSuite(true)
	if rep.Schema != BenchSchema {
		t.Fatalf("schema %q, want %q", rep.Schema, BenchSchema)
	}
	want := []string{
		"ring_spsc_1KiB", "rdma_qp_1KiB",
		"sd_intra_pingpong_8B", "sd_inter_pingpong_8B",
		"sd_intra_stream_1KiB", "sd_inter_stream_1KiB",
		"sd_intra_burst_32x64B", "sd_inter_burst_32x64B",
		"connscale_connect", "connscale_accept",
		"connscale_shard0_dispatch", "connscale_shard1_dispatch",
		"connscale_shard2_dispatch", "connscale_shard3_dispatch",
		"cluster_dial", "cluster_echo_8B",
		"overload_shed", "dial_refused",
	}
	if len(rep.Entries) != len(want) {
		t.Fatalf("%d entries, want %d", len(rep.Entries), len(want))
	}
	for i, e := range rep.Entries {
		if e.Name != want[i] {
			t.Fatalf("entry %d = %q, want %q", i, e.Name, want[i])
		}
		if e.MsgsPerSec <= 0 {
			t.Errorf("%s: MsgsPerSec = %v, want > 0", e.Name, e.MsgsPerSec)
		}
		// Every entry carries quantiles now — streams stamp each message
		// and observe delivery latency, bursts observe whole-batch RTTs.
		if e.P50Ns <= 0 || e.P99Ns < e.P50Ns {
			t.Errorf("%s: quantiles p50=%d p99=%d", e.Name, e.P50Ns, e.P99Ns)
		}
	}
	if raceEnabled {
		// Race instrumentation allocates on otherwise allocation-free
		// paths; the zero-alloc acceptance runs in the normal build only
		// (bench-smoke CI job gates it via `compare -allocs-only`).
		return
	}
	if ring := rep.Entries[0]; ring.AllocsPerOp != 0 {
		t.Errorf("ring AllocsPerOp = %v, want 0 (ISSUE-3 acceptance)", ring.AllocsPerOp)
	}
	// ISSUE-7 acceptance: the full-stack ping-pongs are steady-state
	// zero-alloc. Judged by the CI gate's own rule (`compare -allocs-only
	// -alloc-slack 0.05` against a zero budget): over this 100-round window
	// a bufpool sync.Pool miss after a GC reads 0.01-0.02, a real per-op
	// allocation reads >= 1.
	budget := BenchReport{Schema: rep.Schema, Short: rep.Short}
	for _, e := range rep.Entries[2:4] {
		budget.Entries = append(budget.Entries, BenchEntry{Name: e.Name})
	}
	regs, err := CompareBenchAllocs(budget, rep, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range regs {
		t.Errorf("zero-alloc budget: %s", r)
	}
}

// TestCompareBench covers the gate logic without running workloads.
func TestCompareBench(t *testing.T) {
	base := BenchReport{Schema: BenchSchema, Entries: []BenchEntry{
		{Name: "det", MsgsPerSec: 1000, P99Ns: 100, AllocsPerOp: 2, Deterministic: true},
		{Name: "wall", MsgsPerSec: 1000, P99Ns: 100, AllocsPerOp: 0},
	}}
	clone := func() BenchReport {
		cur := base
		cur.Entries = append([]BenchEntry(nil), base.Entries...)
		return cur
	}

	if regs, err := CompareBench(base, clone(), 0.25, false); err != nil || len(regs) != 0 {
		t.Fatalf("identical reports: regs=%v err=%v", regs, err)
	}

	cur := clone()
	cur.Entries[0].MsgsPerSec = 700 // -30% past the 25% threshold
	cur.Entries[0].P99Ns = 200
	regs, err := CompareBench(base, cur, 0.25, false)
	if err != nil || len(regs) != 2 {
		t.Fatalf("deterministic regressions: regs=%v err=%v", regs, err)
	}

	// Wall-clock timing only trips with includeWallClock.
	cur = clone()
	cur.Entries[1].MsgsPerSec = 100
	if regs, _ := CompareBench(base, cur, 0.25, false); len(regs) != 0 {
		t.Fatalf("wall-clock timing compared by default: %v", regs)
	}
	if regs, _ := CompareBench(base, cur, 0.25, true); len(regs) != 1 {
		t.Fatalf("wall-clock timing not compared with -all: %v", regs)
	}

	// Allocations are always gated, even on wall-clock entries, but get
	// +1 absolute slack over the relative threshold.
	cur = clone()
	cur.Entries[1].AllocsPerOp = 0.9
	if regs, _ := CompareBench(base, cur, 0.25, false); len(regs) != 0 {
		t.Fatalf("allocs slack not applied: %v", regs)
	}
	cur.Entries[1].AllocsPerOp = 3
	if regs, _ := CompareBench(base, cur, 0.25, false); len(regs) != 1 {
		t.Fatalf("allocs regression missed: %v", regs)
	}

	// A dropped entry fails the gate.
	cur = clone()
	cur.Entries = cur.Entries[:1]
	if regs, _ := CompareBench(base, cur, 0.25, false); len(regs) != 1 || regs[0].Metric != "missing" {
		t.Fatalf("missing entry not flagged: %v", regs)
	}

	// Schema and mode mismatches are errors, not passes.
	cur = clone()
	cur.Schema = "other/1"
	if _, err := CompareBench(base, cur, 0.25, false); err == nil {
		t.Fatal("schema mismatch not rejected")
	}
	cur = clone()
	cur.Short = true
	if _, err := CompareBench(base, cur, 0.25, false); err == nil {
		t.Fatal("short-mode mismatch not rejected")
	}
}
