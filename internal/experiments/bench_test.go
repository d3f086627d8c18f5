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
		"sd_intra_burst_32x64B", "sd_inter_burst_32x64B",
		"connscale_connect", "connscale_accept",
		"connscale_shard0_dispatch", "connscale_shard1_dispatch",
		"connscale_shard2_dispatch", "connscale_shard3_dispatch",
		"cluster_dial_cold", "cluster_echo_8B",
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
		// Every entry carries quantiles: bursts observe whole-batch RTTs,
		// the drills each operation's latency.
		if e.P50Ns <= 0 || e.P99Ns < e.P50Ns {
			t.Errorf("%s: quantiles p50=%d p99=%d", e.Name, e.P50Ns, e.P99Ns)
		}
	}
}

// TestCompareBench covers the gate logic without running workloads.
func TestCompareBench(t *testing.T) {
	base := BenchReport{Schema: BenchSchema, Entries: []BenchEntry{
		{Name: "a", Msgs: 40, MsgsPerSec: 1000, P50Ns: 50, P99Ns: 100, AllocsPerOp: 2},
		{Name: "b", Msgs: 40, MsgsPerSec: 1000, P50Ns: 50, P99Ns: 100, AllocsPerOp: 0},
	}}
	clone := func() BenchReport {
		cur := base
		cur.Entries = append([]BenchEntry(nil), base.Entries...)
		return cur
	}

	if regs, err := CompareBench(base, clone(), 0.25); err != nil || len(regs) != 0 {
		t.Fatalf("identical reports: regs=%v err=%v", regs, err)
	}

	cur := clone()
	cur.Entries[0].MsgsPerSec = 700 // -30% past the 25% threshold
	cur.Entries[0].P99Ns = 200
	regs, err := CompareBench(base, cur, 0.25)
	if err != nil || len(regs) != 2 {
		t.Fatalf("timing regressions: regs=%v err=%v", regs, err)
	}

	// Allocations get +1 absolute slack over the relative threshold.
	cur = clone()
	cur.Entries[1].AllocsPerOp = 0.9
	if regs, _ := CompareBench(base, cur, 0.25); len(regs) != 0 {
		t.Fatalf("allocs slack not applied: %v", regs)
	}
	cur.Entries[1].AllocsPerOp = 3
	if regs, _ := CompareBench(base, cur, 0.25); len(regs) != 1 {
		t.Fatalf("allocs regression missed: %v", regs)
	}

	// A zero p50 is a harness that stopped measuring.
	cur = clone()
	cur.Entries[1].P50Ns = 0
	if regs, _ := CompareBench(base, cur, 0.25); len(regs) != 1 || regs[0].Metric != "p50_zero" {
		t.Fatalf("zero p50 not flagged: %v", regs)
	}

	// A run that stopped early — a cluster client returning on its first
	// failed dial — has fewer messages, and its quantiles may still be
	// within the threshold: the count alone must fail both gates.
	cur = clone()
	cur.Entries[0].Msgs = 30
	for _, gate := range []func(BenchReport, BenchReport) ([]BenchRegression, error){
		func(o, c BenchReport) ([]BenchRegression, error) { return CompareBench(o, c, 0.25) },
		func(o, c BenchReport) ([]BenchRegression, error) { return CompareBenchAllocs(o, c, 0.05) },
	} {
		if regs, _ := gate(base, cur); len(regs) != 1 || regs[0].Metric != "msgs" {
			t.Fatalf("changed message count not flagged: %v", regs)
		}
	}

	// A dropped entry fails the gate.
	cur = clone()
	cur.Entries = cur.Entries[:1]
	if regs, _ := CompareBench(base, cur, 0.25); len(regs) != 1 || regs[0].Metric != "missing" {
		t.Fatalf("missing entry not flagged: %v", regs)
	}

	// An entry the baseline lacks fails both gates: a new workload is not
	// gated until the baseline has it.
	cur = clone()
	cur.Entries = append(cur.Entries, BenchEntry{Name: "c", Msgs: 40, MsgsPerSec: 1000, P50Ns: 50, P99Ns: 100})
	for _, gate := range []func(BenchReport, BenchReport) ([]BenchRegression, error){
		func(o, c BenchReport) ([]BenchRegression, error) { return CompareBench(o, c, 0.25) },
		func(o, c BenchReport) ([]BenchRegression, error) { return CompareBenchAllocs(o, c, 0.05) },
	} {
		if regs, _ := gate(base, cur); len(regs) != 1 || regs[0].Entry != "c" || regs[0].Metric != "unbaselined" {
			t.Fatalf("unbaselined entry not flagged: %v", regs)
		}
	}

	// Schema and mode mismatches are errors, not passes: a
	// socksdirect-bench/1 report, with its wall-clock entry and
	// deterministic field, is not comparable.
	cur = clone()
	cur.Schema = "socksdirect-bench/1"
	if _, err := CompareBench(base, cur, 0.25); err == nil {
		t.Fatal("schema mismatch not rejected")
	}
	cur = clone()
	cur.Short = true
	if _, err := CompareBench(base, cur, 0.25); err == nil {
		t.Fatal("short-mode mismatch not rejected")
	}
}
