package main

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var short = options{seed: 7, short: true}

// TestShortRunsRepeat runs every workload twice at 1/50 size with one seed:
// nothing may fail, and everything the virtual clock produces must come out
// the same both times.
func TestShortRunsRepeat(t *testing.T) {
	first, second := runEndToEnd(workloads, short), runEndToEnd(workloads, short)
	for i, w := range workloads {
		a, b := first[i], second[i]
		if !a.Correct || !b.Correct || a.Failed+b.Failed != 0 {
			t.Errorf("%s: incorrect run: %+v / %+v", w.name, a, b)
		}
		if a.Attempted != b.Attempted || a.Attempted == 0 {
			t.Errorf("%s: attempted %d then %d", w.name, a.Attempted, b.Attempted)
		}
		for _, m := range endToEnd {
			va, ok := a.Metrics[m.name]
			if !ok || va.Value <= 0 || va.Unit != m.unit {
				t.Errorf("%s: %s = %+v, want a positive value in %s", w.name, m.name, va, m.unit)
			}
			if !strings.HasPrefix(m.name, "sim_") {
				continue
			}
			if vb := b.Metrics[m.name]; math.Abs(va.Value-vb.Value) > w.simSlack*va.Value {
				t.Errorf("%s: %s = %v then %v", w.name, m.name, va.Value, vb.Value)
			}
		}
	}
	if got := first[0].Metrics["sim_p50_ns"].Value; got != 100 {
		t.Errorf("intra_pingpong_8B sim_p50_ns = %v, BENCH_seed.json has 100", got)
	}
	if got := first[1].Metrics["sim_p50_ns"].Value; got != 2034 {
		t.Errorf("inter_pingpong_8B sim_p50_ns = %v, BENCH_seed.json has 2034", got)
	}
}

// TestAllocWindows pins the steady-state allocation figure to the smaller
// of the window's two halves, so one stray burst cannot show as a per-op cost.
func TestAllocWindows(t *testing.T) {
	r := newRep(workloads[0], 1, 1000, false)
	r.hostClose = r.hostOpen.Add(1)
	r.simClose = 1
	r.lat = r.lat[:1000]
	r.winMem[1].Mallocs, r.winMem[2].Mallocs = 500, 1500 // 1/op, then 2/op
	r.winMem[1].TotalAlloc, r.winMem[2].TotalAlloc = 32000, 40000
	res := r.result()
	if res.AllocsPerOp != 1 || res.BytesPerOp != 16 {
		t.Errorf("allocs/op %v bytes/op %v, want the quieter half: 1 and 16", res.AllocsPerOp, res.BytesPerOp)
	}
	for samples, want := range map[int]float64{270: 0.95, 5000: 0.99, 30000: 0.999} {
		if got := tailQuantile(samples); got != want {
			t.Errorf("tailQuantile(%d) = %v, want %v", samples, got, want)
		}
	}
}

// TestDeclarationMatchesProgram holds BENCHMARK.json and the program to the
// same workloads and metrics, by name and unit, in both directions.
func TestDeclarationMatchesProgram(t *testing.T) {
	var sp spec
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &sp); err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json declares %d workloads, the program runs %d", len(sp.Workloads), len(workloads))
	}
	for _, w := range sp.Workloads {
		if workloadByName(w.Name) == nil {
			t.Errorf("workload %s is declared but not implemented", w.Name)
		}
	}
	same := func(kind string, declared []specMetric, defs []metricDef) {
		if len(declared) != len(defs) {
			t.Errorf("%s: %d metrics declared, %d in the program", kind, len(declared), len(defs))
		}
		for _, m := range declared {
			found := false
			for _, d := range defs {
				found = found || (d.name == m.Name && d.unit == m.Unit)
			}
			if !found {
				t.Errorf("%s metric %s (%s) is declared but the program has no such name and unit", kind, m.Name, m.Unit)
			}
		}
	}
	same("end_to_end", sp.EndToEnd, endToEnd)
	same("per_layer", sp.PerLayer, perLayer)

	// And the program really emits every per-layer name: run one workload.
	w := workloadByName("connect_churn")
	rep := runPerLayer([]*workload{w}, short)[0]
	if !rep.Correct {
		t.Errorf("per-layer run incorrect: %v", rep.Notes)
	}
	for _, d := range perLayer {
		if _, ok := rep.Metrics[d.name]; !ok {
			t.Errorf("per-layer metric %s is not emitted", d.name)
		}
	}
	if len(rep.Metrics) != len(perLayer) {
		t.Errorf("%d per-layer metrics emitted, %d in the catalogue", len(rep.Metrics), len(perLayer))
	}
}

// TestCorruptionIsCounted flips one byte of one message's payload in every
// workload and expects the run to count a failure. Stream workloads verify
// whole payloads during warm-up, so the byte lands there.
func TestCorruptionIsCounted(t *testing.T) {
	for _, w := range workloads {
		r := newRep(w, short.seed, short.opsFor(w), false)
		r.corruptAt = 3
		r.run()
		if res := r.result(); res.Failed == 0 {
			t.Errorf("%s: a corrupted payload byte went unnoticed", w.name)
		}
	}
}

// TestSpansTile records every workload and checks the tiling assertion
// holds — and that it notices a gap.
func TestSpansTile(t *testing.T) {
	for _, w := range workloads {
		r := newRep(w, short.seed, short.opsFor(w), true)
		r.run()
		if res := r.result(); res.Failed != 0 {
			t.Errorf("%s: traced run failed %d ops", w.name, res.Failed)
			continue
		}
		if err := r.tr.checkTiling(r); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
		by, _ := r.tr.stats()
		if by[spOp].n != r.ops {
			t.Errorf("%s: %d closed root spans for %d ops", w.name, by[spOp].n, r.ops)
		}
		r.tr.spans[r.tr.rootOf[r.ops-1]-1].sim0++
		if r.tr.checkTiling(r) == nil {
			t.Errorf("%s: a one-ns gap between root spans passed the tiling check", w.name)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := specMetric{Name: "host_ns_per_op", Better: "lower", Bound: 0.10}
	higher := specMetric{Name: "sim_ops_per_s", Better: "higher", Bound: 0.01}
	v := func(x, iqr float64) value { return value{Value: x, Median: x, IQR: iqr} }
	for _, c := range []struct {
		m    specMetric
		a, b value
		want string
	}{
		{lower, v(100, 1), v(105, 1), "same"},
		{lower, v(100, 1), v(111, 1), "worse"},
		{lower, v(100, 1), v(89, 1), "better"},
		{lower, v(100, 11), v(100, 1), "unresolved"},
		{higher, v(1000, 0), v(985, 0), "worse"},
		{higher, v(1000, 0), v(1011, 0), "better"},
		{higher, v(1000, 0), v(1000, 0), "same"},
	} {
		if got, _ := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.m.Name, c.a.Value, c.b.Value, got, c.want)
		}
	}
}

// TestProductDefaults keeps the end-to-end paths at product defaults: the
// package's own sources must not mention any of the tuning knobs.
func TestProductDefaults(t *testing.T) {
	knobs := []string{"SetSockRingCap", "SetListenerBacklogCap", "SetMonInboxCap", "SetQuotaBytes", "telemetry.SetEnabled", "obs.SetEnabled"}
	files, err := filepath.Glob("*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no sources found: %v", err)
	}
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range knobs {
			if strings.Contains(string(src), k) {
				t.Errorf("%s mentions %s: the benchmark runs at product defaults", f, k)
			}
		}
	}
}
