package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// spec is the part of BENCHMARK.json the program reads: names, units,
// directions and regression bounds.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readJSON(path string, into any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, into); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func (l *ledger) endToEnd(workload string) *report {
	for _, r := range l.EndToEnd {
		if r.Name == workload {
			return r
		}
	}
	return nil
}

// verdict judges b against a for one metric: how much worse b is as a share
// of a, against the metric's bound. When the repetitions of either side
// spread wider than the bound, the pair cannot be told apart at that bound
// and the verdict is "unresolved", never "same".
func verdict(m specMetric, a, b value) (string, float64) {
	if a.Value == 0 {
		return "unresolved", 0
	}
	worse := (b.Value - a.Value) / a.Value
	if m.Better == "higher" {
		worse = -worse
	}
	for _, v := range []value{a, b} {
		if v.Median != 0 && v.IQR/v.Median > m.Bound {
			return "unresolved", worse
		}
	}
	switch {
	case worse > m.Bound:
		return "worse", worse
	case worse < -m.Bound:
		return "better", worse
	}
	return "same", worse
}

// compareLedgers prints one row per (workload, end-to-end metric) of the
// declaration and returns the exit code: 1 if any row is worse or missing,
// or either ledger recorded an incorrect run.
func compareLedgers(specPath, pathA, pathB string) int {
	var sp spec
	var a, b ledger
	for path, into := range map[string]any{specPath: &sp, pathA: &a, pathB: &b} {
		if err := readJSON(path, into); err != nil {
			fatal("%v", err)
		}
	}
	if a.Schema != ledgerSchema || b.Schema != ledgerSchema {
		fatal("schema mismatch: %q vs %q (want %q)", a.Schema, b.Schema, ledgerSchema)
	}
	if a.Short != b.Short {
		fatal("one ledger is a -short run, the other is not")
	}
	fmt.Printf("# a: %s commit %s seed %d   b: %s commit %s seed %d\n", pathA, a.Commit, a.Seed, pathB, b.Commit, b.Seed)
	fmt.Printf("%-22s %-18s %14s %14s %9s %7s  %s\n", "workload", "metric", "a", "b", "worse by", "bound", "verdict")
	code := 0
	for _, w := range sp.Workloads {
		ra, rb := a.endToEnd(w.Name), b.endToEnd(w.Name)
		if ra == nil || rb == nil {
			fmt.Printf("%-22s missing from a ledger\n", w.Name)
			code = 1
			continue
		}
		if !ra.Correct || !rb.Correct {
			fmt.Printf("%-22s recorded as incorrect (a %v, b %v)\n", w.Name, ra.Correct, rb.Correct)
			code = 1
		}
		for _, m := range sp.EndToEnd {
			va, okA := ra.Metrics[m.Name]
			vb, okB := rb.Metrics[m.Name]
			if !okA || !okB {
				fmt.Printf("%-22s %-18s missing\n", w.Name, m.Name)
				code = 1
				continue
			}
			v, worse := verdict(m, va, vb)
			if v == "worse" {
				code = 1
			}
			fmt.Printf("%-22s %-18s %14.6g %14.6g %+8.2f%% %6.0f%%  %s\n", w.Name, m.Name, va.Value, vb.Value, 100*worse, 100*m.Bound, v)
		}
	}
	return code
}
