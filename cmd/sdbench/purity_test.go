package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"

	"socksdirect/internal/experiments"
)

// captureStdout runs fn with os.Stdout redirected into a pipe and
// returns everything written to it.
func captureStdout(t *testing.T, fn func()) []byte {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatalf("pipe: %v", err)
	}
	os.Stdout = w
	defer func() { os.Stdout = old }()
	done := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		done <- b
	}()
	fn()
	w.Close()
	return <-done
}

// TestBenchCompareStdoutPurity is the regression test for the harness
// bug where table rows and notes interleaved with machine-readable
// output: `bench -json` stdout must unmarshal as a BenchReport with no
// surrounding noise, `compare -json` stdout must unmarshal as a verdict,
// and `compare` without -json must write nothing to stdout at all.
func TestBenchCompareStdoutPurity(t *testing.T) {
	out := filepath.Join(t.TempDir(), "bench.json")
	stdout := captureStdout(t, func() {
		benchCmd([]string{"-short", "-json", "-o", out})
	})

	var rep experiments.BenchReport
	if err := json.Unmarshal(stdout, &rep); err != nil {
		t.Fatalf("bench -json stdout is not pure JSON: %v\nstdout:\n%s", err, stdout)
	}
	if len(rep.Entries) == 0 {
		t.Fatal("bench -json: report has no entries")
	}
	for _, e := range rep.Entries {
		if e.Msgs > 0 && e.P50Ns == 0 {
			t.Errorf("%s: p50_ns is zero (latency not measured)", e.Name)
		}
		if e.Msgs > 0 && e.P99Ns == 0 {
			t.Errorf("%s: p99_ns is zero (latency not measured)", e.Name)
		}
	}

	// Self-compare must pass, and its stdout must be the verdict alone.
	stdout = captureStdout(t, func() {
		compareCmd([]string{"-json", out, out})
	})
	var verdict struct {
		OK          bool                          `json:"ok"`
		Regressions []experiments.BenchRegression `json:"regressions"`
	}
	if err := json.Unmarshal(stdout, &verdict); err != nil {
		t.Fatalf("compare -json stdout is not pure JSON: %v\nstdout:\n%s", err, stdout)
	}
	if !verdict.OK || len(verdict.Regressions) != 0 {
		t.Fatalf("self-compare reported regressions: %+v", verdict.Regressions)
	}

	// Without -json, compare keeps stdout silent (summary goes to stderr).
	stdout = captureStdout(t, func() {
		compareCmd([]string{"-allocs-only", out, out})
	})
	if len(bytes.TrimSpace(stdout)) != 0 {
		t.Errorf("compare wrote to stdout without -json: %q", stdout)
	}
}

// TestTraceFileCarriesSpansAndEvents runs `sdbench -trace <file> table2`:
// the file must parse as Chrome trace_event JSON and hold both the
// control-plane spans ("X") and the events ("i") the run recorded.
func TestTraceFileCarriesSpansAndEvents(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	captureStdout(t, func() { run(path, []string{"table2"}) })
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Phase string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("-trace file is not Chrome trace JSON: %v", err)
	}
	phases := map[string]int{}
	for _, e := range doc.TraceEvents {
		phases[e.Phase]++
	}
	if phases["X"] == 0 || phases["i"] == 0 {
		t.Fatalf("-trace file holds %d spans and %d events, want both", phases["X"], phases["i"])
	}
}
