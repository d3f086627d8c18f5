package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"socksdirect/internal/experiments"
)

// benchCmd runs the continuous-benchmark suite and writes a
// schema-versioned BENCH_<timestamp>.json report. With -json the same
// report is also emitted on stdout, and stdout carries nothing else —
// the table and the "wrote ..." note move to stderr so a pipeline can
// unmarshal the stream directly.
func benchCmd(args []string) {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	short := fs.Bool("short", false, "CI smoke mode: ~10x fewer messages per workload")
	out := fs.String("o", "", "output path (default BENCH_<timestamp>.json)")
	asJSON := fs.Bool("json", false, "emit the report JSON on stdout (all other output moves to stderr)")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: sdbench bench [-short] [-json] [-o out.json]")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() != 0 {
		fs.Usage()
		os.Exit(2)
	}

	stdout := os.Stdout
	if *asJSON {
		// Keep stdout pure JSON: anything the suite or this command prints
		// via fmt.Print* goes to stderr instead (fmt resolves os.Stdout at
		// each call, so the swap covers the whole run).
		os.Stdout = os.Stderr
		defer func() { os.Stdout = stdout }()
	}

	rep := experiments.RunBenchSuite(*short)
	path := *out
	if path == "" {
		path = fmt.Sprintf("BENCH_%s.json", time.Now().UTC().Format("20060102T150405Z"))
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		os.Exit(1)
	}

	fmt.Printf("%-22s %10s %12s %10s %10s %11s %11s\n",
		"workload", "msg(B)", "msgs/sec", "p50(us)", "p99(us)", "allocs/op", "bytes/op")
	for _, e := range rep.Entries {
		fmt.Printf("%-22s %10d %12.0f %10.2f %10.2f %11.2f %11.0f\n",
			e.Name, e.MsgBytes, e.MsgsPerSec,
			float64(e.P50Ns)/1000, float64(e.P99Ns)/1000,
			e.AllocsPerOp, e.BytesPerOp)
	}
	fmt.Printf("wrote %s (schema %s, short=%v)\n", path, rep.Schema, rep.Short)
	if *asJSON {
		stdout.Write(data)
	}
}

// compareCmd diffs two BENCH reports and exits 1 if the newer one
// regresses past the threshold (CI gate). -allocs-only restricts the
// gate to allocs/op with an absolute slack, for the zero-alloc gate.
// All human-readable output goes to stderr; stdout stays empty unless
// -json asks for the machine-readable verdict.
func compareCmd(args []string) {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	threshold := fs.Float64("threshold", 0.30, "relative regression threshold (0.30 = 30%)")
	allocsOnly := fs.Bool("allocs-only", false, "gate only allocs/op, with an absolute slack (-alloc-slack)")
	allocSlack := fs.Float64("alloc-slack", 0.05, "allowed absolute allocs/op increase with -allocs-only")
	asJSON := fs.Bool("json", false, "emit the comparison verdict as JSON on stdout")
	fs.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: sdbench compare [-threshold 0.30] [-allocs-only [-alloc-slack 0.05]] [-json] baseline.json current.json")
		fs.PrintDefaults()
	}
	fs.Parse(args)
	if fs.NArg() != 2 {
		fs.Usage()
		os.Exit(2)
	}
	baseline := loadBench(fs.Arg(0))
	current := loadBench(fs.Arg(1))

	var regs []experiments.BenchRegression
	var err error
	if *allocsOnly {
		regs, err = experiments.CompareBenchAllocs(baseline, current, *allocSlack)
	} else {
		regs, err = experiments.CompareBench(baseline, current, *threshold)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "compare: %v\n", err)
		os.Exit(2)
	}
	if *asJSON {
		verdict := struct {
			OK          bool                          `json:"ok"`
			Regressions []experiments.BenchRegression `json:"regressions"`
		}{OK: len(regs) == 0, Regressions: regs}
		if verdict.Regressions == nil {
			verdict.Regressions = []experiments.BenchRegression{}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(verdict); err != nil {
			fmt.Fprintf(os.Stderr, "compare: %v\n", err)
			os.Exit(2)
		}
	}
	if len(regs) == 0 {
		if *allocsOnly {
			fmt.Fprintf(os.Stderr, "compare: %d entries within +%.2f allocs/op of baseline\n",
				len(baseline.Entries), *allocSlack)
		} else {
			fmt.Fprintf(os.Stderr, "compare: %d entries within %.0f%% of baseline\n",
				len(baseline.Entries), *threshold*100)
		}
		return
	}
	for _, r := range regs {
		fmt.Fprintf(os.Stderr, "REGRESSION %s\n", r)
	}
	os.Exit(1)
}

func loadBench(path string) experiments.BenchReport {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "compare: %v\n", err)
		os.Exit(2)
	}
	var rep experiments.BenchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		fmt.Fprintf(os.Stderr, "compare: %s: %v\n", path, err)
		os.Exit(2)
	}
	return rep
}
