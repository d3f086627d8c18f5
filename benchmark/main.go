// Command benchmark is the repo's performance ledger: seven closed-loop
// workloads over the public socksdirect API at product defaults, each
// reported on two clocks — host_* is wall-clock time of our Go, sim_* is
// virtual time from exec.Sim — plus per-layer microbenchmarks and a traced
// run. README.md is the metric catalogue; BENCHMARK.json at the repo root
// declares the workloads, metrics and regression bounds.
//
//	bash benchmark/run.sh                       # every workload, every metric
//	bash benchmark/run.sh -workload NAME -trace 0 -seed 3 -seconds 10
//	bash benchmark/run.sh -json -out DIR > a.json
//	bash benchmark/run.sh -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names one metric and its unit. Direction and regression bound
// live in BENCHMARK.json only.
type metricDef struct{ name, unit string }

// endToEnd are reported for every workload by an untraced run. sim_* carry
// their own units so nobody reads a virtual nanosecond as a measured one.
var endToEnd = []metricDef{
	{"host_ns_per_op", "ns"},
	{"sim_ops_per_s", "ops/sim_s"},
	{"sim_p50_ns", "sim_ns"},
	{"sim_tail_ns", "sim_ns"},
	{"rep_allocs_per_op", "count"},
	{"rep_bytes_per_op", "B"},
	{"setup_s", "s"},
}

// value is one reported number with the spread of the repetitions behind it.
type value struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	N      int     `json:"n,omitempty"`      // repetitions (or samples) behind Value
	Median float64 `json:"median,omitempty"` // of the repetitions
	IQR    float64 `json:"iqr,omitempty"`
}

// report is one workload's part of the ledger. In single-workload mode its
// first four fields, alone, are the line the benchmark driver reads.
type report struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	Name      string           `json:"name,omitempty"`
	Notes     []string         `json:"notes,omitempty"`
}

// ledger is the -json document of a multi-workload run and the input of
// -compare.
type ledger struct {
	Schema     string    `json:"schema"`
	NProc      int       `json:"nproc"`
	GoMaxProcs int       `json:"gomaxprocs"`
	GoVersion  string    `json:"go_version"`
	Commit     string    `json:"commit"`
	Seed       uint64    `json:"seed"`
	Short      bool      `json:"short"`
	EndToEnd   []*report `json:"end_to_end,omitempty"`
	PerLayer   []*report `json:"per_layer,omitempty"`
}

const ledgerSchema = "socksdirect-ledger/1"

type options struct {
	seed    uint64
	seconds float64
	reps    int
	short   bool
	out     string
}

// opsFor is the window size of an untraced repetition.
func (o options) opsFor(w *workload) int {
	if o.short {
		return w.ops / 50
	}
	return w.ops
}

// tracedOpsFor caps the traced repetition so its spans fit in memory and
// the traced run in its time budget.
func (o options) tracedOpsFor(w *workload) int {
	if ops := o.opsFor(w); ops < 50_000 {
		return ops
	}
	return 50_000
}

func main() {
	var o options
	name := flag.String("workload", "", "run only this workload (default: all seven)")
	trace := flag.Int("trace", -1, "0: end-to-end metrics only; 1: per-layer metrics only (microbenchmarks + traced run); default both")
	layers := flag.Bool("layers", false, "run only the per-layer microbenchmarks")
	asJSON := flag.Bool("json", false, "write the ledger as JSON on stdout (tables go to stderr)")
	compare := flag.Bool("compare", false, "compare two ledger files: -compare a.json b.json")
	spec := flag.String("spec", "BENCHMARK.json", "benchmark declaration -compare takes its bounds from")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of the payload bytes and of sd.Config.Seed")
	flag.Float64Var(&o.seconds, "seconds", 10, "host seconds of measured windows per workload (ignored with -reps)")
	flag.IntVar(&o.reps, "reps", 0, "repetitions per workload (default: as many as fit in -seconds, at least 3)")
	flag.BoolVar(&o.short, "short", false, "1/50 op counts, one repetition: a smoke run, not a measurement")
	flag.StringVar(&o.out, "out", "", "directory for span files (default: none written)")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: -compare a.json b.json")
		}
		os.Exit(compareLedgers(*spec, flag.Arg(0), flag.Arg(1)))
	}
	if flag.NArg() != 0 {
		fatal("unexpected argument %q", flag.Arg(0))
	}
	selected := workloads
	if *name != "" {
		w := workloadByName(*name)
		if w == nil {
			fatal("unknown workload %q", *name)
		}
		selected = []*workload{w}
	}
	if o.out != "" {
		if err := os.MkdirAll(o.out, 0o755); err != nil {
			fatal("%v", err)
		}
	}

	led := ledger{
		Schema: ledgerSchema, NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: gitCommit(), Seed: o.seed, Short: o.short,
	}
	fmt.Fprintf(os.Stderr, "# nproc=%d GOMAXPROCS=%d %s commit=%s seed=%d\n",
		led.NProc, led.GoMaxProcs, led.GoVersion, led.Commit, o.seed)
	switch {
	case *layers:
		rep := &report{Name: "layers", Correct: true, Attempted: 1, Metrics: map[string]value{}}
		addLayerBenches(rep, o)
		led.PerLayer = []*report{rep}
	default:
		if *trace != 1 {
			led.EndToEnd = runEndToEnd(selected, o)
		}
		if *trace != 0 {
			led.PerLayer = runPerLayer(selected, o)
		}
	}

	driver := *name != "" && (*trace == 0 || *trace == 1)
	if driver || *asJSON {
		tables = os.Stderr
	}
	ok := true
	for _, rep := range append(append([]*report(nil), led.EndToEnd...), led.PerLayer...) {
		printReport(rep)
		ok = ok && rep.Correct
	}
	switch {
	case driver:
		// The driver's contract: the last line of stdout is one object with
		// exactly correct, attempted, failed and metrics.
		// (value's and report's other fields are omitted when empty.)
		rep := append(led.EndToEnd, led.PerLayer...)[0]
		for k, v := range rep.Metrics {
			rep.Metrics[k] = value{Value: v.Value, Unit: v.Unit}
		}
		rep.Name, rep.Notes = "", nil
		writeJSON(rep, false)
	case *asJSON:
		writeJSON(led, true)
	}
	if !ok {
		os.Exit(1)
	}
}

// tables is where the one-line-per-metric tables go: stdout, unless stdout
// carries JSON.
var tables = os.Stdout

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}

func writeJSON(v any, indent bool) {
	enc := json.NewEncoder(os.Stdout)
	if indent {
		enc.SetIndent("", " ")
	}
	if err := enc.Encode(v); err != nil {
		fatal("%v", err)
	}
}

// gitCommit is best effort: the driver's checkout is not a git repository.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// runEndToEnd measures the selected workloads untraced. Repetitions go
// round-robin across workloads, so a burst of neighbour load cannot land on
// every repetition of one of them.
func runEndToEnd(selected []*workload, o options) []*report {
	results := make([][]result, len(selected))
	spent := make([]time.Duration, len(selected))
	want := func(i int) bool {
		n := len(results[i])
		switch {
		case n > 0 && results[i][n-1].Failed > 0:
			return false // broken: more repetitions would only repeat it
		case o.short:
			return n < 1
		case o.reps > 0:
			return n < o.reps
		}
		return n < 3 || spent[i].Seconds() < o.seconds
	}
	for more := true; more; {
		more = false
		for i, w := range selected {
			if !want(i) {
				continue
			}
			more = true
			r := newRep(w, o.seed, o.opsFor(w), false)
			r.run()
			results[i] = append(results[i], r.result())
			spent[i] += r.hostClose.Sub(r.hostOpen)
		}
	}
	reports := make([]*report, len(selected))
	for i, w := range selected {
		reports[i] = endToEndReport(w, results[i])
	}
	return reports
}

// endToEndReport folds a workload's repetitions into its reported values.
func endToEndReport(w *workload, results []result) *report {
	rep := &report{Name: w.name, Correct: true, Metrics: map[string]value{}}
	cols := make([][]float64, len(endToEnd))
	for _, res := range results {
		rep.Attempted += res.Attempted
		rep.Failed += res.Failed
		for j, v := range res.endToEnd() {
			cols[j] = append(cols[j], v)
		}
	}
	for j, m := range endToEnd {
		s := summarize(cols[j])
		v := value{Value: s.Median, Unit: m.unit, N: s.N, Median: s.Median, IQR: s.IQR}
		switch {
		case m.name == "host_ns_per_op":
			// Interference on a shared box only ever adds host time, so the
			// fastest repetition is the best estimate of our Go's cost.
			v.Value = s.Min
		case strings.HasPrefix(m.name, "sim_") && s.Max-s.Min > w.simSlack*s.Median:
			rep.Correct = false
			rep.Notes = append(rep.Notes, fmt.Sprintf("%s differs between repetitions: %v", m.name, cols[j]))
		}
		rep.Metrics[m.name] = v
	}
	if rep.Failed > 0 {
		rep.Correct = false
	}
	if w.paper > 0 {
		ours := rep.Metrics[w.paperOf].Value
		rep.Notes = append(rep.Notes, fmt.Sprintf("%s: ours %.4g / paper %.4g (%s) = %.2f", w.paperOf, ours, w.paper, w.anchor, ours/w.paper))
	}
	samples := results[0].Samples
	rep.Notes = append(rep.Notes, fmt.Sprintf("sim_tail_ns is p%g of %d samples", 100*tailQuantile(samples), samples))
	return rep
}

// printReport writes one line per metric: name, value, unit, sample count
// and spread.
func printReport(rep *report) {
	names := make([]string, 0, len(rep.Metrics))
	for k := range rep.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	verdict := "ok"
	if !rep.Correct {
		verdict = "INCORRECT"
	}
	fmt.Fprintf(tables, "## %s: %s, attempted=%d failed=%d\n", rep.Name, verdict, rep.Attempted, rep.Failed)
	for _, k := range names {
		v := rep.Metrics[k]
		fmt.Fprintf(tables, "%-22s %-38s %16.6g %-10s", rep.Name, k, v.Value, v.Unit)
		if v.N > 0 {
			fmt.Fprintf(tables, " n=%d median=%.6g iqr=%.3g", v.N, v.Median, v.IQR)
		}
		fmt.Fprintln(tables)
	}
	for _, n := range rep.Notes {
		fmt.Fprintf(tables, "%-22s # %s\n", rep.Name, n)
	}
}
