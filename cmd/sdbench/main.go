// Command sdbench regenerates the paper's evaluation (§5): every table and
// figure, printed as aligned text with the paper's numbers for comparison.
//
//	sdbench table2      Table 2: primitive operation costs
//	sdbench table4      Table 4: latency breakdown per system
//	sdbench fig7        Figure 7: intra-host throughput + latency vs size
//	sdbench fig8        Figure 8: inter-host throughput + latency vs size
//	sdbench fig9        Figure 9: 8B throughput vs cores (intra + inter)
//	sdbench fig10       Figure 10: latency vs processes sharing one core
//	sdbench fig11       Figure 11: HTTP proxy latency vs response size
//	sdbench fig12       Figure 12: NF pipeline throughput vs stages
//	sdbench redis       §5.3.2: KV GET latency
//	sdbench connscale   §6: connections per second
//	sdbench ablate      design ablations (token sharing, batching, zero copy)
//	sdbench chaos       fault injection: loss burst + 2s partition, QP
//	                    recovery and mid-stream TCP degradation, with
//	                    byte-exact delivery checks
//	sdbench crash       process-crash drill: scheduled SIGKILLs mid-transfer;
//	                    survivors must see byte-exact prefixes then exactly
//	                    one ECONNRESET, monitors must converge, no buffer
//	                    leaks
//	sdbench mrestart    monitor-restart drill: both hosts' monitors stopped
//	                    and restarted mid-transfer; streams stay byte-exact
//	                    with zero resets, downtime control ops bound at
//	                    ETIMEDOUT, successors resurrect state and converge
//	sdbench cluster     cluster-wide chaos soak: an 8-host fleet under
//	                    concurrent SIGKILLs, a monitor restart, a live
//	                    migration, duplex and one-way partitions, and a
//	                    permanent host death; checks byte-exact delivery,
//	                    exactly one ECONNRESET per severed flow, membership
//	                    convergence with one death fan-out per survivor,
//	                    bounded dials and zero buffer drift, then prints
//	                    every survivor's membership view
//	sdbench overload    overload-survival soak: a slow-receiver storm with
//	                    armed deadlines and nonblock+epoll recovery, a
//	                    10k-dial SYN flood against a capped backlog, a
//	                    remote dial race against a capped shard inbox, and
//	                    a bufpool quota squeeze — healthy flows must stay
//	                    byte-exact with bounded p99, every shed must be a
//	                    clean retryable errno, and buffers must not drift
//	sdbench all         everything above
//	sdbench sdstat [-json] [crash|chaos|smoke|cluster]
//	                    run a workload, then print the per-connection flow
//	                    table (`ss` for the simulated cluster): transport,
//	                    state, byte/msg counters, takeovers, recoveries,
//	                    resets, ring high-water, monitor epoch
//	sdbench obssmoke [-o dir]
//	                    observability gate: a traced cross-host echo must
//	                    merge into one complete connect timeline, and an
//	                    induced retry exhaustion must produce exactly one
//	                    flight-recorder dump; both artifacts land in -o
//	sdbench stats [-json] [experiment...]
//	                    run the experiments (default: table2) and dump the
//	                    full telemetry registry afterwards
//	sdbench bench [-short] [-json] [-o out.json]
//	                    continuous-benchmark suite: writes a schema-versioned
//	                    BENCH_<timestamp>.json (msgs/sec, p50/p99, allocs/op);
//	                    -json echoes the report on stdout with everything
//	                    else on stderr (stdout is unmarshalable as-is)
//	sdbench compare [-threshold 0.30] [-allocs-only [-alloc-slack 0.05]]
//	                    [-json] baseline.json current.json
//	                    diff two BENCH reports; exit 1 on regression past the
//	                    threshold (the CI gate; see EXPERIMENTS.md).
//	                    -allocs-only gates allocs/op alone with an absolute
//	                    slack (the zero-alloc gate); human output goes to
//	                    stderr, -json puts the verdict JSON on stdout
//
// Flags (before the subcommand):
//
//	-trace out.json     at exit, write the obs rings (spans and events,
//	                    one track per host and process) as Chrome
//	                    trace_event JSON (open in chrome://tracing or
//	                    Perfetto)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"

	"socksdirect/internal/experiments"
	"socksdirect/internal/obs"
	"socksdirect/internal/telemetry"
)

func main() {
	traceOut := flag.String("trace", "", "write the run's spans and events as Chrome trace_event JSON to this file")
	flag.Parse()
	run(*traceOut, flag.Args())
}

// run dispatches one command; with traceOut set it then writes the obs
// rings there.
func run(traceOut string, args []string) {
	cmd := "all"
	if len(args) > 0 {
		cmd = args[0]
	}
	cmds := map[string]func(){
		"table2":    table2,
		"table4":    table4,
		"fig7":      fig7,
		"fig8":      fig8,
		"fig9":      fig9,
		"fig10":     fig10,
		"fig11":     fig11,
		"fig12":     fig12,
		"redis":     redis,
		"connscale": connscale,
		"ablate":    ablate,
		"chaos":     chaos,
		"crash":     crash,
		"mrestart":  mrestart,
		"cluster":   cluster,
		"overload":  overload,
	}
	order := []string{"table2", "table4", "fig7", "fig8",
		"fig9", "fig10", "fig11", "fig12", "redis", "connscale", "ablate", "chaos", "crash",
		"mrestart", "cluster", "overload"}
	switch cmd {
	case "all":
		for _, name := range order {
			cmds[name]()
			fmt.Println()
		}
	case "stats":
		stats(args[1:], cmds)
	case "sdstat":
		sdstatCmd(args[1:])
	case "obssmoke":
		obssmokeCmd(args[1:])
	case "bench":
		benchCmd(args[1:])
	case "compare":
		compareCmd(args[1:])
	default:
		fn, ok := cmds[cmd]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", cmd)
			os.Exit(2)
		}
		fn()
	}
	if traceOut != "" {
		writeDump(traceOut, obs.Capture(obs.TrigManual, 0, "sdbench "+cmd))
	}
}

// stats runs the named experiments (default table2) and then dumps every
// non-zero metric in the telemetry registry, as text or (-json) JSON.
func stats(args []string, cmds map[string]func()) {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "emit the telemetry registry as JSON")
	fs.Parse(args)
	names := fs.Args()
	if len(names) == 0 {
		names = []string{"table2"}
	}
	out := os.Stdout
	if *asJSON {
		// Keep stdout pure JSON: the experiments' narrative output moves
		// to stderr (fmt resolves os.Stdout at each call, so this works).
		os.Stdout = os.Stderr
		defer func() { os.Stdout = out }()
	}
	for _, name := range names {
		fn, ok := cmds[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", name)
			os.Exit(2)
		}
		fn()
		if !*asJSON {
			fmt.Println()
		}
	}
	snap := telemetry.Capture()
	if *asJSON {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(snap); err != nil {
			fmt.Fprintf(os.Stderr, "stats: %v\n", err)
			os.Exit(1)
		}
		return
	}
	fmt.Println("== Telemetry registry (non-zero metrics) ==")
	fmt.Print(snap.Format(true))
}

// printDeltas renders the non-zero counter movement of one experiment
// (quantile keys are point-in-time, not deltas, so they are skipped).
func printDeltas(title string, d telemetry.Snapshot) {
	filtered := make(telemetry.Snapshot)
	for _, k := range d.Keys() {
		if strings.HasSuffix(k, "/p50") || strings.HasSuffix(k, "/p99") {
			continue
		}
		filtered[k] = d[k]
	}
	fmt.Printf("== %s ==\n", title)
	fmt.Print(filtered.Format(true))
}

func table2() {
	before := telemetry.Capture()
	fmt.Print(experiments.RenderTable2(experiments.Table2()))
	fmt.Println()
	printDeltas("Table 2 counter deltas (whole workload)", telemetry.Capture().Diff(before))
}

func table4() {
	fmt.Print(experiments.Table4())
}

func sizesAxis() []float64 {
	xs := make([]float64, len(experiments.MsgSizes))
	for i, s := range experiments.MsgSizes {
		xs[i] = float64(s)
	}
	return xs
}

func gbps(v float64) string { return fmt.Sprintf("%.2f Gbps", v) }
func us(v float64) string   { return fmt.Sprintf("%.2f us", v) }
func mops(v float64) string { return fmt.Sprintf("%.2f M/s", v) }

func fig7() {
	tput, lat := experiments.Fig7()
	fmt.Print(experiments.RenderFigure("Figure 7a: intra-host single-core throughput", "size(B)", sizesAxis(), tput, gbps))
	fmt.Println("paper: SD 8B ~1.5 Gbps (23 M msg/s), 1MiB saturates memory; Linux 8B ~0.07 Gbps")
	fmt.Println()
	fmt.Print(experiments.RenderFigure("Figure 7b: intra-host latency", "size(B)", sizesAxis(), lat, us))
	fmt.Println("paper: SD 0.3 us @8B vs Linux 11 us (35x); RSocket ~1.8 us (hairpin)")
}

func fig8() {
	tput, lat := experiments.Fig8()
	fmt.Print(experiments.RenderFigure("Figure 8a: inter-host single-core throughput", "size(B)", sizesAxis(), tput, gbps))
	fmt.Println("paper: SD saturates 100G at >=16KiB (zero copy); 3.5x compared systems")
	fmt.Println()
	fmt.Print(experiments.RenderFigure("Figure 8b: inter-host latency", "size(B)", sizesAxis(), lat, us))
	fmt.Println("paper: SD 1.7 us @8B ~= raw RDMA 1.6 us; Linux 30 us (17x)")
}

func fig9() {
	cores := []float64{1, 2, 4, 8, 16}
	coreList := []int{1, 2, 4, 8, 16}
	intra := experiments.Fig9(true, coreList)
	fmt.Print(experiments.RenderFigure("Figure 9a: intra-host 8B throughput vs cores", "cores", cores, intra, mops))
	fmt.Println("paper: SD scales linearly to 306 M msg/s @16 cores (40x Linux); LibVMA collapses >1 core")
	fmt.Println()
	inter := experiments.Fig9(false, coreList)
	fmt.Print(experiments.RenderFigure("Figure 9b: inter-host 8B throughput vs cores", "cores", cores, inter, mops))
	fmt.Println("paper: SD 276 M msg/s @16 cores with batching; without batching 62 M (60% of RDMA)")
}

func fig10() {
	procs := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	s := experiments.Fig10([]int{1, 2, 3, 4, 5, 6, 7, 8})
	fmt.Print(experiments.RenderFigure("Figure 10: 8B RTT vs processes sharing one core", "procs", procs, []*experiments.Series{s}, us))
	fmt.Println("paper: latency grows ~linearly with sharers but stays 1/20-1/30 of Linux")
}

func fig11() {
	xs := make([]float64, len(experiments.Fig11Sizes))
	for i, s := range experiments.Fig11Sizes {
		xs[i] = float64(s)
	}
	series := experiments.Fig11()
	fmt.Print(experiments.RenderFigure("Figure 11: HTTP request latency vs response size", "resp(B)", xs, series, us))
	fmt.Println("paper: SocksDirect cuts Nginx latency 5.5x (small responses) to 20x (large, zero copy)")
}

func fig12() {
	stages := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	series := experiments.Fig12([]int{1, 2, 3, 4, 5, 6, 7, 8})
	fmt.Print(experiments.RenderFigure("Figure 12: NF pipeline throughput vs stages", "stages", stages, series, mops))
	fmt.Println("paper: SD 15-20x Linux pipe/TCP, close to NetBricks")
}

func redis() {
	r := experiments.Redis(1500)
	fmt.Printf("Redis-style 8B GET over SocksDirect: mean %.2f us, p1 %.2f us, p99 %.2f us\n",
		r.MeanUs, r.P1Us, r.P99Us)
	fmt.Println("paper: Linux mean 38.9 us (31.6/56.1) -> SocksDirect mean 14.1 us (8.4/19.1)")
}

func connscale() {
	r := experiments.ConnScaleDrill(experiments.ConnScaleConfig{
		Population: 100_000, Churn: 20_000,
	})
	fmt.Printf("connscale: held %d sockets concurrently (peak %d) with %d churn cycles; %d dial retries\n",
		r.Population, r.PeakConcurrent, r.Churn, r.DialRetries)
	fmt.Printf("  connect: %8.0f conns/s  (p50 %6.2f us, p99 %6.2f us, %d total)\n",
		r.ConnectsPerSec, float64(r.ConnectP50Ns)/1e3, float64(r.ConnectP99Ns)/1e3, r.Connects)
	fmt.Printf("  accept:  %8.0f conns/s  (p50 %6.2f us, p99 %6.2f us, %d total)\n",
		r.AcceptsPerSec, float64(r.AcceptP50Ns)/1e3, float64(r.AcceptP99Ns)/1e3, r.Accepts)
	for _, sh := range r.Shards {
		fmt.Printf("  monitor shard %d: %7d events, dispatch p50 %5d ns, p99 %5d ns\n",
			sh.Shard, sh.Events, sh.P50Ns, sh.P99Ns)
	}
	fmt.Printf("  monitor dispatched %d connections\n", r.Dispatched)
	fmt.Println("paper: 1.4 M conns/s per app thread; monitor 5.3 M/s")
}

func ablate() {
	fast, takeover, locked := experiments.AblateToken()
	fmt.Printf("token sharing ablation (8B sends):\n")
	fmt.Printf("  token fast path:     %8.2f M op/s   (paper: 27 M)\n", fast/1e6)
	fmt.Printf("  take-over every op:  %8.2f M op/s   (paper: 1.6 M)\n", takeover/1e6)
	fmt.Printf("  mutex per op:        %8.2f M op/s   (paper: 5 M)\n", locked/1e6)

	opt := experiments.Stream(experiments.SysSD, 8, false, 4000).OpsPerSec
	unopt := experiments.Stream(experiments.SysSDUnopt, 8, false, 4000).OpsPerSec
	fmt.Printf("adaptive batching ablation (inter-host 8B): on %.1f M op/s, off %.1f M op/s\n",
		opt/1e6, unopt/1e6)

	zcOn := experiments.Stream(experiments.SysSD, 1<<20, true, 40).BytesPerSec
	zcOff := experiments.Stream(experiments.SysSDUnopt, 1<<20, true, 40).BytesPerSec
	fmt.Printf("zero copy ablation (intra-host 1MiB): remap %.1f Gbps, copy %.1f Gbps\n",
		zcOn*8/1e9, zcOff*8/1e9)
}

// drillResult is what every drill in internal/experiments returns: a
// PASS/FAIL verdict and the summary that explains it (EXPERIMENTS.md
// "Scenario kit").
type drillResult interface {
	Passed() bool
	String() string
}

var (
	chaos    = drill("chaos", func() drillResult { return experiments.Chaos(240, 1024) })
	crash    = drill("crash", func() drillResult { return experiments.Crash(4, 4, 1024) })
	mrestart = drill("mrestart", func() drillResult { return experiments.MRestart(4, 4, 4096, 150) })
	cluster  = drill("cluster", func() drillResult { return experiments.ClusterSoak() })
	// The full soak: 10k dials through the capped backlog (the unit-test
	// default keeps a faster flood; the CLI runs the paper-scale storm).
	overload = drill("overload", func() drillResult {
		return experiments.Overload(experiments.OverloadConfig{Dials: 10_000})
	})
)

// drill makes the command for one drill: run it, print its summary and the
// counters it moved, and on FAIL leave a flight-recorder dump and exit 1.
func drill(name string, run func() drillResult) func() {
	return func() {
		before := telemetry.Capture()
		r := run()
		fmt.Println(r)
		fmt.Println()
		if c, ok := r.(experiments.ClusterResult); ok {
			printMembership(c)
			fmt.Println()
		}
		printDeltas(name+" counter deltas (whole workload)", telemetry.Capture().Diff(before))
		if !r.Passed() {
			// The failing run ships its own evidence.
			writeDump(fmt.Sprintf("sd-flight-%s-failure.trace.json", name),
				obs.ForceDump(obs.TrigManual, 0, name+" soak failed its acceptance bar"))
			os.Exit(1)
		}
	}
}

// printMembership renders every survivor's membership view — the same
// table `sdbench sdstat cluster` serves, kept here so a bare `sdbench
// cluster` run shows where each monitor believes every peer landed.
func printMembership(r experiments.ClusterResult) {
	fmt.Println("== membership (every survivor's view) ==")
	tw := tabwriter.NewWriter(os.Stdout, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "VIEWER\tPEER\tSTATE\tEPOCH\tMISSED")
	for _, m := range r.Membership {
		fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%d\n", m.Viewer, m.Host, m.State, m.Epoch, m.Missed)
	}
	tw.Flush()
}
