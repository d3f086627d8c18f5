package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"text/tabwriter"

	"socksdirect/internal/experiments"
	"socksdirect/internal/monitor/shard"
	"socksdirect/internal/obs"
	"socksdirect/internal/telemetry"
)

// sdstatCmd runs a workload and prints the per-connection flow table —
// the `ss` of the simulated cluster: one row per socket endpoint with
// transport, state, byte/message counters, takeovers, recoveries,
// resets, send-ring high-water and the monitor epoch the endpoint saw.
//
// The cluster workload additionally prints every survivor monitor's
// membership view (peer, state, epoch) — the operator's way to ask "who
// does each host think is alive" after a drill.
//
// The flow table is followed by one connection-lifecycle row (connections
// reclaimed, socket rings reused / freshly allocated, SHM segments live):
// the one-command answer to "is this host leaking connections".
//
// Every workload's output ends with the backpressure counter block —
// the shed/refusal/timeout totals an operator reads to tell "overloaded
// and shedding cleanly" from "wedged" (see README "Operating under
// overload").
//
//	sdbench sdstat [-json] [crash|chaos|smoke|cluster|overload]
func sdstatCmd(args []string) {
	fs := flag.NewFlagSet("sdstat", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "emit the flow table as JSON")
	fs.Parse(args)
	workload := "crash"
	if fs.NArg() > 0 {
		workload = fs.Arg(0)
	}

	obs.Reset()
	obs.SetArmed(false) // induced faults are expected; no dumps
	var members []experiments.ClusterMember
	var r drillResult // its counters are the workload's, from before its world ended
	switch workload {
	case "crash":
		r = experiments.Crash(2, 2, 1024)
	case "chaos":
		r = experiments.Chaos(120, 1024)
	case "smoke":
		r = experiments.ObsSmoke(20, 512)
	case "cluster":
		c := experiments.ClusterSoak()
		r, members = c, c.Membership
	case "overload":
		r = experiments.Overload(experiments.OverloadConfig{})
	default:
		fmt.Fprintf(os.Stderr, "sdstat: unknown workload %q (want crash, chaos, smoke, cluster or overload)\n", workload)
		os.Exit(2)
	}
	fmt.Fprintln(os.Stderr, r)
	obs.SetArmed(true)

	flows := obs.Flows()
	snap := r.Counters()
	bpKeys, bp := backpressureCounters(snap)
	if *asJSON {
		out := any(flows)
		if workload == "cluster" {
			out = struct {
				Flows      any                         `json:"flows"`
				Membership []experiments.ClusterMember `json:"membership"`
			}{flows, members}
		}
		if workload == "overload" {
			out = struct {
				Flows        any              `json:"flows"`
				Backpressure map[string]int64 `json:"backpressure"`
			}{flows, bp}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "sdstat: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if members != nil {
		tw := tabwriter.NewWriter(os.Stdout, 2, 8, 2, ' ', 0)
		fmt.Fprintln(tw, "VIEWER\tPEER\tSTATE\tEPOCH\tMISSED")
		for _, m := range members {
			fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%d\n", m.Viewer, m.Host, m.State, m.Epoch, m.Missed)
		}
		tw.Flush()
		fmt.Println()
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "HOST\tPID\tQID\tSHARD\tPEER\tTRANSPORT\tSTATE\tBYTES-TX\tBYTES-RX\tMSGS-TX\tMSGS-RX\tTAKEOVER\tRECOV\tRESETS\tRING-HW\tEPOCH")
	for _, f := range flows {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%s\t%s\t%s\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%d\n",
			f.Host, f.PID, f.QID, f.Shard, f.Peer, f.Transport, f.State,
			f.BytesTx, f.BytesRx, f.MsgsTx, f.MsgsRx,
			f.Takeovers, f.Recovs, f.Resets, f.RingHW, f.Epoch)
	}
	tw.Flush()
	fmt.Printf("%d flows\n", len(flows))

	// Connection lifecycle: is anything leaking? Every closed connection
	// is reclaimed once per host it touched; SEGMENTS-LIVE counts what is
	// still registered (open sockets, plus half-closed ones), QPS-PARKED
	// the QPs finished connections left connected for the next dial.
	fmt.Println()
	tw = tabwriter.NewWriter(os.Stdout, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "CONNS-RECLAIMED\tRING-POOL-HITS\tRING-POOL-MISSES\tSEGMENTS-LIVE\tQPS-PARKED")
	fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%d\n", snap.Get(telemetry.CoreConnReclaims),
		snap.Get(telemetry.ShmRingPoolHits), snap.Get(telemetry.ShmRingPoolMisses),
		snap.Get(telemetry.ShmSegmentsLive), snap.Get(telemetry.CoreQPsParked))
	tw.Flush()

	fmt.Println()
	tw = tabwriter.NewWriter(os.Stdout, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "BACKPRESSURE COUNTER\tVALUE")
	for _, k := range bpKeys {
		fmt.Fprintf(tw, "%s\t%d\n", k, bp[k])
	}
	tw.Flush()
}

// backpressureCounters collects the overload valves' counters — how much
// work the run turned away, and through which valve. All zeros means the
// run never hit a cap; a wedge (hung flows) with zeros here means the
// stall is NOT clean shedding and needs the flight recorder.
func backpressureCounters(snap telemetry.Snapshot) ([]string, map[string]int64) {
	keys := []string{
		telemetry.CoreEWouldBlock,
		telemetry.CoreDeadlineTimeouts,
		telemetry.CoreConnRefused,
		telemetry.MemPoolQuotaRejects,
	}
	for i := 0; i < shard.DefaultCount; i++ {
		keys = append(keys, telemetry.MonShardInboxShed(i))
	}
	vals := make(map[string]int64, len(keys))
	for _, k := range keys {
		vals[k] = snap.Get(k)
	}
	return keys, vals
}

// obssmokeCmd is the CI observability gate: a short cross-host echo under
// tracing must yield one complete connect trace (>=5 causally ordered
// hops, breakdown summing to the end-to-end latency), and an induced
// retry exhaustion must produce exactly one flight-recorder dump. Both
// artifacts are written to -o for upload.
//
//	sdbench obssmoke [-o dir]
func obssmokeCmd(args []string) {
	fs := flag.NewFlagSet("obssmoke", flag.ExitOnError)
	outDir := fs.String("o", ".", "directory for trace and recorder artifacts")
	fs.Parse(args)

	smoke := experiments.ObsSmoke(20, 512)
	fmt.Println(smoke)
	// The smoke's rings as its run left them are the connect-trace artifact.
	writeDump(filepath.Join(*outDir, "sd-obssmoke-connect.trace.json"), smoke.Rings)

	drill := experiments.ObsRetryDrill(30, 1024)
	fmt.Println(drill)
	if drill.Dumps > 0 {
		writeDump(filepath.Join(*outDir, "sd-obssmoke-recorder.trace.json"), drill.Dump)
	}

	if !smoke.Passed() || !drill.Passed() {
		os.Exit(1)
	}
}

// writeDump writes d to path as Chrome trace_event JSON: the one file
// writer of -trace, obssmoke's artifacts and a failed drill's evidence. A
// write that fails is reported and exits 1.
func writeDump(path string, d obs.Dump) {
	f, err := os.Create(path)
	if err == nil {
		err = d.WriteChrome(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "sdbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d spans and events, %d flows)\n", path, len(d.Spans), len(d.Flows))
}
