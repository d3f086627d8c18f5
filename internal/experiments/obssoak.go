package experiments

import (
	"fmt"
	"strings"

	"socksdirect/internal/fault"
	"socksdirect/internal/obs"
)

// Observability soaks. ObsSmoke drives a short cross-host echo under
// causal tracing and checks the merged connect timeline end to end: the
// blocking connect on hostA must reconstruct into one trace whose spine
// walks app → control ring → monitor dispatch → mchan flight → peer
// dispatch (and back), with the per-hop breakdown summing to the
// end-to-end latency. ObsRetryDrill partitions the RDMA fabric under a
// tiny recovery budget and checks that retry exhaustion produces exactly
// one flight-recorder dump that carries the failing recovery attempts.

// ObsSmokeResult is the outcome of one tracing smoke run.
type ObsSmokeResult struct {
	Rounds, Chunk int
	RunNs         int64

	Echoed      bool  // the echo stream completed byte-exact
	Traces      int   // merged traces with a closed, OK root
	ConnectHops int   // spine length of the best cross-host connect trace
	ConnectNs   int64 // that trace's end-to-end duration
	HopSumNs    int64 // sum of its per-hop breakdown
	CrossHost   bool  // the spine visits both hosts
	FlowRows    int   // flow-table rows after the run
	TraceText   string

	// Trace is the merged connect timeline, kept for artifact output, and
	// Rings the recorder's rings as the run left them, before its world
	// ended.
	Trace obs.TraceView
	Rings obs.Dump

	worldEnd
}

// verdict is the acceptance bar: a complete cross-host connect trace of at
// least 5 causally ordered hops whose breakdown sums to within 5% of the
// end-to-end latency, plus a live flow row per endpoint.
func (r ObsSmokeResult) verdict() verdict {
	diff := r.ConnectNs - r.HopSumNs
	if diff < 0 {
		diff = -diff
	}
	return verdict{
		fmt.Sprintf("obssmoke: %d rounds x %dB echo in %.2fms virtual\n%s",
			r.Rounds, r.Chunk, float64(r.RunNs)/1e6, strings.TrimRight(r.TraceText, "\n")),
		[]check{
			byteExact(r.Echoed, "echo complete and exact=%v", r.Echoed),
			expect("one complete cross-host connect trace", r.ConnectHops >= 5 && r.CrossHost,
				"traces merged=%d; connect spine hops=%d cross-host=%v", r.Traces, r.ConnectHops, r.CrossHost),
			expect("hop breakdown sums to the end-to-end latency", r.ConnectNs > 0 && diff*20 <= r.ConnectNs,
				"end-to-end=%dns, hop sum=%dns", r.ConnectNs, r.HopSumNs),
			expect("a flow row per endpoint", r.FlowRows >= 2, "flow rows=%d", r.FlowRows),
			nothingLeft(r.Left),
		},
	}
}

// Passed reports whether the run met the acceptance bar.
func (r ObsSmokeResult) Passed() bool   { return r.verdict().Passed() }
func (r ObsSmokeResult) String() string { return r.verdict().String() }

// ObsSmoke runs the tracing smoke: one inter-host echo pair, tracing on,
// then merges the rings and inspects the connect timeline.
func ObsSmoke(rounds, chunk int) ObsSmokeResult {
	obs.Reset()
	obs.SetEnabled(true)
	obs.SetArmed(false) // a clean run must not dump
	res := ObsSmokeResult{Rounds: rounds, Chunk: chunk}

	// One echo pair (client hostA, server hostB) with no fault schedule and
	// no pacing — the smoke wants a fast clean run.
	w := newWorld()
	const port = 7600
	o := newPair(w.hb, w.ha, "obs-", port).echo(port+1, rounds, chunk, 0)
	res.RunNs = w.sim.Run()
	res.Echoed = o.completed && o.mismatches == 0

	for _, tv := range obs.MergeAll() {
		if tv.Root.OK {
			res.Traces++
		}
		if tv.Root.Op != obs.OpConnect || !tv.Complete(5) {
			continue
		}
		hosts := map[string]bool{}
		var sum int64
		for _, h := range tv.Hops {
			hosts[h.Host] = true
			sum += h.Ns
		}
		if len(hosts) < 2 || tv.HopCount() <= res.ConnectHops {
			continue
		}
		res.ConnectHops = tv.HopCount()
		res.ConnectNs = tv.Duration()
		res.HopSumNs = sum
		res.CrossHost = true
		res.TraceText = tv.Format()
		res.Trace = tv
	}
	res.FlowRows = len(obs.Flows())
	res.Rings = obs.ForceDump(obs.TrigManual, res.RunNs, "obssmoke connect trace")
	res.worldEnd = endWorld(w.cl)
	obs.SetArmed(true)
	return res
}

// ObsDrillResult is the outcome of one QP-recovery recorder drill.
type ObsDrillResult struct {
	Rounds, Chunk int
	RunNs         int64

	Echoed        bool   // the stream finished byte-exact after the partition
	Dumps         int    // flight-recorder dumps produced
	FirstReason   string // reason of the first dump
	RecoverySpans int    // failed OpRecovery root spans inside the dump

	// Dump is the first (and, on a pass, only) recorder artifact; soak
	// drivers write it out as CI evidence.
	Dump obs.Dump

	worldEnd
}

// verdict: the recovery that ends the partition must produce exactly one
// dump, carrying the failed recovery attempts before it, and the stream
// must complete.
func (r ObsDrillResult) verdict() verdict {
	return verdict{
		fmt.Sprintf("obsdrill: %d rounds x %dB through a partition in %.2fs virtual",
			r.Rounds, r.Chunk, float64(r.RunNs)/1e9),
		[]check{
			expect("exactly one flight-recorder dump, with the failed recoveries",
				r.Dumps == 1 && r.FirstReason == "qp_recovery" && r.RecoverySpans >= 1,
				"dumps=%d first=%q recovery spans in dump=%d", r.Dumps, r.FirstReason, r.RecoverySpans),
			expect("the echo completes after the partition", r.Echoed, "echo complete=%v", r.Echoed),
			nothingLeft(r.Left),
		},
	}
}

// Passed reports whether the drill met the acceptance bar.
func (r ObsDrillResult) Passed() bool   { return r.verdict().Passed() }
func (r ObsDrillResult) String() string { return r.verdict().String() }

// ObsRetryDrill partitions the RDMA link for 2 s: the socket's splice
// attempts fail until the partition heals, the recovery that then
// completes dumps the recorder once (the cooldown is stretched past the
// run so later triggers coalesce), and the stream finishes byte-exact.
func ObsRetryDrill(rounds, chunk int) ObsDrillResult {
	obs.Reset()
	obs.SetEnabled(true)
	obs.SetCooldown(1 << 62) // one dump per run: every later trigger coalesces
	res := ObsDrillResult{Rounds: rounds, Chunk: chunk}

	var dumps []obs.Dump
	obs.SetSink(func(d obs.Dump) { dumps = append(dumps, d) })

	w := newWorld()
	inj := fault.New(w.a.Clk)
	inj.AddLink("rdma", w.a.NIC.Port("hostB"), w.b.NIC.Port("hostA"))
	if err := inj.Run([]fault.Event{
		{At: 50_000_000, Kind: fault.Partition, Link: "rdma", Dur: 2_000_000_000},
	}); err != nil {
		panic("obsdrill: " + err.Error())
	}

	o := chaosPair(w, 7650, rounds, chunk)
	res.RunNs = w.sim.Run()
	res.Echoed = o.completed && o.mismatches == 0

	res.Dumps = len(dumps)
	if len(dumps) > 0 {
		res.FirstReason = dumps[0].Name
		res.Dump = dumps[0]
		for _, sp := range dumps[0].Spans {
			if sp.Hop == obs.HopApp && sp.Op == obs.OpRecovery && !sp.OK {
				res.RecoverySpans++
			}
		}
	}
	res.worldEnd = endWorld(w.cl)
	obs.Reset() // restore cooldown and drop the sink
	return res
}
