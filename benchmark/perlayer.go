package main

import (
	"fmt"
	"os"
	"strings"

	"socksdirect/internal/bufpool"
	"socksdirect/internal/monitor/shard"
	"socksdirect/internal/obs"
	"socksdirect/internal/telemetry"
)

// perLayer is the catalogue of per-layer metrics: the microbenchmarks of
// layers.go (A) and what the traced repetition yields (B). README.md says
// which end-to-end metric each should move.
var perLayer = []metricDef{
	// A: microbenchmarks, the same for every workload.
	{"exec.yield_switch_ns", "ns"},
	{"exec.park_unpark_ns", "ns"},
	{"exec.timer_event_ns", "ns"},
	{"exec.charge_ns", "ns"},
	{"exec.allocs_per_event", "count"},
	{"exec.spawn_ns", "ns"},
	{"shm.ring_rt_ns_8B", "ns"},
	{"shm.ring_rt_ns_1KiB", "ns"},
	{"shm.ring_rt_ns_8KiB", "ns"},
	{"shm.ring_burst_ns_per_msg", "ns"},
	{"shm.ring_allocs_per_op", "count"},
	{"shm.ring_new_ns_128KiB", "ns"},
	{"rdma.write_host_ns_1KiB", "ns"},
	{"rdma.write_sim_ns_1KiB", "sim_ns"},
	{"rdma.write_batch_host_ns_per_wr", "ns"},
	{"rdma.write_allocs_per_op", "count"},
	{"rdma.qp_setup_host_ns", "ns"},
	{"rdma.qp_setup_allocs", "count"},
	{"fabric.frame_host_ns", "ns"},
	{"fabric.frame_allocs", "count"},
	{"mem.remap_host_ns_per_page", "ns"},
	{"mem.remap_allocs_per_msg", "count"},
	{"mem.cow_write_host_ns_per_page", "ns"},
	{"mem.copy_host_ns_per_KiB", "ns"},
	{"bufpool.get_release_ns_1KiB", "ns"},
	{"ctlmsg.codec_ns", "ns"},
	{"ctlmsg.codec_allocs", "count"},
	// B: the traced repetition of the workload — telemetry counter deltas
	// over the window, obs control-op spans, and the benchmark's own spans.
	{"shm.send_full_per_op", "count"},
	{"shm.credit_returns_per_op", "count"},
	{"shm.batch_bytes_p50", "B"},
	{"rdma.wqes_per_op", "count"},
	{"rdma.packets_per_op", "count"},
	{"rdma.retransmits", "count"},
	{"fabric.frames_per_op", "count"},
	{"fabric.drops", "count"},
	{"mem.page_remaps_per_op", "count"},
	{"mem.cow_faults_per_op", "count"},
	{"bufpool.miss_ratio", "ratio"},
	{"bufpool.outstanding_end", "count"},
	{"monitor.ctl_msgs_per_op", "count"},
	{"monitor.dispatch_intra_sim_p50_ns", "sim_ns"},
	{"monitor.dispatch_intra_sim_p99_ns", "sim_ns"},
	{"monitor.dispatch_inter_sim_p50_ns", "sim_ns"},
	{"monitor.dispatch_inter_sim_p99_ns", "sim_ns"},
	{"monitor.shard_imbalance", "ratio"},
	{"monitor.spine_proc_ring_sim_ns", "sim_ns"},
	{"monitor.spine_mon_dispatch_sim_ns", "sim_ns"},
	{"monitor.spine_shard_dispatch_sim_ns", "sim_ns"},
	{"monitor.spine_mchan_flight_sim_ns", "sim_ns"},
	{"monitor.spine_peer_dispatch_sim_ns", "sim_ns"},
	{"core.send_host_ns", "ns"},
	{"core.send_sim_ns", "sim_ns"},
	{"core.recv_host_ns", "ns"},
	{"core.recv_sim_ns", "sim_ns"},
	{"core.sendva_host_ns", "ns"},
	{"core.recvva_host_ns", "ns"},
	{"core.dial_host_ns", "ns"},
	{"core.dial_sim_ns", "sim_ns"},
	{"core.accept_host_ns", "ns"},
	{"core.close_host_ns", "ns"},
	{"core.token_fast_ratio", "ratio"},
	{"core.recv_sleeps_per_op", "count"},
	{"core.zc_remap_ratio", "ratio"},
	// Steady-state heap cost of one op (min of the untraced window's two
	// halves), and what tracing costs.
	{"allocs_per_op", "count"},
	{"bytes_per_op", "B"},
	{"trace_overhead_ratio", "ratio"},
}

// set records a per-layer metric under its catalogued unit.
func (rep *report) set(name string, v float64) {
	for _, d := range perLayer {
		if d.name == name {
			rep.Metrics[name] = value{Value: v, Unit: d.unit}
			return
		}
	}
	panic("benchmark: metric " + name + " is not in the catalogue")
}

func addLayerBenches(rep *report, o options) {
	scale := 1
	if o.short {
		scale = 50
	}
	for name, v := range layerBenches(scale) {
		rep.set(name, v)
	}
}

// runPerLayer produces every per-layer metric for each selected workload:
// the microbenchmarks once, then per workload an untraced, a traced and
// another untraced repetition of the same size. The tracing overhead is
// taken against the second untraced one: the first repetition of a process
// allocates from never-used heap and is not comparable with its successors.
func runPerLayer(selected []*workload, o options) []*report {
	micro := &report{Metrics: map[string]value{}}
	addLayerBenches(micro, o)
	var reports []*report
	for _, w := range selected {
		rep := &report{Name: w.name + "/layers", Correct: true, Metrics: map[string]value{}}
		for k, v := range micro.Metrics {
			rep.Metrics[k] = v
		}
		ops := o.tracedOpsFor(w)
		plain := newRep(w, o.seed, ops, false)
		plain.run()
		base := plain.result()
		rep.set("allocs_per_op", base.AllocsPerOp)
		rep.set("bytes_per_op", base.BytesPerOp)

		traced := newRep(w, o.seed, ops, true)
		traced.run()
		res := traced.result()
		again := newRep(w, o.seed, ops, false)
		again.run()
		untraced := again.result()
		rep.Attempted = base.Attempted + res.Attempted + untraced.Attempted
		rep.Failed = base.Failed + res.Failed + untraced.Failed
		if rep.Failed > 0 {
			rep.Correct = false
		}
		if untraced.HostNsPerOp > 0 {
			rep.set("trace_overhead_ratio", res.HostNsPerOp/untraced.HostNsPerOp)
		}
		if !traced.hostClose.IsZero() {
			if err := traced.tr.checkTiling(traced); err != nil {
				rep.Correct = false
				rep.Notes = append(rep.Notes, "span tiling: "+err.Error())
			}
			tracedMetrics(rep, traced)
		}
		if out := bufpool.Outstanding(); out != 0 {
			rep.Correct = false
			rep.Notes = append(rep.Notes, fmt.Sprintf("bufpool.outstanding_end = %d, want 0", out))
		}
		if o.out != "" {
			if err := traced.tr.write(o.out, traced); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				rep.Correct = false
			}
		}
		reports = append(reports, rep)
	}
	return reports
}

// tracedMetrics fills the B metrics from one traced repetition.
func tracedMetrics(rep *report, r *rep) {
	ops := float64(r.ops)
	d := r.tel[1].Diff(r.tel[0])
	perOp := func(key string) float64 { return float64(d.Get(key)) / ops }
	ratio := func(num, den int64) float64 {
		if den == 0 {
			return 0
		}
		return float64(num) / float64(den)
	}

	rep.set("shm.send_full_per_op", perOp(telemetry.ShmSendFull))
	rep.set("shm.credit_returns_per_op", perOp(telemetry.ShmCreditReturns))
	rep.set("shm.batch_bytes_p50", float64(telemetry.D(telemetry.ShmBatchSize).Quantile(0.5)))
	rep.set("rdma.wqes_per_op", perOp(telemetry.RdmaWQEsPosted))
	rep.set("rdma.packets_per_op", perOp(telemetry.RdmaPacketsTx))
	rep.set("rdma.retransmits", float64(d.Get(telemetry.RdmaRetransmits)))
	rep.set("fabric.frames_per_op", perOp(telemetry.FabricTxFrames))
	rep.set("fabric.drops", float64(d.Get(telemetry.FabricDrops)))
	rep.set("mem.page_remaps_per_op", perOp(telemetry.HostPageRemaps))
	rep.set("mem.cow_faults_per_op", perOp(telemetry.HostCOWFaults))
	rep.set("bufpool.miss_ratio", ratio(d.Get(telemetry.MemPoolMisses), d.Get(telemetry.MemPoolGets)))
	rep.set("bufpool.outstanding_end", float64(bufpool.Outstanding()))

	rep.set("monitor.ctl_msgs_per_op", perOp(telemetry.MonCtlMsgs))
	// The dispatch distributions cover the whole repetition (set-up and
	// warm-up too): a quantile cannot be differenced over a window.
	intra, inter := telemetry.D(telemetry.MonDispatchIntra), telemetry.D(telemetry.MonDispatchInter)
	rep.set("monitor.dispatch_intra_sim_p50_ns", float64(intra.Quantile(0.50)))
	rep.set("monitor.dispatch_intra_sim_p99_ns", float64(intra.Quantile(0.99)))
	rep.set("monitor.dispatch_inter_sim_p50_ns", float64(inter.Quantile(0.50)))
	rep.set("monitor.dispatch_inter_sim_p99_ns", float64(inter.Quantile(0.99)))
	var lo, hi int64 = 1 << 62, 0
	for i := 0; i < shard.DefaultCount; i++ {
		ev := d.Get(telemetry.MonShardEvents(i))
		if ev < lo {
			lo = ev
		}
		if ev > hi {
			hi = ev
		}
	}
	if lo == 0 {
		lo = 1 // an idle shard: report the busiest shard's count
	}
	rep.set("monitor.shard_imbalance", ratio(hi, lo))
	connectSpine(rep)

	by, self := r.tr.stats()
	rep.set("core.send_host_ns", by[spSend].hostMean())
	rep.set("core.send_sim_ns", by[spSend].simMean())
	rep.set("core.recv_host_ns", by[spRecv].hostMean())
	rep.set("core.recv_sim_ns", by[spRecv].simMean())
	rep.set("core.sendva_host_ns", by[spSendVA].hostMean())
	rep.set("core.recvva_host_ns", by[spRecvVA].hostMean())
	rep.set("core.dial_host_ns", by[spDial].hostMean())
	rep.set("core.dial_sim_ns", by[spDial].simMean())
	rep.set("core.accept_host_ns", by[spAccept].hostMean())
	rep.set("core.close_host_ns", by[spClose].hostMean())
	fast := d.Get(telemetry.CoreTokenFast)
	rep.set("core.token_fast_ratio", ratio(fast, fast+d.Get(telemetry.CoreTokenTakeover)))
	rep.set("core.recv_sleeps_per_op", perOp(telemetry.CoreRecvSleeps))
	remaps, copies := d.Get(telemetry.CoreZCRemaps), d.Get(telemetry.CoreZCCopies)
	rep.set("core.zc_remap_ratio", ratio(remaps, remaps+copies))
	rep.Notes = append(rep.Notes, fmt.Sprintf("op root spans: %d, mean %.0f host ns / %.0f sim ns, of which outside any sd call %.0f host ns / %.0f sim ns",
		by[spOp].n, by[spOp].hostMean(), by[spOp].simMean(), self.hostMean(), self.simMean()))
}

// connectSpine averages the telescoped hop latencies of every complete
// connect trace obs still holds (its rings keep the most recent spans). The
// hops, the app leg included, sum to the Dial's simulated duration.
func connectSpine(rep *report) {
	var sum [obs.HopShardDispatch + 1]int64
	var dials, total int64
	for _, tv := range obs.MergeAll() {
		if tv.Root.Op != obs.OpConnect || !tv.Root.OK {
			continue
		}
		dials++
		total += tv.Duration()
		for _, h := range tv.Hops {
			if int(h.Hop) < len(sum) {
				sum[h.Hop] += h.Ns
			}
		}
	}
	mean := func(h obs.Hop) float64 {
		if dials == 0 {
			return 0
		}
		return float64(sum[h]) / float64(dials)
	}
	rep.set("monitor.spine_proc_ring_sim_ns", mean(obs.HopProcRing))
	rep.set("monitor.spine_mon_dispatch_sim_ns", mean(obs.HopMonDispatch))
	rep.set("monitor.spine_shard_dispatch_sim_ns", mean(obs.HopShardDispatch))
	rep.set("monitor.spine_mchan_flight_sim_ns", mean(obs.HopMchanFlight))
	rep.set("monitor.spine_peer_dispatch_sim_ns", mean(obs.HopPeerDispatch))
	if dials > 0 {
		var parts []string
		for h := obs.HopApp; h <= obs.HopShardDispatch; h++ {
			parts = append(parts, fmt.Sprintf("%s %.0f", h, mean(h)))
		}
		rep.Notes = append(rep.Notes, fmt.Sprintf("connect spine over %d dials: %s = %.0f sim ns per dial",
			dials, strings.Join(parts, " + "), float64(total)/float64(dials)))
	}
}
