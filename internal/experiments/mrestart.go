package experiments

import (
	"fmt"

	sd "socksdirect"
	"socksdirect/internal/monitor"
	"socksdirect/internal/telemetry"
)

// MRestart is the monitor-restart drill (restart survivability): a cluster
// of streaming pairs — intra-host SHM and inter-host RDMA — keeps moving a
// deterministic byte stream while each host's monitor daemon is stopped
// and, after a real downtime window, restarted as a new incarnation. It
// asserts the paper's control/data-plane split end to end:
//
//   - established connections are monitor-independent: every stream
//     delivers its full byte-exact payload with zero resets, across both
//     restarts (a receiver parked through the outage is re-woken by the
//     new incarnation's re-registration sweep);
//   - control-plane operations issued while a monitor is down are bounded:
//     a dial observes ETIMEDOUT/EAGAIN within the libsd silence deadline —
//     never a hang — and a retry succeeds once the successor answers;
//   - the successor provably discards the dead incarnation's mail: requests
//     written to the SHM control rings during the outage carry the old
//     epoch and are dropped (sd/monitor/stale_dropped > 0);
//   - state resurrection runs: every adopted process replays its bind
//     table, sockets, tokens and sleep notes (sd/monitor/reregistrations
//     counts one completed report per process);
//   - nothing leaks: pooled buffers return to baseline and both successor
//     monitors pass CrashConverged.
//
// Monitor A restarts first (stop 20 ms, restart 50 ms), then monitor B
// (stop 80 ms, restart 110 ms), so every stream spans both outages and
// each host exercises both the "my monitor died" and the "my peer's
// monitor died" sides.

// MRestartResult is the outcome of one monitor-restart drill.
type MRestartResult struct {
	IntraPairs, InterPairs int
	Restarts               int // monitor incarnations replaced (scheduled)
	RunNs                  int64

	Delivered    int64 // bytes verified byte-exact by stream receivers
	PrefixErrors int   // receivers whose stream mismatched the expected bytes
	StreamErrors int   // stream ops that returned any error (resets included)
	Unfinished   int   // streams that did not deliver their full payload

	ProbeTimeouts int   // downtime dials that returned ETIMEDOUT/EAGAIN
	ProbeHangs    int   // downtime dials that blocked past the latency bound
	ProbeOK       int   // probers whose retry connected and echoed end to end
	WorstDialNs   int64 // slowest single dial attempt (virtual)

	RestartsSeen int64  // sd/monitor/restarts
	StaleDropped int64  // sd/monitor/stale_dropped
	ReRegs       int64  // sd/monitor/reregistrations
	PoolLeak     int64  // bufpool.Outstanding delta across the run
	Converge     string // CrashConverged error from either successor, "" if ok
}

// verdict is the drill's acceptance bar.
func (r MRestartResult) verdict() verdict {
	return verdict{
		fmt.Sprintf("mrestart: %d intra + %d inter pairs across %d monitor restarts, %.2fs virtual",
			r.IntraPairs, r.InterPairs, r.Restarts, float64(r.RunNs)/1e9),
		[]check{
			byteExact(r.PrefixErrors == 0, "%d bytes delivered, %d prefix errors", r.Delivered, r.PrefixErrors),
			expect("established streams are monitor-independent", r.StreamErrors == 0 && r.Unfinished == 0,
				"%d stream errors, %d unfinished", r.StreamErrors, r.Unfinished),
			expect("downtime dials time out, then recover", r.ProbeTimeouts >= 1 && r.ProbeOK == 2,
				"%d timed out bounded, %d/2 probers recovered", r.ProbeTimeouts, r.ProbeOK),
			boundedWait(r.ProbeHangs == 0, "%d downtime dials hung, worst %.2fms (bound %.0fms)",
				r.ProbeHangs, float64(r.WorstDialNs)/1e6, float64(mrDialBound)/1e6),
			atLeast(telemetry.MonRestarts, r.RestartsSeen, int64(r.Restarts)),
			atLeast(telemetry.MonStaleDropped, r.StaleDropped, 1),
			atLeast(telemetry.MonReregistrations, r.ReRegs, 1),
			noDrift("bufpool", r.PoolLeak),
			converged(r.Converge),
		},
	}
}

// Passed reports whether the drill met the acceptance bar.
func (r MRestartResult) Passed() bool   { return r.verdict().Passed() }
func (r MRestartResult) String() string { return r.verdict().String() }

const (
	mrPace     = 1_000_000 // 1 ms between stream chunks: spans both outages
	mrStopA    = 20_000_000
	mrRestartA = 50_000_000
	mrStopB    = 80_000_000
	mrRestartB = 110_000_000
	// A dial against a dead monitor must resolve within the libsd silence
	// deadline (10 ms) plus polling slack; anything slower counts as a hang.
	mrDialBound = 20_000_000
)

// MRestart runs the drill: intraPairs SHM pairs on hostA, interPairs RDMA
// pairs hostA->hostB, each streaming chunks*chunk bytes, while both hosts'
// monitors restart mid-flight.
func MRestart(intraPairs, interPairs, chunk, chunks int) MRestartResult {
	w := newWorld()
	res := MRestartResult{IntraPairs: intraPairs, InterPairs: interPairs, Restarts: 2}
	tl := startTally()

	// Paced streams that span the whole drill. Both ends connect before the
	// first restart; from then on only the data plane is exercised — any
	// error (a reset above all) is a drill failure.
	flows := make([]*flowOutcome, 0, intraPairs+interPairs)
	pairOn := func(srvHost *sd.Host, port uint16) {
		f := streamFlow{seed: seedFor(port, 7), chunk: chunk, chunks: chunks, pace: mrPace}
		flows = append(flows, newPair(srvHost, w.ha, "mr-", port).stream(f))
	}
	for i := 0; i < intraPairs; i++ {
		pairOn(w.ha, 7600+uint16(i))
	}
	for i := 0; i < interPairs; i++ {
		pairOn(w.hb, 7700+uint16(i))
	}

	// Echo services the downtime probers dial into (one per host, so each
	// prober's connect crosses its own — dead — monitor first).
	echoOn := func(h *sd.Host, port uint16) {
		h.NewProcess(fmt.Sprintf("mr-echo%d", port), 0).Go("echo", func(t *sd.T) {
			acceptLoop(t, port, 0, echoOnce)
		})
	}
	echoOn(w.ha, 7610)
	echoOn(w.hb, 7710)
	var probes mrProbes
	probes.from(w.ha, "hostB", 7710, mrStopA+5_000_000)
	probes.from(w.hb, "hostA", 7610, mrStopB+5_000_000)

	// The restart schedule. Stop and Restart are split so there is a real
	// downtime window: requests issued in between land in SHM control rings
	// nobody drains, stamped with the dead incarnation's epoch.
	var monA2, monB2 *monitor.Monitor
	timeline(w.sim, "restart-ctl",
		action{mrStopA, w.ma.Stop},
		action{mrRestartA, func() { monA2 = monitor.Restart(w.a) }},
		action{mrStopB, w.mb.Stop},
		action{mrRestartB, func() { monB2 = monitor.Restart(w.b) }})

	res.RunNs = w.sim.Run()

	s := sumFlows(flows)
	res.Delivered, res.PrefixErrors = s.delivered, s.mismatched
	res.StreamErrors, res.Unfinished = s.opErrors, len(flows)-s.completed
	res.ProbeTimeouts, res.ProbeHangs, res.ProbeOK = probes.down, probes.hangs, probes.echoed
	res.WorstDialNs = probes.worstNs
	var d telemetry.Snapshot
	d, res.PoolLeak, res.Converge = tl.end(monA2, monB2)
	res.RestartsSeen = d[telemetry.MonRestarts]
	res.StaleDropped = d[telemetry.MonStaleDropped]
	res.ReRegs = d[telemetry.MonReregistrations]
	return res
}

// mrProbes is what the downtime probers observed.
type mrProbes struct {
	dialStats
	hangs int // failed attempts that blocked longer than mrDialBound
}

// from dials dst:port from a process on h, starting at startAt — inside
// h's monitor downtime window — and retries until a dial succeeds and its
// probe byte is echoed. Each failed attempt must be the bounded kind:
// ErrMonitorDown (ETIMEDOUT or EAGAIN) within mrDialBound.
func (pr *mrProbes) from(h *sd.Host, dst string, port uint16, startAt int64) {
	h.NewProcess(fmt.Sprintf("mr-probe%d", port), 0).Go("probe", func(t *sd.T) {
		t.Sleep(startAt)
		for attempt := 0; attempt < 100; attempt++ {
			c, err := pr.dial(t, dst, port)
			if err == nil {
				pr.probe(c)
				return
			}
			if pr.lastNs > mrDialBound {
				pr.hangs++
			}
			t.Sleep(2_000_000)
		}
	})
}
