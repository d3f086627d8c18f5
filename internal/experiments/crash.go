package experiments

import (
	"fmt"

	sd "socksdirect"
	"socksdirect/internal/telemetry"
)

// Crash is the deterministic process-crash drill (§4.5.4): a cluster of
// streaming pairs — intra-host SHM and inter-host RDMA — where scheduled
// killers SIGKILL one end of every pair at fixed virtual times while the
// transfer is mid-flight. It asserts the whole death path end to end:
//
//   - the surviving end of each pair receives a byte-exact prefix of the
//     deterministic (xorshift-seeded) stream, then exactly one
//     ECONNRESET — and io.EOF / EPIPE on the operation after that;
//   - no survivor hangs: the simulation quiesces and every survivor
//     thread reached its errno (a lost wakeup shows up as Hung > 0, or
//     as a run that never quiesces and trips the test timeout);
//   - both monitors converge: no listener slots, token waiters, sleep
//     notes or connection records still reference a corpse
//     (monitor.CrashConverged);
//   - no pooled buffer leaks: the corpse's QPs are closed by the kernel
//     teardown hook, so bufpool.Outstanding returns to its baseline.
//
// Pair i kills its client when i is even and its server when i is odd,
// so both blocked-sender (full ring) and blocked-receiver (empty ring)
// wake paths are exercised on both transports.

// CrashResult is the outcome of one crash drill.
type CrashResult struct {
	IntraPairs, InterPairs int
	Victims                int
	RunNs                  int64

	Delivered    int64 // bytes verified byte-exact by surviving receivers
	PrefixErrors int   // survivors whose delivered prefix mismatched the stream
	GoodResets   int   // survivors that saw exactly one ECONNRESET then EOF/EPIPE
	BadErrnos    int   // survivors with a wrong errno (or errno sequence)
	Hung         int   // survivors that never reached an errno

	Cleanups   int64  // sd/monitor/crash_cleanups (one per corpse)
	CoreResets int64  // sd/core/resets (one per surviving socket)
	PoolLeak   int64  // bufpool.Outstanding delta across the run
	Converge   string // monitor.CrashConverged error, "" when converged
}

// verdict is the drill's acceptance bar.
func (r CrashResult) verdict() verdict {
	pairs := r.IntraPairs + r.InterPairs
	return verdict{
		fmt.Sprintf("crash: %d intra + %d inter pairs, %d victims killed in %.2fs virtual",
			r.IntraPairs, r.InterPairs, r.Victims, float64(r.RunNs)/1e9),
		[]check{
			byteExact(r.PrefixErrors == 0, "%d bytes delivered, %d prefix errors", r.Delivered, r.PrefixErrors),
			oneReset(r.GoodResets, pairs, r.BadErrnos, r.Hung),
			atLeast(telemetry.MonCrashCleanups, r.Cleanups, int64(r.Victims)),
			atLeast(telemetry.CoreResets, r.CoreResets, int64(pairs)),
			noDrift("bufpool", r.PoolLeak),
			converged(r.Converge),
		},
	}
}

// Passed reports whether the drill met the acceptance bar.
func (r CrashResult) Passed() bool   { return r.verdict().Passed() }
func (r CrashResult) String() string { return r.verdict().String() }

// crashPace spaces stream rounds so the scheduled kills land mid-transfer.
const crashPace = 100_000 // 100 us between chunks

// Crash runs the drill with the given pair counts; chunk is the stream
// chunk size. Kills are scheduled at 20 ms + 10 ms per victim, so every
// stream is mid-flight (and some receivers are parked in interrupt mode)
// when its peer dies.
func Crash(intraPairs, interPairs, chunk int) CrashResult {
	w := newWorld()
	res := CrashResult{IntraPairs: intraPairs, InterPairs: interPairs}
	tl := startTally()

	reaper := w.ha.NewProcess("reaper", 0)
	flows := make([]*flowOutcome, 0, intraPairs+interPairs)
	for i := 0; i < intraPairs; i++ {
		flows = append(flows, crashPair(w, reaper, 7400+uint16(i), w.ha, i%2 == 1, i, chunk))
	}
	for i := 0; i < interPairs; i++ {
		flows = append(flows, crashPair(w, reaper, 7500+uint16(i), w.hb, i%2 == 1, intraPairs+i, chunk))
	}
	res.Victims = len(flows)

	res.RunNs = w.sim.Run()

	s := sumFlows(flows)
	res.Delivered, res.PrefixErrors = s.delivered, s.mismatched
	res.GoodResets, res.BadErrnos, res.Hung = s.goodResets, s.badErrnos, s.hung
	var d telemetry.Snapshot
	d, res.PoolLeak, res.Converge = tl.end(w.ma, w.mb)
	res.Cleanups = d[telemetry.MonCrashCleanups]
	res.CoreResets = d[telemetry.CoreResets]
	return res
}

// crashPair wires one endless streaming pair, client on hostA and server
// on srvHost, and schedules its kill at 20 ms + 10 ms * seq. When
// killServer is set the client survives (blocked-sender path); otherwise
// the server survives (blocked-receiver path).
func crashPair(w *world, reaper *sd.Process, port uint16, srvHost *sd.Host, killServer bool,
	seq, chunk int) *flowOutcome {

	pr := newPair(srvHost, w.ha, "crash-", port)
	victim := pr.cli
	if killServer {
		victim = pr.srv
	}
	o := pr.stream(streamFlow{seed: seedFor(port, 7), chunk: chunk, pace: crashPace, victim: victim})
	o.severed = true
	killAt(reaper, port, int64(20_000_000+10_000_000*seq), victim)
	return o
}
