package experiments

import (
	"fmt"

	"socksdirect/internal/fault"
	"socksdirect/internal/telemetry"
)

// Chaos runs the Table-2 style echo workload under a scripted fault
// schedule (internal/fault) and checks end-to-end correctness: every byte
// the client sends must come back exactly once, in order, unmodified —
// across a 1% loss burst, a 2-second network partition that kills every
// RDMA QP (MaxRetry * RTO ≈ 8.5 ms << 2 s), QP re-establishment with
// backoff once the partition heals, and a mid-stream degradation to
// kernel TCP for the pair whose recovery budget runs out during the
// outage (§4.5.3).
//
// Two client/server pairs share the cluster:
//
//   - pair A keeps the default recovery budget: its sockets stall through
//     the partition, then re-establish QPs and resynchronize the unacked
//     ring region (§4.2 two-copy design) — asserting FaultRecoveries > 0;
//   - pair B gets a budget of 4 attempts (~20 ms): it exhausts the budget
//     early in the partition and degrades to kernel TCP, which rides the
//     separate (healthy) net link — asserting FaultDegradations > 0 and
//     that traffic keeps flowing *during* the partition.
//
// The echo streams are seeded xorshift64 bytes compared in lockstep, so
// any loss, duplication, reordering or corruption shows up as a byte
// mismatch (or as an incomplete run, since the stream then never
// resynchronizes).

// ChaosResult is the outcome of one chaos run.
type ChaosResult struct {
	Rounds, Chunk int
	RunNs         int64

	CompletedA, CompletedB bool // both clients finished all rounds
	MismatchA, MismatchB   int  // chunks whose echo differed from the sent bytes

	Injected     int64 // faults applied
	Recoveries   int64 // QP re-establishments that completed
	Attempts     int64 // QP re-establishment attempts
	Degradations int64 // sockets that fell back to kernel TCP
	Rescues      int64 // monitor rescue connections built
	MchanHeals   int64 // monitor channels re-probed after QP death
	PoolLeak     int64 // the census's pooled-buffer delta across the run

	worldEnd
}

// verdict is the acceptance bar: all traffic delivered exactly, at least
// one recovery and one degradation observed.
func (r ChaosResult) verdict() verdict {
	return verdict{
		fmt.Sprintf("chaos: %d rounds x %dB x 2 pairs in %.2fs virtual", r.Rounds, r.Chunk, float64(r.RunNs)/1e9),
		[]check{
			expect("both streams complete", r.CompletedA && r.CompletedB,
				"pairA complete=%v, pairB complete=%v", r.CompletedA, r.CompletedB),
			byteExact(r.MismatchA == 0 && r.MismatchB == 0,
				"pairA mismatches=%d, pairB mismatches=%d", r.MismatchA, r.MismatchB),
			expect("a QP re-established", r.Recoveries >= 1,
				"faults injected=%d, recovery attempts=%d, recoveries=%d", r.Injected, r.Attempts, r.Recoveries),
			expect("a socket degraded to kernel TCP", r.Degradations >= 1,
				"degradations=%d, rescue conns=%d, mchan heals=%d", r.Degradations, r.Rescues, r.MchanHeals),
			nothingLeft(r.Left),
		},
	}
}

// Passed reports whether the run met the acceptance bar.
func (r ChaosResult) Passed() bool   { return r.verdict().Passed() }
func (r ChaosResult) String() string { return r.verdict().String() }

// chaosPace spaces client rounds so the streams span the fault window
// instead of completing before the first fault fires.
const chaosPace = 12_000_000 // 12 ms between rounds

// Chaos runs the scenario with `rounds` echo round-trips of `chunk` bytes
// per pair. rounds*chaosPace must exceed the last fault's end (~2.2 s
// virtual) so both streams are live across the whole schedule; the default
// used by sdbench and the soak test is 240 rounds (~3 s of traffic).
func Chaos(rounds, chunk int) ChaosResult { return chaos(rounds, chunk, 0) }

// chaos is Chaos with its hosts numbered after `skip` others
// (newWorldAfter).
func chaos(rounds, chunk, skip int) ChaosResult {
	w := newWorldAfter(skip)
	res := ChaosResult{Rounds: rounds, Chunk: chunk}

	inj := fault.New(w.a.Clk)
	// Both directions of the inter-host RDMA link. The kernel net link is
	// deliberately left out: the paper's fallback path assumes the TCP/IP
	// network does not share fate with the RDMA fabric.
	inj.AddLink("rdma", w.a.NIC.Port("hostB"), w.b.NIC.Port("hostA"))
	sched := []fault.Event{
		{At: 50_000_000, Kind: fault.LossBurst, Link: "rdma", Rate: 0.01, Dur: 4_000_000_000},
		{At: 200_000_000, Kind: fault.Partition, Link: "rdma", Dur: 2_000_000_000},
	}
	if err := inj.Run(sched); err != nil {
		panic("chaos: " + err.Error())
	}

	tl := startTally()
	a := chaosPair(w, 7300, rounds, chunk, 0)
	b := chaosPair(w, 7301, rounds, chunk, 4)
	res.RunNs = w.sim.Run()

	res.CompletedA, res.MismatchA = a.completed, a.mismatches
	res.CompletedB, res.MismatchB = b.completed, b.mismatches
	var d telemetry.Snapshot
	d, res.PoolLeak, _ = tl.end()
	res.Injected = d[telemetry.FaultInjected]
	res.Recoveries = d[telemetry.FaultRecoveries]
	res.Attempts = d[telemetry.FaultRecoveryAttempts]
	res.Degradations = d[telemetry.FaultDegradations]
	res.Rescues = d[telemetry.MonRescues]
	res.MchanHeals = d[telemetry.MonMchanHeals]
	res.worldEnd = endWorld(w.cl)
	return res
}

// chaosPair wires one paced echo pair: server on hostB, client on hostA.
// budget > 0 overrides the recovery budget on both processes.
func chaosPair(w *world, port uint16, rounds, chunk, budget int) *flowOutcome {
	pr := newPair(w.hb, w.ha, "", port)
	if budget > 0 {
		pr.srv.Lib.SetRecoveryBudget(budget)
		pr.cli.Lib.SetRecoveryBudget(budget)
	}
	return pr.echo(seedFor(port, 1), rounds, chunk, chaosPace)
}
