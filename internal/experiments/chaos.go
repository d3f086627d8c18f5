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
// RDMA QP (MaxRetry * RTO ≈ 8.5 ms << 2 s), and QP re-establishment with
// backoff once the partition heals.
//
// Two client/server pairs share the cluster. Each stalls through the
// partition, retrying its splice with backoff for as long as the peer
// stays silent, then re-establishes its QP and resynchronizes the unacked
// ring region (§4.2 two-copy design): the drill asserts one recovery per
// pair.
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

	Injected   int64 // faults applied
	Recoveries int64 // QP re-establishments that completed
	Attempts   int64 // QP re-establishment attempts
	MchanHeals int64 // monitor channels re-probed after QP death
	PoolLeak   int64 // the census's pooled-buffer delta across the run

	worldEnd
}

// verdict is the acceptance bar: all traffic delivered exactly, and each
// pair's QP re-established.
func (r ChaosResult) verdict() verdict {
	return verdict{
		fmt.Sprintf("chaos: %d rounds x %dB x 2 pairs in %.2fs virtual", r.Rounds, r.Chunk, float64(r.RunNs)/1e9),
		[]check{
			expect("both streams complete", r.CompletedA && r.CompletedB,
				"pairA complete=%v, pairB complete=%v", r.CompletedA, r.CompletedB),
			byteExact(r.MismatchA == 0 && r.MismatchB == 0,
				"pairA mismatches=%d, pairB mismatches=%d", r.MismatchA, r.MismatchB),
			expect("each pair re-established its QP", r.Recoveries >= 2,
				"faults injected=%d, recovery attempts=%d, recoveries=%d, mchan heals=%d",
				r.Injected, r.Attempts, r.Recoveries, r.MchanHeals),
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
	// Both directions of the inter-host RDMA link; the kernel net link is
	// left alone.
	inj.AddLink("rdma", w.a.NIC.Port("hostB"), w.b.NIC.Port("hostA"))
	sched := []fault.Event{
		{At: 50_000_000, Kind: fault.LossBurst, Link: "rdma", Rate: 0.01, Dur: 4_000_000_000},
		{At: 200_000_000, Kind: fault.Partition, Link: "rdma", Dur: 2_000_000_000},
	}
	if err := inj.Run(sched); err != nil {
		panic("chaos: " + err.Error())
	}

	tl := startTally()
	a := chaosPair(w, 7300, rounds, chunk)
	b := chaosPair(w, 7301, rounds, chunk)
	res.RunNs = w.sim.Run()

	res.CompletedA, res.MismatchA = a.completed, a.mismatches
	res.CompletedB, res.MismatchB = b.completed, b.mismatches
	var d telemetry.Snapshot
	d, res.PoolLeak, _ = tl.end()
	res.Injected = d[telemetry.FaultInjected]
	res.Recoveries = d[telemetry.FaultRecoveries]
	res.Attempts = d[telemetry.FaultRecoveryAttempts]
	res.MchanHeals = d[telemetry.MonMchanHeals]
	res.worldEnd = endWorld(w.cl)
	return res
}

// chaosPair wires one paced echo pair: server on hostB, client on hostA.
func chaosPair(w *world, port uint16, rounds, chunk int) *flowOutcome {
	return newPair(w.hb, w.ha, "", port).echo(seedFor(port, 1), rounds, chunk, chaosPace)
}
