package rdma

import (
	"testing"

	"socksdirect/internal/bufpool"
	"socksdirect/internal/fabric"
	"socksdirect/internal/telemetry"
)

// TestQPSteadyStateAllocs is the regression guard for the pooled data
// path: a 1 KiB WRITE-WITH-IMM — post, wire transit, delivery into the
// remote MR, ack, completion on both CQs, and the RTO timer cycle — must
// run at ZERO allocations per message once pools are warm (the batch-path
// acceptance bound; the SHM path's 0-alloc guard lives in internal/shm).
// A few stray allocations can bleed in from runtime background work, so
// the guard takes the best of three windows — a real per-op allocation
// shows up in every window.
func TestQPSteadyStateAllocs(t *testing.T) {
	p := newPair(t, fabric.Config{PropDelay: 800}, 1<<16)
	payload := make([]byte, 1024)
	op := func() {
		if err := p.qa.PostWrite(1, payload, p.mrb.RKey(), 0, 1, true); err != nil {
			t.Fatal(err)
		}
		p.sim.Run() // drains delivery, ack, completions, and the RTO no-op
		for {
			if _, ok := p.cqaS.PollOne(); !ok {
				break
			}
		}
		for {
			if _, ok := p.cqbR.PollOne(); !ok {
				break
			}
		}
	}
	// Warm the packet, buffer and delivery free lists and grow every
	// amortized slice (event heap, CQ items, inflight window) to steady
	// state.
	for i := 0; i < 64; i++ {
		op()
	}
	var avg float64
	for attempt := 0; attempt < 3; attempt++ {
		avg = testing.AllocsPerRun(200, op)
		if avg == 0 {
			break
		}
	}
	if avg != 0 && !raceEnabled {
		t.Fatalf("RDMA 1KiB write path allocates %.2f per op, want 0", avg)
	}
}

// TestPoolBalanceAfterDrain: every staging buffer drawn by the send path
// returns to the pool once the wire drains — the queue reference dies on
// the cumulative ack, the fabric reference after delivery.
func TestPoolBalanceAfterDrain(t *testing.T) {
	before := bufpool.Outstanding()
	p := newPair(t, fabric.Config{PropDelay: 800}, 1<<16)
	payload := make([]byte, 4096)
	for i := 0; i < 50; i++ {
		if err := p.qa.PostWrite(uint64(i), payload, p.mrb.RKey(), 0, 0, true); err != nil {
			t.Fatal(err)
		}
	}
	p.sim.Run()
	if got := bufpool.Outstanding(); got != before {
		t.Fatalf("pool outstanding %d after drain, want %d", got, before)
	}
}

// TestPoolBalanceUnderLoss: with heavy loss the same buffer is
// retransmitted many times and many copies die on the wire; the drop
// path must release the fabric's reference for each lost copy.
func TestPoolBalanceUnderLoss(t *testing.T) {
	before := bufpool.Outstanding()
	p := newPair(t, fabric.Config{PropDelay: 800, LossRate: 0.3, Seed: 9}, 1<<16)
	payload := make([]byte, 1024)
	for i := 0; i < 40; i++ {
		if err := p.qa.PostWrite(uint64(i), payload, p.mrb.RKey(), 0, 0, true); err != nil {
			t.Fatal(err)
		}
	}
	p.sim.Run() // retransmits until everything is acked or retries exhaust
	p.qa.Close()
	p.qb.Close()
	p.sim.Run()
	if got := bufpool.Outstanding(); got != before {
		t.Fatalf("pool outstanding %d after lossy drain + close, want %d", got, before)
	}
}

// TestPoolBalanceAfterRetryExhaustion: a fully partitioned link drops
// every copy at the sender; when the retry budget exhausts, the error
// transition must hand the whole window back to the pool (core's QP
// recovery then closes the QP and splices a new one).
func TestPoolBalanceAfterRetryExhaustion(t *testing.T) {
	before := bufpool.Outstanding()
	p := newPair(t, fabric.Config{PropDelay: 800, LossRate: 1.0, Seed: 3}, 1<<16)
	payload := make([]byte, 1024)
	for i := 0; i < 20; i++ {
		if err := p.qa.PostWrite(uint64(i), payload, p.mrb.RKey(), 0, 0, true); err != nil {
			t.Fatal(err)
		}
	}
	p.sim.Run()
	if p.qa.State() != QPErr {
		t.Fatal("expected retry exhaustion to error the QP")
	}
	p.qa.Close()
	p.qb.Close()
	p.sim.Run()
	if got := bufpool.Outstanding(); got != before {
		t.Fatalf("pool outstanding %d after retry exhaustion, want %d", got, before)
	}
}

// TestPoolBalanceAfterMidstreamClose: closing a QP with frames still in
// flight must not double-release — the fabric's copies land on an
// errored (then deleted) QP and die in the fabric's post-delivery
// release, while Close releases only the queue's references.
func TestPoolBalanceAfterMidstreamClose(t *testing.T) {
	before := bufpool.Outstanding()
	p := newPair(t, fabric.Config{PropDelay: 800}, 1<<16)
	payload := make([]byte, 2048)
	for i := 0; i < 30; i++ {
		if err := p.qa.PostWrite(uint64(i), payload, p.mrb.RKey(), 0, 0, true); err != nil {
			t.Fatal(err)
		}
	}
	// Close before running the sim: every transmitted frame is still "on
	// the wire" when the send queue flushes.
	p.qa.Close()
	p.qb.Close()
	p.sim.Run()
	if got := bufpool.Outstanding(); got != before {
		t.Fatalf("pool outstanding %d after midstream close, want %d", got, before)
	}
}

// TestPacketCensusUnderLoss: every packet a NIC hands out — data segments,
// their retransmitted copies' owner, standalone acks and the re-acks of
// out-of-order arrivals — is back on that NIC's free list once both QPs are
// closed and the fabric has drained. Each NIC starts with a known set of
// packets and may make no more, so a path that skips one release leaves a
// packet missing from the set. An ack carries no payload, so
// bufpool.Outstanding cannot see an ack that leaks; this census can.
func TestPacketCensusUnderLoss(t *testing.T) {
	const stock = 512
	before, wire := bufpool.Outstanding(), readWire()
	ooo := telemetry.C(telemetry.RdmaOutOfOrder).Load()
	p := newPair(t, fabric.Config{PropDelay: 800, LossRate: 0.2, Seed: 5}, 1<<16)
	census := map[*NIC]map[*packet]bool{}
	for _, n := range []*NIC{p.na, p.nb} {
		census[n] = map[*packet]bool{}
		for i := 0; i < stock; i++ {
			pk := new(packet)
			census[n][pk] = true
			n.packets.Put(pk)
		}
	}
	payload := make([]byte, 1500) // two segments per write
	for i := 0; i < 40; i++ {
		if err := p.qa.PostWrite(uint64(i), payload, p.mrb.RKey(), 0, 0, true); err != nil {
			t.Fatal(err)
		}
		if err := p.qb.PostWrite(uint64(i), payload, p.mra.RKey(), 0, 0, true); err != nil {
			t.Fatal(err)
		}
	}
	p.sim.Run()
	p.qa.Close()
	p.qb.Close()
	p.sim.Run()
	if w := readWire().since(wire); w.retransmits == 0 || telemetry.C(telemetry.RdmaOutOfOrder).Load() == ooo {
		t.Fatalf("the loss caused %d retransmits and no out-of-order re-ack: the census saw no recovery", w.retransmits)
	}
	for n, want := range census {
		if len(n.packets) != stock {
			t.Errorf("NIC %s: %d packets on its list after the drain, want the %d it started with", n.host, len(n.packets), stock)
		}
		for _, pk := range n.packets {
			if !want[pk] {
				t.Errorf("NIC %s: a packet it did not start with, or one twice, is on its list", n.host)
				break
			}
			delete(want, pk)
		}
	}
	if got := bufpool.Outstanding(); got != before {
		t.Fatalf("pool outstanding %d after the drain, want %d", got, before)
	}
}
