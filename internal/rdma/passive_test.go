package rdma

import (
	"bytes"
	"encoding/binary"
	"testing"

	"socksdirect/internal/bufpool"
	"socksdirect/internal/fabric"
	"socksdirect/internal/telemetry"
)

// Tests of the ordered open: the side that learns its peer's QPN first
// connects passive (RTR) and holds its posts until the peer's first
// in-order packet; the side that connects second is RTS at once.

// openOrdered wires a pair the way a brokered open does: qb knows qa's QPN
// and connects passive; qa is still in Reset.
func openOrdered(t *testing.T, cfg fabric.Config, bufSize int) *testPair {
	t.Helper()
	p := newUnconnectedPair(t, cfg, bufSize)
	if err := p.qb.ConnectPassive("A", p.qa.QPN()); err != nil {
		t.Fatal(err)
	}
	if got := p.qb.State(); got != QPRTR {
		t.Fatalf("passive QP state = %v, want QPRTR", got)
	}
	return p
}

// counters of the drops and retransmissions an ordered open must not cause.
type wireCounts struct{ notReady, retransmits, packets int64 }

func readWire() wireCounts {
	return wireCounts{
		notReady:    telemetry.C(telemetry.RdmaNotReadyDrops).Load(),
		retransmits: telemetry.C(telemetry.RdmaRetransmits).Load(),
		packets:     telemetry.C(telemetry.RdmaPacketsTx).Load(),
	}
}

func (w wireCounts) since(b wireCounts) wireCounts {
	return wireCounts{w.notReady - b.notReady, w.retransmits - b.retransmits, w.packets - b.packets}
}

// seqWrites posts n 8-byte writes on qp, write i carrying i to offset 8*i.
func seqWrites(t *testing.T, qp *QP, rkey uint64, n int) {
	t.Helper()
	var b [8]byte
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint64(b[:], uint64(i)+1)
		if err := qp.PostWrite(uint64(i), b[:], rkey, int64(8*i), uint32(i), true); err != nil {
			t.Fatalf("post %d: %v", i, err)
		}
	}
}

// TestPassiveHoldsPostsUntilPeerSpeaks: posts on an RTR QP are taken and
// held, nothing reaches the wire; the peer's first packet is placed and
// acked by the RTR QP and releases the held posts in order.
func TestPassiveHoldsPostsUntilPeerSpeaks(t *testing.T) {
	before := bufpool.Outstanding()
	w0 := readWire()
	p := openOrdered(t, fabric.Config{PropDelay: 800}, 1<<16)
	const n = 10
	seqWrites(t, p.qb, p.mra.RKey(), n)
	p.sim.AfterAt(100_000, func() {
		if d := readWire().since(w0); d.packets != 0 {
			t.Fatalf("%d packets transmitted by a QP whose peer has not spoken", d.packets)
		}
		if got := p.qb.SendPending(); got != n {
			t.Fatalf("held posts = %d, want %d", got, n)
		}
		if !bytes.Equal(p.bufA[:8*n], make([]byte, 8*n)) {
			t.Fatal("held writes reached the peer's memory")
		}
		// The peer connects second and announces itself.
		if err := p.qa.Connect("B", p.qb.QPN()); err != nil {
			t.Fatal(err)
		}
		if err := p.qa.PostWrite(77, []byte("rtu-rtu!"), p.mrb.RKey(), 0, 0, false); err != nil {
			t.Fatal(err)
		}
	})
	p.sim.Run()
	if got := p.qb.State(); got != QPRTS {
		t.Fatalf("passive QP state after the peer's packet = %v, want QPRTS", got)
	}
	if string(p.bufB[:8]) != "rtu-rtu!" {
		t.Fatal("the RTR QP did not place the peer's write")
	}
	if e, ok := p.cqaS.PollOne(); !ok || e.WRID != 77 || e.Status != WCSuccess {
		t.Fatalf("the RTR QP did not ack the peer's write: %+v %v", e, ok)
	}
	// Released in order: immediates 0..n-1 on the peer's receive CQ, all
	// send WRs complete in order.
	for i := 0; i < n; i++ {
		e, ok := p.cqaR.PollOne()
		if !ok || e.Imm != uint32(i) {
			t.Fatalf("arrival %d: %+v %v", i, e, ok)
		}
		if got := binary.LittleEndian.Uint64(p.bufA[8*i:]); got != uint64(i)+1 {
			t.Fatalf("write %d landed as %d", i, got)
		}
		c, ok := p.cqbS.PollOne()
		if !ok || c.WRID != uint64(i) || c.Status != WCSuccess {
			t.Fatalf("completion %d: %+v %v", i, c, ok)
		}
	}
	if d := readWire().since(w0); d.notReady != 0 || d.retransmits != 0 {
		t.Fatalf("ordered open cost %d not-ready drops and %d retransmits", d.notReady, d.retransmits)
	}
	if got := bufpool.Outstanding(); got != before {
		t.Fatalf("pool outstanding %d, want %d", got, before)
	}
}

// TestPassiveReleaseRespectsWindow: more held packets than the window are
// released a window at a time, still in order.
func TestPassiveReleaseRespectsWindow(t *testing.T) {
	p := openOrdered(t, fabric.Config{PropDelay: 800}, 1<<16)
	const n = 3*DefaultWindow + 5
	seqWrites(t, p.qb, p.mra.RKey(), n)
	if err := p.qa.Connect("B", p.qb.QPN()); err != nil {
		t.Fatal(err)
	}
	w0 := readWire()
	p.qa.PostWrite(1, nil, p.mrb.RKey(), 0, 0, false)
	// The RTU lands after 800 ns and the first flight leaves at once; its
	// acks are 800 ns further away.
	p.sim.AfterAt(1000, func() {
		if d := readWire().since(w0); d.packets != 1+DefaultWindow {
			t.Fatalf("first flight after the RTU: %d packets, want the RTU + a window of %d", d.packets, DefaultWindow)
		}
	})
	p.sim.Run()
	for i := 0; i < n; i++ {
		if e, ok := p.cqaR.PollOne(); !ok || e.Imm != uint32(i) {
			t.Fatalf("arrival %d: %+v %v", i, e, ok)
		}
	}
	if d := readWire().since(w0); d.retransmits != 0 || d.notReady != 0 {
		t.Fatalf("%d retransmits, %d not-ready drops", d.retransmits, d.notReady)
	}
}

// TestLostRTUIsRetransmitted: the RTU is a sequenced packet like any other,
// so go-back-N recovers its loss and the held posts leave one RTO late.
func TestLostRTUIsRetransmitted(t *testing.T) {
	p := openOrdered(t, fabric.Config{PropDelay: 800}, 1<<16)
	seqWrites(t, p.qb, p.mra.RKey(), 3)
	if err := p.qa.Connect("B", p.qb.QPN()); err != nil {
		t.Fatal(err)
	}
	w0 := readWire()
	p.na.Port("B").SetPartitioned(true)
	p.qa.PostWrite(1, nil, p.mrb.RKey(), 0, 0, false)
	p.na.Port("B").SetPartitioned(false)
	p.sim.AfterAt(DefaultRTO-1, func() {
		if p.qb.State() != QPRTR || p.cqaR.Len() != 0 {
			t.Fatal("passive side released before any packet from the peer arrived")
		}
	})
	p.sim.AfterAt(DefaultRTO+10_000, func() {
		if p.qb.State() != QPRTS || p.cqaR.Len() != 3 {
			t.Fatalf("after the RTU's retransmission: state %v, %d arrivals", p.qb.State(), p.cqaR.Len())
		}
		if d := readWire().since(w0); d.retransmits != 1 {
			t.Fatalf("%d retransmits, want the RTU's one", d.retransmits)
		}
	})
	p.sim.Run()
	if d := readWire().since(w0); d.retransmits != 1 {
		t.Fatalf("%d retransmits by the end, want the RTU's one", d.retransmits)
	}
	if p.qb.State() != QPRTS || p.qa.State() != QPRTS {
		t.Fatalf("states %v/%v after the queues drained", p.qa.State(), p.qb.State())
	}
}

// TestPassiveCloseWhileHeldFlushes: closing or erroring a QP that still
// holds posts completes them with WCFlushErr and returns their staging.
func TestPassiveCloseWhileHeldFlushes(t *testing.T) {
	for _, tc := range []struct {
		name string
		end  func(*QP)
	}{
		{"close", (*QP).Close},
		{"error", (*QP).ForceError},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := bufpool.Outstanding()
			p := openOrdered(t, fabric.Config{PropDelay: 800}, 1<<16)
			seqWrites(t, p.qb, p.mra.RKey(), 5)
			if bufpool.Outstanding() == before {
				t.Fatal("held posts staged nothing")
			}
			tc.end(p.qb)
			for i := 0; i < 5; i++ {
				if e, ok := p.cqbS.PollOne(); !ok || e.WRID != uint64(i) || e.Status != WCFlushErr {
					t.Fatalf("flush %d: %+v %v", i, e, ok)
				}
			}
			if got := bufpool.Outstanding(); got != before {
				t.Fatalf("pool outstanding %d after %s, want %d", got, tc.name, before)
			}
			if err := p.qb.PostWrite(9, []byte("x"), p.mra.RKey(), 0, 0, false); err != ErrQPState {
				t.Fatalf("post after %s: %v, want ErrQPState", tc.name, err)
			}
			p.sim.Run() // the armed retry clock finds nothing to do
			if p.cqbS.Len() != 0 {
				t.Fatal("stale timer completed something")
			}
		})
	}
}

// TestPassiveSilenceEndsInRetryExceeded: a passive QP whose peer never
// shows up errors exactly when a transmitted, never-acked post would have:
// MaxRetry+1 timeouts after the first post, with nothing on the wire.
func TestPassiveSilenceEndsInRetryExceeded(t *testing.T) {
	const bound = (MaxRetry + 1) * DefaultRTO
	// The bound, measured: the same posts on an active QP toward a peer
	// that drops everything.
	ref := newPair(t, fabric.Config{PropDelay: 800, LossRate: 1, Seed: 3}, 4096)
	seqWrites(t, ref.qa, ref.mrb.RKey(), 2)
	ref.sim.AfterAt(bound-1, func() {
		if ref.qa.State() != QPRTS {
			t.Fatal("reference QP errored before the bound")
		}
	})
	ref.sim.AfterAt(bound+1, func() {
		if ref.qa.State() != QPErr {
			t.Fatal("reference QP did not error at the bound")
		}
	})
	ref.sim.Run()

	before := bufpool.Outstanding()
	w0 := readWire()
	p := openOrdered(t, fabric.Config{PropDelay: 800}, 4096)
	// An idle passive QP runs no clock: the bound counts from the post.
	const t0 = 3 * DefaultRTO
	p.sim.AfterAt(t0, func() { seqWrites(t, p.qb, p.mra.RKey(), 2) })
	p.sim.AfterAt(t0+bound-1, func() {
		if p.qb.State() != QPRTR {
			t.Fatalf("state %v before the bound, want QPRTR", p.qb.State())
		}
	})
	p.sim.AfterAt(t0+bound+1, func() {
		if p.qb.State() != QPErr {
			t.Fatalf("state %v at the bound, want QPErr", p.qb.State())
		}
	})
	p.sim.Run()
	for i := 0; i < 2; i++ {
		if e, ok := p.cqbS.PollOne(); !ok || e.WRID != uint64(i) || e.Status != WCRetryExceeded {
			t.Fatalf("completion %d: %+v %v", i, e, ok)
		}
	}
	if d := readWire().since(w0); d.packets != 0 {
		t.Fatalf("%d packets transmitted while held", d.packets)
	}
	if got := bufpool.Outstanding(); got != before {
		t.Fatalf("pool outstanding %d, want %d", got, before)
	}
}

// TestResetRetargets: Reset discards a connected QP's work without
// completions and lets it connect to another peer from sequence zero.
func TestResetRetargets(t *testing.T) {
	before := bufpool.Outstanding()
	p := openOrdered(t, fabric.Config{PropDelay: 800}, 1<<16)
	if err := p.qa.Connect("B", p.qb.QPN()); err != nil {
		t.Fatal(err)
	}
	// qa announces itself to qb, which then goes away (a stolen accept's
	// victim) with a second announcement unacknowledged.
	p.qa.PostWrite(1, []byte("to-first"), p.mrb.RKey(), 0, 0, false)
	var qc *QP
	var w0 wireCounts
	p.sim.AfterAt(10_000, func() {
		p.qb.Close()
		p.qa.PostWrite(2, []byte("to-noone"), p.mrb.RKey(), 0, 0, false)
		for p.cqaS.Len() > 0 {
			p.cqaS.PollOne()
		}
	})
	p.sim.AfterAt(20_000, func() {
		qc = p.qb.pd.CreateQP(p.cqbS, p.cqbR)
		if err := qc.ConnectPassive("A", p.qa.QPN()); err != nil {
			t.Fatal(err)
		}
		qc.PostWrite(3, []byte("held-ack"), p.mra.RKey(), 8, 0, false)
		if err := p.qa.Connect("B", qc.QPN()); err != ErrQPState {
			t.Fatalf("Connect on a connected QP: %v, want ErrQPState", err)
		}
		p.qa.Reset()
		if p.qa.State() != QPReset || p.qa.SendPending() != 0 || p.cqaS.Len() != 0 {
			t.Fatalf("after Reset: state %v, %d pending, %d completions", p.qa.State(), p.qa.SendPending(), p.cqaS.Len())
		}
		if err := p.qa.Connect("B", qc.QPN()); err != nil {
			t.Fatal(err)
		}
		w0 = readWire()
		p.qa.PostWrite(4, []byte("to-thief"), p.mrb.RKey(), 16, 0, false)
	})
	p.sim.AfterAt(30_000, func() {
		if string(p.bufB[16:24]) != "to-thief" || string(p.bufA[8:16]) != "held-ack" {
			t.Fatalf("after retarget: peer has %q, we have %q", p.bufB[16:24], p.bufA[8:16])
		}
		if e, ok := p.cqaS.PollOne(); !ok || e.WRID != 4 || e.Status != WCSuccess {
			t.Fatalf("completion after retarget: %+v %v", e, ok)
		}
	})
	p.sim.Run() // the first connection's armed timer finds a restarted queue
	if d := readWire().since(w0); d.retransmits != 0 || d.notReady != 0 {
		t.Fatalf("%d retransmits, %d not-ready drops after retarget", d.retransmits, d.notReady)
	}
	if p.qa.State() != QPRTS || qc.State() != QPRTS {
		t.Fatalf("states %v/%v", p.qa.State(), qc.State())
	}
	p.qa.Close()
	qc.Close()
	if got := bufpool.Outstanding(); got != before {
		t.Fatalf("pool outstanding %d, want %d", got, before)
	}
}

// TestNotReadyDropIsCounted: a packet for a QP that has not connected, or
// is gone, is dropped unacked — the silent drop that cost a cross-host
// dial an RTO — and now shows in sd/rdma/qp/not_ready_drops.
func TestNotReadyDropIsCounted(t *testing.T) {
	p := newUnconnectedPair(t, fabric.Config{PropDelay: 800}, 4096)
	if err := p.qa.Connect("B", p.qb.QPN()); err != nil {
		t.Fatal(err)
	}
	w0 := readWire()
	p.qa.PostWrite(1, []byte("too soon"), p.mrb.RKey(), 0, 0, false)
	p.sim.AfterAt(10_000, func() {
		if d := readWire().since(w0); d.notReady != 1 {
			t.Fatalf("not_ready_drops moved by %d for a packet to a Reset QP, want 1", d.notReady)
		}
		if err := p.qb.Connect("A", p.qa.QPN()); err != nil {
			t.Fatal(err)
		}
	})
	p.sim.AfterAt(DefaultRTO+10_000, func() {
		if string(p.bufB[:8]) != "too soon" {
			t.Fatal("the retransmission did not deliver")
		}
		if d := readWire().since(w0); d.notReady != 1 || d.retransmits != 1 {
			t.Fatalf("not_ready_drops %d, retransmits %d, want 1 and 1", d.notReady, d.retransmits)
		}
		p.qb.Close()
		p.qa.PostWrite(2, []byte("too late"), p.mrb.RKey(), 0, 0, false)
	})
	p.sim.AfterAt(DefaultRTO+20_000, func() {
		if d := readWire().since(w0); d.notReady != 2 {
			t.Fatalf("not_ready_drops moved by %d after a packet to a destroyed QP, want 2", d.notReady)
		}
		p.qa.Close()
	})
	p.sim.Run()
}
