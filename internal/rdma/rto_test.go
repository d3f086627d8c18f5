package rdma

import (
	"testing"

	"socksdirect/internal/exec"
	"socksdirect/internal/fabric"
)

// TestRTOQueueFiresEachTimerOnTime: a NIC keeps its QPs' retransmission
// timers in one deadline-ordered queue behind one Clock event. Each timer
// fires DefaultRTO after its arm, also when a later arm is due earlier (a
// thread's clock and the global one differ); an acknowledged QP's timer
// fires as a no-op, and an errored QP's does nothing at all.
func TestRTOQueueFiresEachTimerOnTime(t *testing.T) {
	s := exec.NewSim(exec.SimConfig{})
	clk := s.Clock()
	na, nb := NewNIC(clk, "A", nil, 1), NewNIC(clk, "B", nil, 2)
	joinNet(clk, fabric.Config{PropDelay: 800}, na, nb)
	pda, pdb := na.AllocPD(), nb.AllocPD()
	mra := pda.RegisterBytes(make([]byte, 4096))
	// Passive QPs hold their posts for a peer that never speaks: each timer
	// finds them waiting without progress and counts a retry.
	passive := func() *QP {
		qp := pdb.CreateQP(NewCQ(), NewCQ())
		if err := qp.ConnectPassive("A", pda.CreateQP(NewCQ(), NewCQ()).QPN()); err != nil {
			t.Fatal(err)
		}
		return qp
	}
	ahead, behind, errored := passive(), passive(), passive()
	acked := pdb.CreateQP(NewCQ(), NewCQ())
	twin := pda.CreateQP(NewCQ(), NewCQ())
	if acked.Connect("A", twin.QPN()) != nil || twin.Connect("B", acked.QPN()) != nil {
		t.Fatal("connect")
	}
	const t0, lag = 10_000, 200
	s.AfterAt(t0, func() {
		seqWrites(t, acked, mra.RKey(), 1) // acknowledged within a round trip
		seqWrites(t, errored, mra.RKey(), 1)
		seqWrites(t, ahead, mra.RKey(), 1)
		// The next arm is made by a clock that lags the global one: due
		// before the queue's head, it gets a Clock event of its own.
		behind.rtoArmed = true // what armRTO does, apart from the queueing
		seqWrites(t, behind, mra.RKey(), 1)
		behind.rtoGenArm = behind.rtoGen
		nb.queueRTO(behind, t0-lag+DefaultRTO)
		if len(nb.rtoAt) != 2 {
			t.Errorf("%d Clock events set for the queue, want 2", len(nb.rtoAt))
		}
	})
	s.AfterAt(t0+1000, errored.ForceError)
	check := func(at int64, qp *QP, name string, retries int, armed bool) {
		s.AfterAt(at, func() {
			if qp.retries != retries || qp.rtoArmed != armed {
				t.Errorf("%s at %d: %d retries, armed %v; want %d, %v", name, at, qp.retries, qp.rtoArmed, retries, armed)
			}
		})
	}
	rto := int64(DefaultRTO)
	check(t0-lag+rto-1, behind, "behind", 0, true)
	check(t0-lag+rto+1, behind, "behind", 1, true)
	check(t0+rto-1, ahead, "ahead", 0, true)
	check(t0+rto+1, ahead, "ahead", 1, true)
	check(t0+rto-1, acked, "acked", 0, true)
	check(t0+rto+1, acked, "acked", 0, false)
	check(t0+rto+1, errored, "errored", 0, true) // its entry did nothing: the arm stays recorded
	s.AfterAt(t0+rto+1, func() {
		// Both passive QPs armed again; the errored one's entry is gone.
		if got := len(nb.rto) - nb.rtoNext; got != 2 {
			t.Errorf("%d timers queued, want 2", got)
		}
		if len(nb.rtoAt) != 1 {
			t.Errorf("%d Clock events set for the queue, want 1", len(nb.rtoAt))
		}
		for _, qp := range []*QP{ahead, behind, acked, twin} {
			qp.Close()
		}
	})
	s.Run()
	if acked.State() != QPErr || twin.State() != QPErr {
		// Close flushes: just a sanity check that the run got this far.
		t.Errorf("states %v %v after close", acked.State(), twin.State())
	}
}
