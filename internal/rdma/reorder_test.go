package rdma

import (
	"testing"

	"socksdirect/internal/bufpool"
	"socksdirect/internal/exec"
	"socksdirect/internal/fabric"
)

// TestGoBackNUnderReorderAndLoss subjects the QP to a hostile fabric that
// both drops and reorders frames; go-back-N must still deliver every
// message in order with correct contents — the property libsd's ring
// synchronization depends on ("the completion message is guaranteed to be
// delivered after writing the data", §4.2).
func TestGoBackNUnderReorderAndLoss(t *testing.T) {
	p := newPair(t, fabric.Config{
		PropDelay: 1000, LossRate: 0.04, JitterNs: 4000, Seed: 23,
	}, 1<<20)
	const msgs = 150
	var completions, rx int
	p.sim.Spawn("sender", func(ctx exec.Context) {
		payload := make([]byte, 512)
		for i := 0; i < msgs; i++ {
			for k := range payload {
				payload[k] = byte(i ^ k)
			}
			if err := p.qa.PostWrite(uint64(i), payload, p.mrb.RKey(), int64(i)*512, uint32(i), true); err != nil {
				t.Error(err)
				return
			}
		}
		for completions < msgs {
			if _, ok := p.cqaS.PollOne(); ok {
				completions++
			} else {
				ctx.Charge(100)
				ctx.Yield()
			}
		}
	})
	p.sim.Spawn("receiver", func(ctx exec.Context) {
		for rx < msgs {
			if e, ok := p.cqbR.PollOne(); ok {
				if e.Imm != uint32(rx) {
					t.Errorf("completion %d carried imm %d: ordering broken", rx, e.Imm)
					return
				}
				rx++
			} else {
				ctx.Charge(100)
				ctx.Yield()
			}
		}
	})
	p.sim.Run()
	if rx != msgs || completions != msgs {
		t.Fatalf("rx=%d completions=%d want %d", rx, completions, msgs)
	}
	for i := 0; i < msgs; i++ {
		for k := 0; k < 512; k++ {
			if p.bufB[i*512+k] != byte(i^k) {
				t.Fatalf("message %d corrupted at byte %d", i, k)
			}
		}
	}
}

// TestRetryExhaustionErrorsQP verifies MaxRetry semantics on a black-holed
// link.
func TestRetryExhaustionErrorsQP(t *testing.T) {
	p := newPair(t, fabric.Config{LossRate: 1.0, Seed: 5}, 4096)
	p.sim.Spawn("sender", func(ctx exec.Context) {
		p.qa.PostWrite(3, []byte("void"), p.mrb.RKey(), 0, 0, true)
		ctx.Sleep(DefaultRTO * (MaxRetry + 3))
		if p.qa.State() != QPErr {
			t.Error("QP not in error after retry exhaustion")
		}
		e, ok := p.cqaS.PollOne()
		if !ok || e.Status != WCRetryExceeded {
			t.Errorf("want WCRetryExceeded, got %+v ok=%v", e, ok)
		}
	})
	p.sim.Run()
}

// TestJitterReorderOverNetInOrderAndPoolBalanced exercises JitterNs-driven
// reordering (no loss at all) against the QP's resequencing, over the
// routed fabric.Net path: frames leave
// in order, arrive shuffled by up to 6 µs of jitter, and go-back-N must
// drop the early arrivals and retransmit until every message lands in
// order, byte-exact — with every pooled staging buffer back home when the
// dust settles (a resequencing path that leaked refs on dropped
// out-of-order frames would show up as a non-zero outstanding delta).
func TestJitterReorderOverNetInOrderAndPoolBalanced(t *testing.T) {
	before := bufpool.Outstanding()
	s := exec.NewSim(exec.SimConfig{})
	clk := s.Clock()
	net := fabric.NewNet(clk, "rdma", fabric.Config{
		PropDelay: 1000, JitterNs: 6000, Seed: 99,
	})
	na := NewNIC(clk, "A", nil, 1)
	nb := NewNIC(clk, "B", nil, 2)
	na.AttachFabric(net.AddHost("A"))
	nb.AttachFabric(net.AddHost("B"))
	pda, pdb := na.AllocPD(), nb.AllocPD()
	cqaS, cqaR := NewCQ(), NewCQ()
	cqbS, cqbR := NewCQ(), NewCQ()
	bufB := make([]byte, 1<<20)
	mrb := pdb.RegisterBytes(bufB)
	qa := pda.CreateQP(cqaS, cqaR)
	qb := pdb.CreateQP(cqbS, cqbR)
	if err := qa.Connect("B", qb.QPN()); err != nil {
		t.Fatal(err)
	}
	if err := qb.Connect("A", qa.QPN()); err != nil {
		t.Fatal(err)
	}

	const msgs = 200
	var completions, rx int
	s.Spawn("sender", func(ctx exec.Context) {
		payload := make([]byte, 512)
		for i := 0; i < msgs; i++ {
			for k := range payload {
				payload[k] = byte(i ^ k)
			}
			if err := qa.PostWrite(uint64(i), payload, mrb.RKey(), int64(i)*512, uint32(i), true); err != nil {
				t.Error(err)
				return
			}
		}
		for completions < msgs {
			if _, ok := cqaS.PollOne(); ok {
				completions++
			} else {
				ctx.Charge(100)
				ctx.Yield()
			}
		}
	})
	s.Spawn("receiver", func(ctx exec.Context) {
		for rx < msgs {
			if e, ok := cqbR.PollOne(); ok {
				if e.Imm != uint32(rx) {
					t.Errorf("completion %d carried imm %d: resequencing broken", rx, e.Imm)
					return
				}
				rx++
			} else {
				ctx.Charge(100)
				ctx.Yield()
			}
		}
	})
	s.Run()
	if rx != msgs || completions != msgs {
		t.Fatalf("rx=%d completions=%d want %d", rx, completions, msgs)
	}
	for i := 0; i < msgs; i++ {
		for k := 0; k < 512; k++ {
			if bufB[i*512+k] != byte(i^k) {
				t.Fatalf("message %d corrupted at byte %d", i, k)
			}
		}
	}
	if got := bufpool.Outstanding(); got != before {
		t.Fatalf("bufpool outstanding drifted %d -> %d: staging refs leaked in the reorder path", before, got)
	}
}
