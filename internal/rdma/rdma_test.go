package rdma

import (
	"bytes"
	"fmt"
	"testing"

	"socksdirect/internal/exec"
	"socksdirect/internal/fabric"
	"socksdirect/internal/mem"
)

// testPair wires two NICs over a link and returns connected QPs plus their
// CQs. MRs of size bufSize are registered on both sides.
type testPair struct {
	sim        *exec.Sim
	na, nb     *NIC
	qa, qb     *QP
	cqaS, cqaR *CQ
	cqbS, cqbR *CQ
	mra, mrb   *MR
	bufA, bufB []byte
}

func newPair(t *testing.T, linkCfg fabric.Config, bufSize int) *testPair {
	t.Helper()
	p := newUnconnectedPair(t, linkCfg, bufSize)
	if err := p.qa.Connect("B", p.qb.QPN()); err != nil {
		t.Fatal(err)
	}
	if err := p.qb.Connect("A", p.qa.QPN()); err != nil {
		t.Fatal(err)
	}
	return p
}

// newUnconnectedPair is newPair with both QPs still in Reset.
func newUnconnectedPair(t *testing.T, linkCfg fabric.Config, bufSize int) *testPair {
	t.Helper()
	s := exec.NewSim(exec.SimConfig{})
	clk := s.Clock()
	epA, epB := fabric.NewLink(clk, "A", "B", linkCfg)
	na := NewNIC(clk, "A", nil, 1)
	nb := NewNIC(clk, "B", nil, 2)
	na.AddPort("B", epA)
	nb.AddPort("A", epB)
	pda, pdb := na.AllocPD(), nb.AllocPD()
	p := &testPair{
		sim: s, na: na, nb: nb,
		cqaS: NewCQ(), cqaR: NewCQ(), cqbS: NewCQ(), cqbR: NewCQ(),
		bufA: make([]byte, bufSize), bufB: make([]byte, bufSize),
	}
	p.mra = pda.RegisterBytes(p.bufA)
	p.mrb = pdb.RegisterBytes(p.bufB)
	p.qa = pda.CreateQP(p.cqaS, p.cqaR)
	p.qb = pdb.CreateQP(p.cqbS, p.cqbR)
	return p
}

func TestWriteImmDeliversDataThenCompletion(t *testing.T) {
	p := newPair(t, fabric.Config{PropDelay: 800}, 1<<16)
	var rxImm uint32
	var rxData []byte
	var sendDone bool
	p.sim.Spawn("sender", func(ctx exec.Context) {
		if err := p.qa.PostWrite(42, []byte("payload-bytes"), p.mrb.RKey(), 100, 7, true); err != nil {
			t.Error(err)
			return
		}
		waitUntil(ctx, 10, func() bool { return p.cqaS.Len() > 0 })
		e, _ := p.cqaS.PollOne()
		if e.WRID != 42 || e.Status != WCSuccess {
			t.Errorf("bad send completion %+v", e)
		}
		sendDone = true
	})
	p.sim.Spawn("receiver", func(ctx exec.Context) {
		waitUntil(ctx, 10, func() bool { return p.cqbR.Len() > 0 })
		e, _ := p.cqbR.PollOne()
		rxImm = e.Imm
		rxData = make([]byte, e.Len)
		copy(rxData, p.bufB[100:100+e.Len])
	})
	p.sim.Run()
	if !sendDone {
		t.Fatal("sender never completed")
	}
	if rxImm != 7 || string(rxData) != "payload-bytes" {
		t.Fatalf("imm=%d data=%q", rxImm, rxData)
	}
}

func TestOneSidedWriteIsSilentOnReceiver(t *testing.T) {
	p := newPair(t, fabric.Config{}, 4096)
	p.sim.Spawn("sender", func(ctx exec.Context) {
		p.qa.PostWrite(1, []byte("quiet"), p.mrb.RKey(), 0, 0, false)
		waitUntil(ctx, 10, func() bool { return p.cqaS.Len() > 0 })
	})
	p.sim.Run()
	if p.cqbR.Len() != 0 {
		t.Fatal("plain WRITE generated a receiver completion")
	}
	if string(p.bufB[:5]) != "quiet" {
		t.Fatal("data not written")
	}
}

func TestLargeWriteSegmentsAndReassembles(t *testing.T) {
	const n = 3*MTU + 777
	p := newPair(t, fabric.Config{PropDelay: 100}, 4*MTU+4096)
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i * 31)
	}
	p.sim.Spawn("sender", func(ctx exec.Context) {
		p.qa.PostWrite(9, data, p.mrb.RKey(), 0, 1, true)
		waitUntil(ctx, 10, func() bool { return p.cqaS.Len() > 0 })
	})
	var gotLen int
	p.sim.Spawn("receiver", func(ctx exec.Context) {
		waitUntil(ctx, 10, func() bool { return p.cqbR.Len() > 0 })
		e, _ := p.cqbR.PollOne()
		gotLen = e.Len
	})
	p.sim.Run()
	if gotLen != n {
		t.Fatalf("receiver saw %d bytes, want %d", gotLen, n)
	}
	if !bytes.Equal(p.bufB[:n], data) {
		t.Fatal("reassembled data corrupted")
	}
}

func TestSendRecvTwoSided(t *testing.T) {
	p := newPair(t, fabric.Config{PropDelay: 50}, 4096)
	rbuf := make([]byte, 64)
	p.qb.PostRecv(77, rbuf)
	var wc CQE
	p.sim.Spawn("sender", func(ctx exec.Context) {
		p.qa.PostSend(5, []byte("two-sided"))
		waitUntil(ctx, 10, func() bool { return p.cqaS.Len() > 0 })
	})
	p.sim.Spawn("receiver", func(ctx exec.Context) {
		waitUntil(ctx, 10, func() bool { return p.cqbR.Len() > 0 })
		wc, _ = p.cqbR.PollOne()
	})
	p.sim.Run()
	if wc.WRID != 77 || wc.Len != 9 || string(rbuf[:9]) != "two-sided" {
		t.Fatalf("wc=%+v buf=%q", wc, rbuf[:9])
	}
}

func TestSendWithoutRecvWQERecoversAfterPost(t *testing.T) {
	// RNR: sender posts before receiver has a WQE; go-back-N retry must
	// deliver once the receiver posts.
	p := newPair(t, fabric.Config{PropDelay: 50}, 4096)
	rbuf := make([]byte, 64)
	var wc CQE
	p.sim.Spawn("sender", func(ctx exec.Context) {
		p.qa.PostSend(5, []byte("late"))
	})
	p.sim.Spawn("receiver", func(ctx exec.Context) {
		ctx.Sleep(600_000) // after first RTO
		p.qb.PostRecv(88, rbuf)
		waitUntil(ctx, 100, func() bool { return p.cqbR.Len() > 0 })
		wc, _ = p.cqbR.PollOne()
	})
	p.sim.Run()
	if wc.WRID != 88 || string(rbuf[:4]) != "late" {
		t.Fatalf("wc=%+v", wc)
	}
}

func TestGoBackNRecoversFromLoss(t *testing.T) {
	p := newPair(t, fabric.Config{PropDelay: 500, LossRate: 0.05, Seed: 7}, 1<<20)
	const msgs = 200
	var completions int
	p.sim.Spawn("sender", func(ctx exec.Context) {
		payload := make([]byte, 256)
		for i := 0; i < msgs; i++ {
			for k := range payload {
				payload[k] = byte(i)
			}
			if err := p.qa.PostWrite(uint64(i), payload, p.mrb.RKey(), int64(i)*256, uint32(i), true); err != nil {
				t.Error(err)
				return
			}
		}
		waitUntil(ctx, 1000, func() bool { return completions == msgs })
	})
	var rx int
	p.sim.Spawn("receiver", func(ctx exec.Context) {
		for rx < msgs {
			if e, ok := p.cqbR.PollOne(); ok {
				if e.Imm != uint32(rx) {
					t.Errorf("completion %d has imm %d (ordering broken)", rx, e.Imm)
					return
				}
				rx++
			} else {
				ctx.Charge(50)
				ctx.Yield()
			}
		}
	})
	p.sim.Spawn("senderCQ", func(ctx exec.Context) {
		for completions < msgs {
			if _, ok := p.cqaS.PollOne(); ok {
				completions++
			} else {
				ctx.Charge(50)
				ctx.Yield()
			}
		}
	})
	p.sim.Run()
	if rx != msgs || completions != msgs {
		t.Fatalf("rx=%d comps=%d want %d", rx, completions, msgs)
	}
	// Verify every message's bytes landed correctly despite loss.
	for i := 0; i < msgs; i++ {
		for k := 0; k < 256; k++ {
			if p.bufB[i*256+k] != byte(i) {
				t.Fatalf("message %d byte %d corrupted", i, k)
			}
		}
	}
}

func TestBadRKeyMovesQPToError(t *testing.T) {
	p := newPair(t, fabric.Config{}, 4096)
	p.sim.Spawn("sender", func(ctx exec.Context) {
		p.qa.PostWrite(1, []byte("x"), p.mrb.RKey()^0xbad, 0, 0, true)
		ctx.Sleep(2 * DefaultRTO * (MaxRetry + 2))
	})
	p.sim.Run()
	if p.qb.State() != QPErr {
		t.Fatalf("receiver QP state = %v, want QPErr", p.qb.State())
	}
	if p.bufB[0] == 'x' {
		t.Fatal("forged rkey wrote to memory")
	}
}

func TestWriteOutOfRangeRejected(t *testing.T) {
	p := newPair(t, fabric.Config{}, 4096)
	p.sim.Spawn("sender", func(ctx exec.Context) {
		p.qa.PostWrite(1, make([]byte, 128), p.mrb.RKey(), 4090, 0, true)
		ctx.Sleep(1000)
	})
	p.sim.Run()
	if p.qb.State() != QPErr {
		t.Fatal("out-of-range write did not error the QP")
	}
}

func TestFrameBackedMR(t *testing.T) {
	s := exec.NewSim(exec.SimConfig{})
	clk := s.Clock()
	epA, epB := fabric.NewLink(clk, "A", "B", fabric.Config{PropDelay: 10})
	na, nb := NewNIC(clk, "A", nil, 1), NewNIC(clk, "B", nil, 2)
	na.AddPort("B", epA)
	nb.AddPort("A", epB)

	pm := mem.NewPhysMem(5, nil)
	as := mem.NewAddressSpace(pm)
	poolAddr := as.Alloc(4 * mem.PageSize)
	ids, err := as.PagesForSend(nil, poolAddr, 4*mem.PageSize)
	if err != nil {
		t.Fatal(err)
	}
	pm.Pin(nil, ids)

	pda, pdb := na.AllocPD(), nb.AllocPD()
	mrb := pdb.RegisterFrames(pm, ids)
	_ = pda
	cqS, cqR := NewCQ(), NewCQ()
	qa := pda.CreateQP(cqS, NewCQ())
	qb := pdb.CreateQP(NewCQ(), cqR)
	qa.Connect("B", qb.QPN())
	qb.Connect("A", qa.QPN())

	payload := make([]byte, mem.PageSize+100)
	for i := range payload {
		payload[i] = byte(i * 3)
	}
	s.Spawn("tx", func(ctx exec.Context) {
		qa.PostWrite(1, payload, mrb.RKey(), mem.PageSize/2, 0, true)
		waitUntil(ctx, 10, func() bool { return cqR.Len() > 0 })
	})
	s.Run()

	// The bytes must have landed in the frames, straddling page borders.
	got := make([]byte, len(payload))
	if err := as.Read(poolAddr+mem.PageSize/2, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("frame-backed MR write corrupted")
	}
}

func TestWindowBackpressureEventuallyDrains(t *testing.T) {
	p := newPair(t, fabric.Config{PropDelay: 1000}, 1<<20)
	const msgs = 500 // far beyond the 64-packet window
	done := 0
	p.sim.Spawn("sender", func(ctx exec.Context) {
		for i := 0; i < msgs; i++ {
			p.qa.PostWrite(uint64(i), make([]byte, 64), p.mrb.RKey(), 0, 0, false)
		}
		for done < msgs {
			if _, ok := p.cqaS.PollOne(); ok {
				done++
			} else {
				ctx.Charge(100)
				ctx.Yield()
			}
		}
	})
	p.sim.Run()
	if done != msgs {
		t.Fatalf("completed %d of %d", done, msgs)
	}
	if got := p.qa.SendPending(); got != 0 {
		t.Fatalf("send pending %d after drain", got)
	}
}

func TestCQArmNotification(t *testing.T) {
	p := newPair(t, fabric.Config{PropDelay: 300}, 4096)
	fired := false
	p.sim.Spawn("rx", func(ctx exec.Context) {
		self := ctx.Self()
		p.cqbR.Arm(func() {
			fired = true
			self.Unpark()
		})
		ctx.Park()
		if p.cqbR.Len() == 0 {
			t.Error("woken with empty CQ")
		}
	})
	p.sim.Spawn("tx", func(ctx exec.Context) {
		ctx.Sleep(1000)
		p.qa.PostWrite(1, []byte("wake"), p.mrb.RKey(), 0, 0, true)
	})
	p.sim.Run()
	if !fired {
		t.Fatal("CQ arm callback never fired")
	}
}

func TestQPCloseFlushes(t *testing.T) {
	p := newPair(t, fabric.Config{PropDelay: 1_000_000_000}, 4096) // effectively black-holed
	p.sim.Spawn("x", func(ctx exec.Context) {
		p.qa.PostWrite(11, []byte("never"), p.mrb.RKey(), 0, 0, true)
		p.qa.Close()
		if p.na.QPCount() != 0 { // na owned only qa; qb lives on nb
			t.Errorf("QPCount after close = %d", p.na.QPCount())
		}
		e, ok := p.cqaS.PollOne()
		if !ok || e.Status != WCFlushErr || e.WRID != 11 {
			t.Errorf("flush completion missing: %+v ok=%v", e, ok)
		}
	})
	p.sim.Run()
}

func BenchmarkRDMAWriteImm8B_Sim(b *testing.B) {
	// End-to-end virtual-time cost is what matters here; this bench tracks
	// the real CPU cost of the simulated verb path.
	s := exec.NewSim(exec.SimConfig{})
	clk := s.Clock()
	epA, epB := fabric.NewLink(clk, "A", "B", fabric.Config{})
	na, nb := NewNIC(clk, "A", nil, 1), NewNIC(clk, "B", nil, 2)
	na.AddPort("B", epA)
	nb.AddPort("A", epB)
	pda, pdb := na.AllocPD(), nb.AllocPD()
	buf := make([]byte, 1<<16)
	mrb := pdb.RegisterBytes(buf)
	cqS, cqR := NewCQ(), NewCQ()
	qa := pda.CreateQP(cqS, NewCQ())
	qb := pdb.CreateQP(NewCQ(), cqR)
	qa.Connect("B", qb.QPN())
	qb.Connect("A", qa.QPN())
	payload := make([]byte, 8)
	b.ReportAllocs()
	b.ResetTimer()
	s.Spawn("bench", func(ctx exec.Context) {
		for i := 0; i < b.N; i++ {
			qa.PostWrite(uint64(i), payload, mrb.RKey(), 0, 0, true)
			waitUntil(ctx, 10, func() bool { return cqR.Len() > 0 })
			cqR.PollOne()
			cqS.PollOne()
		}
	})
	s.Run()
}

var _ = fmt.Sprintf

// waitUntil is the poll loop written out: it polls pred, charging pollCost
// and yielding between attempts, until pred returns true. (The stack's own
// loops hand their empty iterations to exec.Context.Spin.)
func waitUntil(ctx exec.Context, pollCost int64, pred func() bool) {
	for !pred() {
		ctx.Charge(pollCost)
		ctx.Yield()
	}
}

func TestWaitUntil(t *testing.T) {
	s := exec.NewSim(exec.SimConfig{})
	flag := false
	var at int64
	s.Spawn("setter", func(ctx exec.Context) {
		ctx.Charge(3000)
		flag = true
	})
	s.Spawn("waiter", func(ctx exec.Context) {
		waitUntil(ctx, 10, func() bool { return flag })
		at = ctx.Now()
	})
	s.Run()
	if at < 3000 {
		t.Fatalf("waiter finished at %d, before flag set at 3000", at)
	}
}
