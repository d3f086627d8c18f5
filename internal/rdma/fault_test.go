package rdma

import (
	"testing"
	"time"

	"socksdirect/internal/exec"
	"socksdirect/internal/fabric"
)

// TestRetryExhaustionReentrantNotifyNoDeadlock pins the order of the
// retry-exhaustion transition: QP.onTimeout collects the WCRetryExceeded
// completions as pendCQEs and emits them only once the QP is in QPErr, so a
// CQ notify callback that re-enters the QP — exactly what libsd's
// completion pump does when it posts follow-up writes from the poll loop —
// finds the transition finished and gets ErrQPState.
//
// A hang is caught by the wall-clock watchdog; the run finishes in
// milliseconds of virtual time.
func TestRetryExhaustionReentrantNotifyNoDeadlock(t *testing.T) {
	// 100% loss: nothing is ever delivered or acked, so the sender's RTO
	// fires MaxRetry+1 times and the QP transitions to error.
	p := newPair(t, fabric.Config{PropDelay: 100, LossRate: 1, Seed: 3}, 4096)

	var (
		reentered  bool
		reenterErr error
		sendCQE    CQE
		recvCQE    CQE
		haveSend   bool
		haveRecv   bool
	)
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.sim.Spawn("sender", func(ctx exec.Context) {
			self := ctx.Self()
			// A posted receive WQE must be flushed by the error transition.
			p.qa.PostRecv(99, make([]byte, 64))
			p.cqaS.Arm(func() {
				// Completion-pump behavior: re-enter the QP from inside the
				// notify callback by posting a follow-up write.
				reentered = true
				reenterErr = p.qa.PostWrite(2, []byte("follow-up"), p.mrb.RKey(), 64, 0, true)
				self.Unpark()
			})
			p.qa.PostWrite(1, []byte("doomed"), p.mrb.RKey(), 0, 0, true)
			ctx.Park()
			sendCQE, haveSend = p.cqaS.PollOne()
			recvCQE, haveRecv = p.cqaR.PollOne()
		})
		p.sim.Run()
	}()

	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("hang: retry exhaustion never finished")
	}

	if !reentered {
		t.Fatal("notify callback never fired")
	}
	if reenterErr != ErrQPState {
		t.Errorf("re-entrant post on errored QP returned %v, want ErrQPState", reenterErr)
	}
	if !haveSend || sendCQE.WRID != 1 || sendCQE.Status != WCRetryExceeded {
		t.Errorf("send completion = %+v (have=%v), want WRID 1 WCRetryExceeded", sendCQE, haveSend)
	}
	if !haveRecv || recvCQE.WRID != 99 || recvCQE.Status != WCFlushErr {
		t.Errorf("recv flush completion = %+v (have=%v), want WRID 99 WCFlushErr", recvCQE, haveRecv)
	}
	if p.qa.State() != QPErr {
		t.Errorf("QP state = %v, want QPErr", p.qa.State())
	}
	if got := p.qa.SendPending(); got != 0 {
		t.Errorf("inflight/pending not cleared: %d", got)
	}
}

// TestRecvBufferOverrunCompletesWithLocalLenErr covers the OpSend overrun
// path: a message larger than the posted receive buffer used to be
// silently truncated with a short successful Len; it must instead complete
// the WQE with a local length error and move the receiving QP to error.
func TestRecvBufferOverrunCompletesWithLocalLenErr(t *testing.T) {
	p := newPair(t, fabric.Config{PropDelay: 50}, 4096)
	small := make([]byte, 8)
	p.qb.PostRecv(7, small)
	var wc CQE
	var haveWC bool
	p.sim.Spawn("sender", func(ctx exec.Context) {
		p.qa.PostSend(1, make([]byte, 64))
		ctx.Sleep(2 * DefaultRTO * (MaxRetry + 2))
	})
	p.sim.Spawn("receiver", func(ctx exec.Context) {
		waitUntil(ctx, 10, func() bool { return p.cqbR.Len() > 0 })
		wc, haveWC = p.cqbR.PollOne()
	})
	p.sim.Run()
	if !haveWC || wc.WRID != 7 || wc.Status != WCLocalLenErr {
		t.Fatalf("completion = %+v (have=%v), want WRID 7 WCLocalLenErr", wc, haveWC)
	}
	if p.qb.State() != QPErr {
		t.Errorf("receiver QP state = %v, want QPErr", p.qb.State())
	}
	// The sender's WR must not have completed successfully.
	if e, ok := p.cqaS.PollOne(); ok && e.Status == WCSuccess {
		t.Errorf("sender saw success for a truncated delivery: %+v", e)
	}
}

// TestForceErrorFlushes covers the fault-injection entry point.
func TestForceErrorFlushes(t *testing.T) {
	p := newPair(t, fabric.Config{PropDelay: 1_000_000_000}, 4096) // black-holed
	p.sim.Spawn("x", func(ctx exec.Context) {
		p.qa.PostWrite(5, []byte("stuck"), p.mrb.RKey(), 0, 0, true)
		p.qa.ForceError()
		e, ok := p.cqaS.PollOne()
		if !ok || e.WRID != 5 || e.Status != WCFlushErr {
			t.Errorf("flush completion = %+v ok=%v", e, ok)
		}
		if p.qa.State() != QPErr {
			t.Errorf("state = %v, want QPErr", p.qa.State())
		}
	})
	p.sim.Run()
	if n := p.na.FailAllQPs(); n != 0 {
		t.Errorf("FailAllQPs transitioned %d QPs, want 0 (already errored)", n)
	}
}
