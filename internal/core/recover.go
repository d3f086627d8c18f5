package core

import (
	"socksdirect/internal/ctlmsg"
	"socksdirect/internal/exec"
	"socksdirect/internal/obs"
	"socksdirect/internal/rdma"
	"socksdirect/internal/telemetry"
)

// QP splicing: the one way an endpoint gets a QP other than at connection
// set-up. When an inter-host QP dies (retry exhaustion during a partition,
// forced error, flush), the socket does NOT fail: the two-copy ring design
// of §4.2 means the sender-side ring copy doubles as a retransmit buffer,
// so the data path can be rebuilt underneath a live stream. A process that
// inherited the socket (fork, exec, migration) has no QP for it at all, and
// gets one the same way on first use (§4.1.2: "When a child process uses a
// socket created before fork, it asks the monitor to re-establish an RDMA
// QP with the remote endpoint"); its endpoint starts out failed, with no
// QP. The state machine here runs two stages:
//
//  1. Re-establishment: create a fresh QP and ask the monitor to splice it
//     to the peer (KReQP, answered by the peer's KReQPPeer handler). A
//     recovery is tagged Dir=ReQPRecovery, so both sides retire the dead
//     QP; an inherited socket's request is Dir=ReQPFork, and the peer keeps
//     the QP it has, which another process may still use. The monitor
//     channel shares the faulty fabric, so every attempt carries a
//     deadline; a silent timeout is abandoned and retried with capped
//     exponential backoff plus deterministic jitter, for as long as the
//     peer stays silent: a partition of the RDMA plane stalls the stream
//     until it heals, or until the application's deadline fires. An
//     answer that refuses the splice (the peer host no longer holds the
//     connection, or the peer process has no such socket) means the peer
//     is gone: the socket reaches peerReset, one ECONNRESET, then EOF and
//     EPIPE.
//  2. Resynchronization: rewind the mirror cursor to the receiver's credit
//     line and re-flush. Bytes above the credit line are immutable until
//     freed and the receiver's cursors are monotonic (CAS-max), so
//     re-delivery is byte-identical and idempotent: no loss, no
//     duplication, no corruption.
//
// Everything is driven from progress(), which the send/recv wait loops
// call, and from an inherited endpoint's trySend and tryRecv; no
// background thread exists, matching the paper's poll-only data plane.

// Package metric handles for the fault/recovery subsystem.
var (
	mRecoveries       = telemetry.C(telemetry.FaultRecoveries)
	mRecoveryAttempts = telemetry.C(telemetry.FaultRecoveryAttempts)
	mBackoffNs        = telemetry.C(telemetry.FaultBackoffNs)
)

const (
	// recoveryAttemptTimeout bounds one KReQP round trip. The healthy
	// control path completes in microseconds; a silent attempt means the
	// monitor channel is down too.
	recoveryAttemptTimeout = 2_000_000 // 2 ms virtual

	// recoveryBackoffBase/Cap shape the capped exponential backoff between
	// attempts.
	recoveryBackoffBase = 500_000    // 0.5 ms
	recoveryBackoffCap  = 50_000_000 // 50 ms

	// recoveryPollInterval throttles the wait loops while a recovery is
	// pending so virtual time advances without a per-nanosecond spin.
	recoveryPollInterval = 100_000 // 100 µs
)

// recoverState is the per-endpoint recovery state machine.
type recoverState struct {
	qp       *rdma.QP // in-flight attempt's replacement QP (nil = none)
	nonce    uint64   // attempt id echoed through KReQPRes (stale replies can't match)
	deadline int64    // virtual time at which the in-flight attempt is abandoned
	attempts int      // failed attempts so far (shapes the backoff)
	next     int64    // earliest virtual time for the next attempt

	op obs.OpSpan // root span of the in-flight attempt (obs tracing)
}

// markFailed latches the endpoint failure and kicks the published sleeper
// awake. The error CQE usually drains in auto-pump timer context while
// every application thread is parked in interrupt mode, and a dead QP
// delivers no further doorbells — without this nudge nothing would run the
// wait loops that drive recovery. A thread that has not parked yet sees
// failed on its next loop iteration instead (wait.pollEvery), so the two
// orders are both safe.
func (e *rdmaEP) markFailed() {
	if e.failed {
		return
	}
	e.failed = true
	if sleeper := e.side.RecvSleeper.Load(); sleeper != 0 {
		g := GTID(sleeper)
		if p := e.lib.H.Process(g.PID()); p != nil {
			if t := p.ThreadByTID(g.TID()); t != nil {
				e.lib.H.Clk.After(e.lib.H.Costs.ProcessWakeup, t.H.Unpark)
			}
		}
	}
}

// progress implements endpoint: pump completions, then drive recovery if
// the QP has failed.
func (e *rdmaEP) progress(ctx exec.Context) {
	e.lib.pump(ctx)
	if e.failed {
		e.maybeRecover(ctx)
	}
}

func (e *rdmaEP) maybeRecover(ctx exec.Context) {
	if ctx == (exec.Context{}) || e.side.is(peerReset) {
		return
	}
	r := &e.rec
	now := ctx.Now()
	if r.qp != nil {
		if pr, done := e.lib.takeReQP(e.side.QID, r.nonce); done {
			e.finishRecovery(ctx, r, pr)
			return
		}
		if now >= r.deadline {
			// No response inside the deadline: the monitor channel rides
			// the same faulty fabric. Abandon the attempt; the nonce makes
			// a late reply harmless.
			r.qp.Close()
			r.qp = nil
			e.lib.dropReQP(e.side.QID, r.nonce)
			r.op.End(now, false)
			e.backoff(r, now)
		}
		return
	}
	if now < r.next {
		return
	}
	e.startAttempt(ctx, r, now)
}

// backoff schedules the next attempt: capped exponential with a
// deterministic jitter derived from (QID, attempt) so two endpoints
// recovering from the same fault don't stampede in lockstep — and so a
// chaos run replays identically.
func (e *rdmaEP) backoff(r *recoverState, now int64) {
	r.attempts++
	d := int64(recoveryBackoffBase)
	for i := 1; i < r.attempts && d < recoveryBackoffCap; i++ {
		d *= 2
	}
	if d > recoveryBackoffCap {
		d = recoveryBackoffCap
	}
	h := e.side.QID*0x9E3779B97F4A7C15 + uint64(r.attempts)*0xBF58476D1CE4E5B9
	d += int64(h % uint64(d/4+1))
	r.next = now + d
	mBackoffNs.Add(d)
}

// startAttempt sends one splice request: KReQP with a fresh QP and a nonce
// that its answer echoes, so a stale answer matches nothing.
func (e *rdmaEP) startAttempt(ctx exec.Context, r *recoverState, now int64) {
	l := e.lib
	qp := l.pd.CreateQP(l.sendCQ, l.recvCQ)
	l.reqpNonce++
	nonce := uint64(l.P.PID)<<40 | l.reqpNonce
	l.reqp = append(l.reqp, pendingReQP{qid: e.side.QID, nonce: nonce})
	r.qp, r.nonce = qp, nonce
	r.deadline = now + recoveryAttemptTimeout
	// On record before the charge: a death or a close that lands during the
	// creation finds the QP to close (OnProcessDeath, Socket.dropEP).
	ctx.Charge(l.H.Costs.RDMAQPCreate)
	dir := ctlmsg.ReQPRecovery
	if e.qp == nil {
		dir = ctlmsg.ReQPFork
		mForkReQP.Inc()
	} else {
		mRecoveryAttempts.Inc()
		obs.Emit(l.H.Name, int64(l.P.PID), obs.EvRecoveryAttempt, 0, now, int64(e.side.QID), int64(r.attempts+1))
		r.op = obs.BeginOp(l.H.Name, int64(l.P.PID), obs.OpRecovery, now)
	}
	if e.selfRingRKey == 0 {
		// The peer's new QP writes to the same rings, through MRs of this
		// process's PD: an inherited endpoint registers them now.
		rx, credit := l.pd.RegisterRingAt(new(rdma.MR), e.side.RX), l.pd.RegisterBytes(e.side.creditIn[:])
		e.side.mrs = append(e.side.mrs, rx, credit)
		e.selfRingRKey, e.selfCreditRKey = rx.RKey(), credit.RKey()
	}
	req := ctlmsg.Msg{
		Kind: ctlmsg.KReQP, QID: e.side.QID, PID: int64(l.P.PID),
		QPN: qp.QPN(), Dir: dir, ConnID: nonce,
		TraceID: r.op.Trace, SpanID: r.op.Span,
		RingRKey: e.selfRingRKey, CreditRKey: e.selfCreditRKey,
	}
	req.SetHost(e.side.PeerHost)
	l.sendCtl(&req)
}

// finishRecovery finishes a splice the peer answered: the new QP becomes the
// endpoint of every socket of this process on the queue.
func (e *rdmaEP) finishRecovery(ctx exec.Context, r *recoverState, pr pendingReQP) {
	qp := r.qp
	r.qp = nil
	if pr.status != ctlmsg.StatusOK || pr.peerQPN == 0 {
		qp.Close()
		r.op.End(ctx.Now(), false)
		if pr.status == ctlmsg.StatusOK {
			e.backoff(r, ctx.Now())
		} else {
			// Refused: the peer host no longer holds the connection, or
			// the peer process holds no socket on it. Nobody is left to
			// splice to.
			e.side.reach(peerReset)
		}
		return
	}
	l := e.lib
	ep2 := &rdmaEP{
		lib: l, side: e.side, qp: qp,
		ringRKey: e.ringRKey, creditRKey: e.creditRKey,
		selfRingRKey: e.selfRingRKey, selfCreditRKey: e.selfCreditRKey,
		batching: e.batching,
	}
	l.registerEP(ep2)
	// Active: the peer's replacement QP holds its resync until our RTU,
	// which re-publishes our receive credit (the last credit write may have
	// died with the old QP, and a lost credit shrinks the peer's window
	// forever).
	if err := ep2.open(pr.peerHost, pr.peerQPN, false); err != nil {
		qp.Close()
		r.op.End(ctx.Now(), false)
		e.backoff(r, ctx.Now())
		return
	}
	olds := l.switchEP(ep2)
	// Retire the dead QP on our side too: its QPN must never match a stale
	// in-flight packet against recycled ring offsets.
	closeQPs(olds)
	ep2.resync(ctx)
	r.attempts = 0
	if e.qp == nil {
		return // an inherited socket's first QP: counted in sd/core/fork/reqp
	}
	mRecoveries.Inc()
	var flow *obs.Flow
	for s := l.socks[e.side.QID]; s != nil && flow == nil; s = s.sib {
		flow = s.flow
	}
	flow.Recovery()
	r.op.End(ctx.Now(), true)
	obs.Emit(l.H.Name, int64(l.P.PID), obs.EvRecoveryDone, 0, ctx.Now(), int64(e.side.QID), 0)
	obs.Trigger(obs.TrigQPRecovery, ctx.Now(), "QP recovered on "+l.H.Name)
}

// resync re-mirrors the unacknowledged region of the TX ring through a
// fresh endpoint (stage 2 above). Rewinding TxFlushed to the receiver's
// credit cursor re-sends only bytes the receiver has not freed, whose ring
// content therefore cannot have changed; the receiver's tail and credit
// cursors are CAS-max monotonic, so overlapping re-delivery is a
// byte-identical no-op.
func (e *rdmaEP) resync(ctx exec.Context) {
	e.inflight = 0
	e.refreshCredit()
	cr := e.side.TX.Credit()
	if cr < e.side.TxFlushed.Load() {
		e.side.TxFlushed.Store(cr)
	}
	e.flush(ctx)
}

// pendingReQP is one splice request in flight, and its answer once the
// KReQPRes handler has filled it in.
type pendingReQP struct {
	qid      uint64
	nonce    uint64 // the request's unique id, echoed by the answer
	done     bool
	status   uint8 // ctlmsg status from the KReQPRes
	peerQPN  uint32
	peerHost string
}

// takeReQP removes and returns the (qid, nonce) entry if its response has
// arrived.
func (l *Libsd) takeReQP(qid, nonce uint64) (pendingReQP, bool) {
	for i := range l.reqp {
		if l.reqp[i].qid == qid && l.reqp[i].nonce == nonce {
			if !l.reqp[i].done {
				return pendingReQP{}, false
			}
			pr := l.reqp[i]
			l.reqp = append(l.reqp[:i], l.reqp[i+1:]...)
			return pr, true
		}
	}
	return pendingReQP{}, false
}

// dropReQP discards an abandoned attempt's entry whether or not a late
// response landed.
func (l *Libsd) dropReQP(qid, nonce uint64) {
	for i := range l.reqp {
		if l.reqp[i].qid == qid && l.reqp[i].nonce == nonce {
			l.reqp = append(l.reqp[:i], l.reqp[i+1:]...)
			return
		}
	}
}
