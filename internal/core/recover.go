package core

import (
	"sync"

	"socksdirect/internal/ctlmsg"
	"socksdirect/internal/exec"
	"socksdirect/internal/obs"
	"socksdirect/internal/rdma"
	"socksdirect/internal/telemetry"
)

// QP failure recovery. When an inter-host QP dies (retry exhaustion during
// a partition, forced error, flush), the socket does NOT fail: the
// two-copy ring design of §4.2 means the sender-side ring copy doubles as
// a retransmit buffer, so the data path can be rebuilt underneath a live
// stream. The state machine here runs three stages:
//
//  1. Re-establishment: create a fresh QP and ask the monitor to splice it
//     to the peer (the same KReQP flow as post-fork §4.1.2, tagged
//     Dir=ReQPRecovery so both sides retire the dead QP). The monitor
//     channel shares the faulty fabric, so every attempt carries a
//     deadline; a silent timeout is abandoned and retried with capped
//     exponential backoff plus deterministic jitter.
//  2. Resynchronization: rewind the mirror cursor to the receiver's credit
//     line and re-flush. Bytes above the credit line are immutable until
//     freed and the receiver's cursors are monotonic (CAS-max), so
//     re-delivery is byte-identical and idempotent: no loss, no
//     duplication, no corruption.
//  3. Degradation: after the retry budget is exhausted, fall back to a
//     kernel TCP connection mid-stream (§4.5.3) via the monitor's rescue
//     listener — see tcpep.go.
//
// Everything is driven from progress(), which the send/recv wait loops
// call; no background thread exists, matching the paper's poll-only data
// plane.

// Package metric handles for the fault/recovery subsystem.
var (
	mRecoveries       = telemetry.C(telemetry.FaultRecoveries)
	mRecoveryAttempts = telemetry.C(telemetry.FaultRecoveryAttempts)
	mBackoffNs        = telemetry.C(telemetry.FaultBackoffNs)
	mDegradations     = telemetry.C(telemetry.FaultDegradations)
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

	// DefaultRecoveryBudget is the number of failed re-establishment
	// attempts before a socket degrades to kernel TCP. At the backoff cap
	// this rides out partitions of a few seconds.
	DefaultRecoveryBudget = 64
)

// recoverState is the per-endpoint recovery state machine.
type recoverState struct {
	mu          sync.Mutex
	qp          *rdma.QP // in-flight attempt's replacement QP (nil = none)
	nonce       uint64   // attempt id echoed through KReQPRes (stale replies can't match)
	deadline    int64    // virtual time at which the in-flight attempt is abandoned
	attempts    int      // failed attempts so far (spends the budget)
	next        int64    // earliest virtual time for the next attempt
	degradeSent bool     // KDegrade issued; waiting for the rescue socket

	op obs.OpSpan // root span of the in-flight attempt (obs tracing)
}

// SetRecoveryBudget overrides the per-socket QP re-establishment budget
// for this process (small budgets degrade to TCP quickly; tests use it to
// force each path).
func (l *Libsd) SetRecoveryBudget(n int) { l.recoveryBudget = n }

// markFailed latches the endpoint failure and kicks the published sleeper
// awake. The error CQE usually drains in auto-pump timer context while
// every application thread is parked in interrupt mode, and a dead QP
// delivers no further doorbells — without this nudge nothing would run the
// wait loops that drive recovery. A thread that has not parked yet sees
// failed on its next loop iteration instead (wait.pollEvery), so the two
// orders are both safe.
func (e *rdmaEP) markFailed() {
	if e.failed.Swap(true) {
		return
	}
	if sleeper := e.side.RecvSleeper.Load(); sleeper != 0 {
		g := GTID(sleeper)
		if p := e.lib.H.Process(g.PID()); p != nil {
			if t := p.ThreadByTID(g.TID()); t != nil && t.H != nil {
				th := t.H
				e.lib.H.Clk.After(e.lib.H.Costs.ProcessWakeup, func() { th.Unpark() })
			}
		}
	}
}

// progress implements endpoint: pump completions, then drive recovery if
// the QP has failed.
func (e *rdmaEP) progress(ctx exec.Context) {
	e.lib.pump(ctx)
	if e.failed.Load() {
		e.maybeRecover(ctx)
	}
}

func (e *rdmaEP) maybeRecover(ctx exec.Context) {
	if ctx == nil || e.side.Degraded.Load() || e.peerDeadFlg.Load() {
		return
	}
	r := &e.rec
	r.mu.Lock()
	defer r.mu.Unlock()
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
	if r.degradeSent {
		return // rescue pending; onDegraded swaps the endpoint
	}
	if r.attempts >= e.lib.recoveryBudget {
		e.startDegrade(ctx, r)
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

func (e *rdmaEP) startAttempt(ctx exec.Context, r *recoverState, now int64) {
	l := e.lib
	qp := l.pd.CreateQP(l.sendCQ, l.recvCQ)
	ctx.Charge(l.H.Costs.RDMAQPCreate)
	l.mu.Lock()
	l.reqpNonce++
	nonce := uint64(l.P.PID)<<40 | l.reqpNonce
	l.reqp = append(l.reqp, pendingReQP{qid: e.side.QID, nonce: nonce})
	l.mu.Unlock()
	r.qp, r.nonce = qp, nonce
	r.deadline = now + recoveryAttemptTimeout
	mRecoveryAttempts.Inc()
	if telemetry.Trace.Enabled() {
		telemetry.Trace.Emit(now, "core", "recovery_attempt",
			telemetry.A("qid", int64(e.side.QID)), telemetry.A("attempt", int64(r.attempts+1)))
	}
	r.op = obs.BeginOp(l.H.Name, int64(l.P.PID), obs.OpRecovery, now)
	req := ctlmsg.Msg{
		Kind: ctlmsg.KReQP, QID: e.side.QID, PID: int64(l.P.PID),
		QPN: qp.QPN(), Dir: ctlmsg.ReQPRecovery, ConnID: nonce,
		TraceID: r.op.Trace, SpanID: r.op.Span,
		// Our MRs survived the QP failure; the peer's replacement QP writes
		// to the same rings with the same keys.
		RingRKey: e.side.SelfRingRKey, CreditRKey: e.side.SelfCreditRKey,
		Secret: e.side.SelfTailRKey,
	}
	req.SetHost(e.side.PeerHost)
	l.sendCtl(ctx, &req)
}

func (e *rdmaEP) finishRecovery(ctx exec.Context, r *recoverState, pr pendingReQP) {
	qp := r.qp
	r.qp = nil
	if pr.status != ctlmsg.StatusOK || pr.peerQPN == 0 {
		qp.Close()
		r.op.End(ctx.Now(), false)
		e.backoff(r, ctx.Now())
		return
	}
	l := e.lib
	ep2 := &rdmaEP{
		lib: l, side: e.side, qp: qp,
		ringRKey: e.ringRKey, creditRKey: e.creditRKey, tailRKey: e.tailRKey,
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
	l.mu.Lock()
	var flow *obs.Flow
	for s := range l.socks[e.side.QID] {
		s.ep = ep2
		if flow == nil {
			flow = s.flow
		}
	}
	l.mu.Unlock()
	e.side.creditEP.Store(&creditBox{ep2})
	// Retire the dead QP on our side too: its QPN must never match a stale
	// in-flight packet against recycled ring offsets.
	e.qp.Close()
	ep2.resync(ctx)
	r.attempts = 0
	mRecoveries.Inc()
	flow.Recovery()
	r.op.End(ctx.Now(), true)
	obs.Trigger(obs.TrigQPRecovery, ctx.Now(), "QP recovered on "+l.H.Name)
	if telemetry.Trace.Enabled() {
		telemetry.Trace.Emit(ctx.Now(), "core", "recovery_done",
			telemetry.A("qid", int64(e.side.QID)))
	}
}

// resync re-mirrors the unacknowledged region of the TX ring through a
// fresh endpoint (stage 2 above). Rewinding TxFlushed to the receiver's
// credit cursor re-sends only bytes the receiver has not freed, whose ring
// content therefore cannot have changed; the receiver's tail and credit
// cursors are CAS-max monotonic, so overlapping re-delivery is a
// byte-identical no-op.
func (e *rdmaEP) resync(ctx exec.Context) {
	e.inflight.Store(0)
	e.refreshCredit()
	cr := e.side.TX.Credit()
	if cr < e.side.TxFlushed.Load() {
		e.side.TxFlushed.Store(cr)
	}
	e.flush(ctx)
}

func (e *rdmaEP) startDegrade(ctx exec.Context, r *recoverState) {
	r.degradeSent = true
	if telemetry.Trace.Enabled() {
		telemetry.Trace.Emit(ctx.Now(), "core", "degrade_request",
			telemetry.A("qid", int64(e.side.QID)))
	}
	obs.Trigger(obs.TrigRetryExhaustion, ctx.Now(), "QP recovery budget exhausted on "+e.lib.H.Name)
	op := obs.BeginOp(e.lib.H.Name, int64(e.lib.P.PID), obs.OpDegrade, ctx.Now())
	req := ctlmsg.Msg{Kind: ctlmsg.KDegrade, QID: e.side.QID, PID: int64(e.lib.P.PID),
		TraceID: op.Trace, SpanID: op.Span}
	req.SetHost(e.side.PeerHost)
	e.lib.sendCtl(ctx, &req)
	op.End(ctx.Now(), true)
}

// takeReQP removes and returns the (qid, nonce) entry if its response has
// arrived. Fork-flow entries use nonce 0 and their own matcher.
func (l *Libsd) takeReQP(qid, nonce uint64) (pendingReQP, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
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
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := range l.reqp {
		if l.reqp[i].qid == qid && l.reqp[i].nonce == nonce {
			l.reqp = append(l.reqp[:i], l.reqp[i+1:]...)
			return
		}
	}
}
