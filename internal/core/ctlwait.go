package core

import (
	"math"

	"socksdirect/internal/ctlmsg"
	"socksdirect/internal/exec"
)

// Bounded control-plane waits. Every libsd path that blocks on a monitor
// round trip (bind, connect, token takeover, fork pairing, post-fork QP
// splice) used to park forever if the daemon died mid-request. These
// waits are now bounded — but not by a plain deadline: a FIFO token wait
// behind a long queue, or a connect to a slow remote host, can
// legitimately take arbitrarily long while the monitor is perfectly
// healthy. The deadline therefore measures monitor *silence*: while
// waiting, the thread pings the daemon whenever nothing has been heard
// for ctlPingEvery, and only gives up (ETIMEDOUT / EAGAIN) once nothing —
// no pong, no other control message — has arrived for ctlDeadAfter.
//
// The waiter also survives a monitor restart transparently: the request
// it carried died with the old incarnation (the successor drops stale-
// epoch messages), so when the observed epoch changes — the successor's
// KReRegister bumps it — the waiter re-issues the original request,
// stamped with the new epoch, and the wait continues as if nothing
// happened.
const (
	ctlPingEvery = 2_000_000  // 2 ms of silence -> probe the daemon
	ctlDeadAfter = 10_000_000 // 10 ms of silence -> the daemon is gone
)

type ctlWaiter struct {
	l        *Libsd
	start    int64
	lastPing int64
	epoch    uint32 // incarnation the in-flight request was stamped for
	shard    int32  // monitor shard serving the awaited request
	resend   func(exec.Context)
	seen     uint32  // l.ctlSeen as of the caller's last look at what it waits for
	deadline int64   // the caller's own bound (absolute, 0 = none), checked between steps
	sock     *Socket // whose peer's death ends the wait: a dial's once its answer is in (ackWaiter), a splice's
}

// newCtlWaiter starts the silence clock for one in-flight control-plane
// request. shard is the dispatch loop the request routed to — the wait
// measures that one loop's silence and addresses its pings there, so a
// wedged shard times out even while its siblings chatter. resend
// re-issues the request verbatim (sendCtl re-stamps the epoch); it must
// be idempotent at the monitor — every request kind is, by
// ConnID/registration dedup.
func (l *Libsd) newCtlWaiter(ctx exec.Context, shard int, resend func(exec.Context)) ctlWaiter {
	now := l.H.Clk.Now()
	return ctlWaiter{l: l, start: now, lastPing: now,
		epoch: l.monEpoch.Load(), shard: int32(shard), resend: resend}
}

// silence is how long the awaited shard has said nothing, as of now.
func (w *ctlWaiter) silence(now int64) int64 {
	if last := w.l.lastCtlRecv[w.shard].Load(); last > w.start {
		return now - last
	}
	return now - w.start
}

// step runs one iteration of a bounded wait: drain the control queue,
// re-issue across a restart, ping on silence, and yield.
// It returns ErrMonitorDown-wrapped ETIMEDOUT once the silence deadline
// passes; the caller maps it to its own errno if needed.
//
// The caller's loop is: look at what it waits for, check its own death and
// deadline, step. The iterations in which none of that can come out
// differently are played by the scheduler, under Idle.
func (w *ctlWaiter) step(ctx exec.Context) error { return w.stepAs(ctx, w) }

// stepAs is step for a loop that watches more than a ctlWaiter knows of.
func (w *ctlWaiter) stepAs(ctx exec.Context, idle exec.Idler) error {
	l := w.l
	// Before the poll: a message it dispatches may be the awaited one, and
	// then the caller has to look again at once.
	w.seen = l.ctlSeen.Load()
	l.pollCtl(ctx)
	now := l.H.Clk.Now()
	if e := l.monEpoch.Load(); e != w.epoch {
		// A new incarnation introduced itself: our request died with the
		// old one. Re-issue under the new epoch and restart the clock.
		w.epoch = e
		w.start = now
		w.lastPing = now
		if w.resend != nil {
			w.resend(ctx)
		}
	}
	if w.silence(now) > ctlDeadAfter {
		return ETIMEDOUT
	}
	if now-w.lastPing >= ctlPingEvery {
		w.lastPing = now
		// Shard-addressed ping: KPing has no state key, so the Shard field
		// routes it to the loop whose silence this wait is measuring.
		ping := ctlmsg.Msg{Kind: ctlmsg.KPing, PID: int64(l.P.PID),
			Shard: uint8(w.shard)}
		l.sendCtl(ctx, &ping)
	}
	ctx.Charge(l.H.Costs.RingOp)
	ctx.Spin(l.H.Costs.RingOp, 0, math.MaxInt, idle)
	return nil
}

// Idle: the process lives, no control message waits and none has been
// dispatched (by any thread, or the signal handler) since the caller looked
// at what it waits for — which, a token apart, only a message's handler
// changes — and the caller's deadline, the next ping and the silence limit
// are still ahead.
func (w *ctlWaiter) Idle(now int64) bool {
	l := w.l
	return l.ctlSeen.Load() == w.seen && l.monEpoch.Load() == w.epoch &&
		!l.P.Dead() && l.ctlIdle() && (w.sock == nil || !w.sock.peerGone()) &&
		(w.deadline == 0 || now < w.deadline) &&
		now-w.lastPing < ctlPingEvery && w.silence(now) <= ctlDeadAfter
}

// tokenWaiter is acquireToken's wait for the grant. Its loop also watches
// the token word (a holder may simply let go), the peer, the socket's
// readiness to block and revocations to run for threads that are not polling.
type tokenWaiter struct {
	ctlWaiter
	s     *Socket
	dir   int
	held  int64 // the holder the loop last saw: someone else
	asked int64 // when the takeover request last went out
}

// tokenAskAgain is how long a takeover waits on one request before it sends
// the request again (the monitor deduplicates): a grant can be lost to a
// faster claimant of the freed token, and nothing else re-enters the FIFO.
// A thousand healthy round trips, and well inside ctlDeadAfter, so a lost
// grant never looks like a dead monitor.
const tokenAskAgain = 2_000_000

func (w *tokenWaiter) step(ctx exec.Context, held int64) error {
	w.held = held
	return w.stepAs(ctx, w)
}

func (w *tokenWaiter) Idle(now int64) bool {
	s := w.s
	holder, _ := s.tokenVars(w.dir)
	return holder.Load() == w.held && !s.peerGone() && s.wouldBlock(now, w.dir) == nil &&
		!s.lib.hasRevokes.Load() && now-w.asked < tokenAskAgain && w.ctlWaiter.Idle(now)
}
