package core

import (
	"errors"
	"io"
	"maps"
	"math"
	"slices"

	"socksdirect/internal/ctlmsg"
	"socksdirect/internal/exec"
	"socksdirect/internal/host"
)

// Blocking in libsd: the one way a thread waits (§4.4). Every blocking call
// is the loop
//
//	for {
//		look at what the call waits for; if it is there, go on
//		if err := w.block(ctx); err != nil { undo what is half done; return err }
//	}
//
// and the rest of a wait is in block: its exits, the polls of an empty
// iteration, the token handed over when asked for, the ring operation charged
// per poll, the empty polls left to the scheduler (exec.Context.Spin), the
// switch to interrupt mode, the slow poll of a failed endpoint. The site says
// which apply, as data: the constructors below (Wait-Server's and Epoll.Wait's
// are literals at their sites) are the table of the waits.
//
// Exits, in the order block tests them, the same for every wait they apply
// to:
//
//  1. the thread's own process was killed: ErrProcessKilled;
//  2. the peer process died: ECONNRESET once per socket, then EPIPE for a
//     sender and io.EOF for a receiver (resetErr) — for a receiver only once
//     nothing is left to drain;
//  3. the direction the wait holds was shut down: io.EOF for a receiver,
//     ErrShutdown for a sender once both are;
//  4. O_NONBLOCK: EWOULDBLOCK, counted in sd/core/ewouldblock;
//  5. the deadline passed: ETIMEDOUT, counted in sd/core/deadline_timeouts;
//  6. the monitor said nothing for ctlDeadAfter, pings included: ETIMEDOUT
//     for a bind or a dial, EAGAIN for what is simply retryable (a takeover,
//     a fork's pairing).
//
// A monitor restart mid-wait ends nothing: the request the old incarnation
// took with it goes out again, once.
//
// Asleep is outside the library (§4.4 challenge 2): a thread leaves the
// library boundary before it parks. The monitor signals a process only when
// no thread of it is inside, and the handler drains the control queue — a SYN
// for a parked listener, a revocation. While a thread is inside, the message
// is marked pending instead: a spinning wait finds it at its next poll, and
// the last thread out of the library (a parking one too) drains it on its way
// out (Libsd.leave). A timer ends a park at the deadline; woken, it polls
// again.

const (
	// emptyPollsBeforeSleep is the consecutive-empty-poll budget before a
	// wait that can be woken switches to interrupt mode (§4.2, §4.4).
	emptyPollsBeforeSleep = 4096
	// A wait for the monitor's answer is bounded by the monitor's silence, not
	// by a deadline (a token wait behind a long FIFO may take any time while
	// the monitor is healthy): it pings the shard serving its request after
	// ctlPingEvery of silence and gives up after ctlDeadAfter.
	ctlPingEvery = 2_000_000
	ctlDeadAfter = 10_000_000
	// tokenAskAgain is how long a takeover waits on one request before it
	// sends it again (the monitor deduplicates): a grant can be lost to a
	// faster claimant of the freed token, and nothing else re-enters the
	// FIFO. A thousand healthy round trips, and well inside ctlDeadAfter.
	tokenAskAgain = 2_000_000
)

// polls names what an empty iteration polls, in the order it does.
type polls uint8

const (
	pollEP  polls = 1 << iota // the socket's endpoint: its completions, its recovery
	pollCtl                   // the control queues
	pollCQ                    // the process's completion queues
)

// wait is one blocking call's wait. A field's zero value: does not apply.
type wait struct {
	l    *Libsd
	idle exec.Idler // the site's "nothing to do", for the scheduler: the predicates at the end of this file

	// What may end the wait besides what it waits for.
	sock     *Socket  // the socket whose peer may die
	dir      int      // of sock's directions, the one the wait is on
	nonblock *bool    // O_NONBLOCK
	deadline *int64   // absolute, 0 when not armed
	ctl      *ctlWait // a request with the monitor: its silence, its restart

	// One empty iteration.
	t       *host.Thread // the thread a sleeper parks; with drives, it holds dir's token of sock and its busy mark, and hands the token over when asked (§4.1.1)
	drives  bool         // holds dir of sock and drives its endpoint: shutdown ends the wait, a failed endpoint is polled slowly
	polls   polls
	pre     int64   // charged per poll before the yield (the look is free),
	post    int64   // or after it (the look is an attempt, which costs it): Spin's
	sleeper sleeper // how to be woken from a park; nil: the wait only spins

	empty int // consecutive empty polls
	spun  int // how many of them the last block stood for (send's accounting)
}

// sleeper is a predicate that also knows how its thread (t, where the wait
// holds a token) is woken: doze publishes it as asleep, woke takes that back.
type sleeper interface {
	doze(ctx exec.Context, t *host.Thread)
	woke(t *host.Thread)
}

// block ends one empty iteration: it returns nil when the site should look
// again, and the errno when the wait is over.
func (w *wait) block(ctx exec.Context) error {
	if err := w.exit(ctx); err != nil {
		return err
	}
	l, s := w.l, w.sock
	if w.polls&pollEP != 0 {
		s.ep.progress(ctx)
	}
	if w.polls&pollCtl != 0 {
		if w.ctl != nil {
			// Before the poll: a message it dispatches may be the awaited
			// one, and then the site has to look again at once.
			w.ctl.seen = l.ctlSeen
		}
		l.pollCtl(ctx)
	}
	if w.polls&pollCQ != 0 {
		l.pump(ctx)
	}
	if w.ctl != nil {
		if err := w.ctl.duties(); err != nil {
			return err
		}
	}
	if w.drives {
		me := int64(0)
		if w.t != nil {
			// Honor a pending token revocation and rejoin the FIFO rather
			// than starving the waiter (§4.1.1).
			me = int64(l.GTIDOf(w.t))
			s.maybeHandBack(w.dir)
			if s.side.Holder[w.dir].Load() != me {
				if err := s.reacquireToken(ctx, w.t, w.dir); err != nil {
					return err
				}
			}
		}
		s.side.Poller[w.dir] = me // for dir's predicate: whose token it watches (0: none to lose)
	}
	ctx.Charge(w.pre)
	if every := w.pollEvery(); every != 0 {
		if w.polls&pollEP == 0 {
			s.ep.progress(ctx)
		}
		ctx.Sleep(every)
		ctx.Charge(w.post)
		w.empty, w.spun = 0, 0
		return nil
	}
	w.empty++
	switch {
	case w.sleeper == nil:
		w.spun = ctx.Spin(w.pre, w.post, math.MaxInt, w.idle)
	case w.empty < emptyPollsBeforeSleep:
		w.empty += ctx.Spin(w.pre, w.post, emptyPollsBeforeSleep-1-w.empty, w.idle)
	default:
		w.park(ctx)
		w.empty = 0
	}
	return nil
}

// exit tests what ends the wait, in the order of the list above.
func (w *wait) exit(ctx exec.Context) error {
	if w.l.P.Dead() {
		return ErrProcessKilled
	}
	if s := w.sock; s != nil {
		if s.peerGone() && (w.dir == DirSend || !s.hasDrainable()) {
			return s.resetErr(ctx, w.dir)
		}
		if w.drives && s.side.is(rxShut) {
			if w.dir == DirRecv {
				return io.EOF
			}
			if s.side.is(txShut) {
				return ErrShutdown
			}
		}
	}
	if w.nonblock != nil && *w.nonblock {
		mEWouldBlock.Inc()
		return EWOULDBLOCK
	}
	if w.deadline != nil && past(w.deadline, ctx.Now()) {
		mDeadlineTimeouts.Inc()
		return ETIMEDOUT
	}
	return nil
}

func past(deadline *int64, now int64) bool { return *deadline != 0 && now >= *deadline }

// pollEvery is how far apart the wait spaces its polls: not at all, unless it
// drives an endpoint that has failed, which this loop recovers. That wait
// does not park; the spacing lets virtual time advance (deadlines and
// back-off timers live on the clock).
func (w *wait) pollEvery() int64 {
	if !w.drives {
		return 0
	}
	if ep, ok := w.sock.ep.(*rdmaEP); ok && ep.failed {
		return recoveryPollInterval
	}
	return 0
}

// park is interrupt mode (§4.4): the thread sleeps until what it waits for
// wakes it, or the timer at its deadline, or its death.
func (w *wait) park(ctx exec.Context) {
	if !w.idle.Idle(ctx.Now()) {
		return // something came during the last poll
	}
	w.sleeper.doze(ctx, w.t)
	if w.deadline != nil && *w.deadline != 0 {
		// The loop finds the deadline passed; an unpark after the wait has
		// ended is absorbed by the permit.
		th := ctx.Self()
		ctx.After(*w.deadline-ctx.Now(), th.Unpark)
	}
	w.l.leave()
	ctx.Park()
	w.l.enter()
	w.sleeper.woke(w.t)
}

// dataWait is what the data path's waits, each holding dir of s, share.
func (s *Socket) dataWait(idle exec.Idler, dir int) wait {
	return wait{l: s.lib, idle: idle, sock: s, dir: dir, nonblock: &s.nonblock, deadline: &s.deadline[dir],
		drives: true, polls: pollCtl, pre: s.lib.H.Costs.RingOp}
}

// recvWait waits for traffic with the receive token held: an intra-host
// sender wakes it through the monitor, an RDMA completion through the CQ.
func (s *Socket) recvWait(t *host.Thread) wait {
	w := s.dataWait((*recvWaiter)(s), DirRecv)
	w.t, w.sleeper = t, (*recvWaiter)(s)
	return w
}

// tailWait waits for the rest of a message whose head has been taken: under
// the deadline, but not O_NONBLOCK or a revocation, which would tear it.
func (s *Socket) tailWait() wait {
	w := s.dataWait((*recvWaiter)(s), DirRecv)
	w.nonblock = nil
	return w
}

// sendWait waits for room in the send ring (sendMsgT). t is nil for the
// protocol's own messages (MShut, zero-copy returns), which neither
// O_NONBLOCK nor the deadline sheds: that would corrupt the close and
// zero-copy handshakes. Its look is a send attempt, so the ring operation is
// charged after the yield, and it alone polls its endpoint every iteration.
func (s *Socket) sendWait(t *host.Thread) wait {
	w := s.dataWait((*sendWaiter)(s), DirSend)
	w.t, w.polls, w.pre, w.post = t, pollEP|pollCtl, 0, w.pre
	if t == nil {
		w.nonblock, w.deadline = nil, nil
	}
	return w
}

// poolWait waits for free slots in the peer's zero-copy pool
// (zcSendInterChunk, which drains the slot returns as part of looking).
func (s *Socket) poolWait() wait { return s.dataWait((*zcWaiter)(s), DirSend) }

// acceptWait waits for a connection in lst's backlog (Accept polls the control
// queues as part of looking: a SYN comes from there). Its request is the steal
// hint, which nothing answers: it goes out with the first empty iteration.
func (lst *Listener) acceptWait() wait {
	a := (*acceptWaiter)(lst)
	lst.hint = ctlWait{l: lst.lib, m: &lst.hintMsg}
	return wait{l: lst.lib, idle: a, sleeper: a, ctl: &lst.hint,
		nonblock: &lst.nonblock, deadline: &lst.deadline, pre: lst.lib.H.Costs.RingOp}
}

// ctlWait is a request with the monitor and the wait for its answer: the
// silence clock, and what the predicates need. It survives a monitor restart:
// the successor drops stale-epoch messages, so when the observed epoch changes
// (its KReRegister bumps it) the request goes out again under the new one.
type ctlWait struct {
	l *Libsd
	// m is the request, re-sent verbatim (sendCtl re-stamps the epoch): every
	// kind is idempotent at the monitor, by ConnID/registration dedup.
	m        *ctlmsg.Msg
	start    int64
	lastPing int64
	epoch    uint32 // incarnation m last went to; 0: none yet, the first empty iteration sends it
	shard    int32  // monitor shard serving m
	seen     uint32 // l.ctlSeen as of the site's last look at what it waits for
	// silent is what the monitor's silence ends the wait with; errAskAgain:
	// nothing, m goes out again; nil: m has no answer, nothing is measured.
	silent error
	// every, when set, is how often m goes out again unasked.
	every, asked int64

	deadline int64   // the call's own bound (a dial's)
	sock     *Socket // whose peer's death ends the wait: a dial's once its answer is in, a splice's, a takeover's
	token    bool    // a takeover of sock's direction dir, last seen with held
	dir      int
	held     int64
}

var errAskAgain = errors.New("libsd: no answer, asking again")

// awaitCtl starts the silence clock for the request m, just sent: that of the
// dispatch loop m routed to, so a wedged shard times out while siblings chat.
func (l *Libsd) awaitCtl(m *ctlmsg.Msg, silent error) *ctlWait {
	return l.awaitCtlIn(new(ctlWait), m, silent)
}

// awaitCtlIn is awaitCtl in c, a wait its caller keeps (a dial's record).
func (l *Libsd) awaitCtlIn(c *ctlWait, m *ctlmsg.Msg, silent error) *ctlWait {
	now := l.H.Clk.Now()
	*c = ctlWait{l: l, m: m, start: now, lastPing: now, asked: now,
		epoch: l.monEpoch.Load(), shard: int32(l.ctlShard(m)), silent: silent}
	return c
}

// wait is the wait for c's answer.
func (c *ctlWait) wait() wait {
	return wait{l: c.l, idle: c, ctl: c, deadline: &c.deadline, polls: pollCtl, pre: c.l.H.Costs.RingOp}
}

// tokenWait is the wait for the grant m asks for: the socket's deadline and
// O_NONBLOCK apply as to the operation that needs the token, a receiver's
// takeover drains before it reports a dead peer, and monitor silence is EAGAIN.
func (s *Socket) tokenWait(m *ctlmsg.Msg, dir int) (*ctlWait, wait) {
	c := s.lib.awaitCtl(m, EAGAIN)
	c.sock, c.token, c.dir, c.every = s, true, dir, tokenAskAgain
	w := s.dataWait(c, dir)
	w.ctl, w.drives = c, false
	return c, w
}

func (c *ctlWait) send() {
	if c.token {
		c.m.Aux = uint64(c.sock.side.Holder[c.dir].Load()) // whom to revoke from
	}
	c.l.sendCtl(c.m)
}

// silence is how long the awaited shard has said nothing, as of now.
func (c *ctlWait) silence(now int64) int64 {
	if last := c.l.lastCtlRecv[c.shard]; last > c.start {
		return now - last
	}
	return now - c.start
}

// duties: go out again to a new incarnation or when due, give up on silence, ping.
func (c *ctlWait) duties() error {
	l := c.l
	now := l.H.Clk.Now()
	if e := l.monEpoch.Load(); e != c.epoch {
		c.epoch, c.start, c.lastPing = e, now, now
		c.send()
	}
	if c.silent == nil {
		return nil
	}
	if c.every != 0 && now-c.asked >= c.every {
		c.asked = now
		c.send()
	}
	if c.silence(now) > ctlDeadAfter {
		if c.silent != errAskAgain {
			return c.silent
		}
		c.start, c.lastPing = now, now
		c.send()
	}
	if now-c.lastPing >= ctlPingEvery {
		c.lastPing = now
		// Shard-addressed ping: KPing has no state key, so the Shard field
		// routes it to the loop whose silence this wait is measuring.
		ping := ctlmsg.Msg{Kind: ctlmsg.KPing, PID: int64(l.P.PID), Shard: uint8(c.shard)}
		l.sendCtl(&ping)
	}
	return nil
}

// --- the idle predicates: each restates, free of side effects, what its site
// looks at and what block tests and polls for it. What it needs of the wait is
// in the SideState (Poller, PoolWant), the Listener or the ctlWait. ---

// Idle: the process lives, no control message waits and none was dispatched
// (by any thread, or the signal handler) since the site looked at what it
// waits for — which, a token apart, only a message's handler changes — and the
// deadline, the next ping or repeat and the silence limit are ahead. A
// takeover also watches the token word (a holder may simply let go), the
// socket's readiness to block and revocations to run for idle threads.
func (c *ctlWait) Idle(now int64) bool {
	l, s := c.l, c.sock
	if c.token {
		if s.side.Holder[c.dir].Load() != c.held || !s.mayWait(now, c.dir) || l.hasRevokes {
			return false
		}
	}
	return l.ctlSeen == c.seen && l.monEpoch.Load() == c.epoch &&
		!l.P.Dead() && l.ctlIdle() && (s == nil || !s.peerGone()) &&
		!past(&c.deadline, now) && (c.every == 0 || now-c.asked < c.every) &&
		now-c.lastPing < ctlPingEvery && c.silence(now) <= ctlDeadAfter
}

// ackWaiter is a dial's ctlWait in its second wait, Fig. 6 Wait-Server: idle
// while the new socket's ring and the CQs are empty, both processes live, the
// deadline is ahead, and no control message waits or was dispatched since the
// loop read pc.sock.
type ackWaiter ctlWait

func (a *ackWaiter) Idle(now int64) bool {
	c := (*ctlWait)(a)
	l, s := c.l, c.sock
	return !s.side.RX.CanRecv() && l.ctlSeen == c.seen && l.cqsEmpty() && !l.P.Dead() &&
		!past(&c.deadline, now) && l.ctlIdle() && !s.peerGone()
}

// doze and woke are the receive sleeper's: the MAck lands on the new
// socket's receive ring, across hosts with its write's completion.
func (a *ackWaiter) doze(ctx exec.Context, t *host.Thread) { (*recvWaiter)(a.sock).doze(ctx, t) }
func (a *ackWaiter) woke(t *host.Thread)                   { (*recvWaiter)(a.sock).woke(t) }

// mayWait reports whether O_NONBLOCK and dir's deadline let a wait on s go on
// at time now.
func (s *Socket) mayWait(now int64, dir int) bool {
	return !s.nonblock && !past(&s.deadline[dir], now)
}

// quiet is what the data path's predicates share: a healthy endpoint with no
// completion to pump, both processes alive, no control message waiting.
func (s *Socket) quiet() bool {
	l := s.lib
	switch ep := s.ep.(type) {
	case *shmEP:
	case *rdmaEP:
		if ep.failed || !l.cqsEmpty() {
			return false // recovery is driven by the wait; a CQE by the pump
		}
	default:
		return false // closed: the wait ends
	}
	return !l.P.Dead() && l.ctlIdle() && !s.peerGone()
}

// holds reports whether direction dir's token is still me's and unasked for.
func (s *Socket) holds(dir int, me int64) bool {
	return !s.side.ReturnReq[dir].Load() && s.side.Holder[dir].Load() == me
}

// recvWaiter, sendWaiter and zcWaiter are the Socket as predicate of the
// waits for traffic, for room in the send ring and for zero-copy pool slots.
type (
	recvWaiter Socket
	sendWaiter Socket
	zcWaiter   Socket
)

func (w *recvWaiter) Idle(now int64) bool {
	s := (*Socket)(w)
	me := s.side.Poller[DirRecv]
	// What usually ends the wait first: a thread woken by data pays one load.
	return !s.side.RX.CanRecv() && !s.side.is(rxShut) && s.quiet() &&
		(me == 0 || s.holds(DirRecv, me) && !s.nonblock) && !past(&s.deadline[DirRecv], now)
}

// doze is the switch of s's receive queue to interrupt mode: the peer's
// data rings the thread through RecvSleeper or the CQ, and a control
// message that ends the wait without data through wakeParked.
func (w *recvWaiter) doze(_ exec.Context, t *host.Thread) {
	s := (*Socket)(w)
	s.side.RecvSleeper.Store(int64(s.lib.GTIDOf(t)))
	if _, ok := s.ep.(*rdmaEP); ok {
		th := t.H
		s.lib.recvCQ.Arm(func() { th.Unpark() })
	}
	mRecvSleeps.Inc()
	s.lib.sleepNotes[t.TID] = struct{}{}
}

func (w *recvWaiter) woke(t *host.Thread) {
	s := (*Socket)(w)
	delete(s.lib.sleepNotes, t.TID)
	mRecvWakeups.Inc()
	s.side.RecvSleeper.Store(0)
}

// wakeParked wakes every receiver parked in interrupt mode, in ascending
// TID, after the kernel's wakeup latency. handleCtl calls it for the control
// messages that can end a receive without data — a peer's death, a QP
// splice or its refusal — which come with signal = true, so the
// signal handler or a sibling thread's poll dispatches them while the
// receivers sleep. A receiver with nothing to return parks again.
func (l *Libsd) wakeParked() {
	for _, tid := range slices.Sorted(maps.Keys(l.sleepNotes)) {
		delete(l.sleepNotes, tid)
		if t := l.P.ThreadByTID(tid); t != nil {
			l.H.Clk.After(l.H.Costs.ProcessWakeup, t.H.Unpark)
		}
	}
}

// Idle holds while the next send attempt would fail as the last did: no credit
// came back (inter-host: into the credit word) and no burst is open to publish.
func (w *sendWaiter) Idle(now int64) bool {
	s := (*Socket)(w)
	tx, me := s.side.TX, s.side.Poller[DirSend]
	if rep, ok := s.ep.(*rdmaEP); ok && rep.creditIn() > tx.Credit() {
		return false
	}
	return tx.SendStalled() && !tx.InBurst() && s.quiet() &&
		(me == 0 || s.holds(DirSend, me) && s.mayWait(now, DirSend)) &&
		!(s.side.is(rxShut) && s.side.is(txShut))
}

// Idle holds while the pool is short of the slots wanted and nothing is on
// the ring for drainCtl (slot returns arrive there, in band).
func (w *zcWaiter) Idle(now int64) bool {
	s := (*Socket)(w)
	if s.side.RX.CanRecv() || !s.quiet() || !s.mayWait(now, DirSend) ||
		s.side.is(rxShut) && s.side.is(txShut) {
		return false
	}
	return len(s.side.PoolFree) < s.side.PoolWant
}

// acceptWaiter is the Listener as predicate of Accept's wait: the process
// lives, no control message waits, the backlog is empty, the listener blocks,
// its deadline is ahead and its hint is with this monitor.
type acceptWaiter Listener

func (w *acceptWaiter) Idle(now int64) bool {
	lst := (*Listener)(w)
	l := lst.lib
	return !past(&lst.deadline, now) && !l.P.Dead() && !lst.nonblock &&
		l.monEpoch.Load() == lst.hint.epoch && l.ctlIdle() && len(lst.bl.conns) == 0
}

// doze leaves the thread where the KNewConn handler finds it.
func (w *acceptWaiter) doze(ctx exec.Context, _ *host.Thread) { w.bl.asleep = ctx.Self() }
func (w *acceptWaiter) woke(*host.Thread)                     { w.bl.asleep = exec.Thread{} }

// epollWaiter is the Epoll as predicate of Wait: the process lives, no
// control message or completion waits, and no watched descriptor is ready.
type epollWaiter Epoll

func (w *epollWaiter) Idle(int64) bool {
	ep := (*Epoll)(w)
	l := ep.lib
	if l.P.Dead() || !l.ctlIdle() || !l.cqsEmpty() {
		return false
	}
	for fd, mask := range ep.ifd {
		if got, _ := ep.ready(fd, mask); got != 0 {
			return false
		}
	}
	return true
}
