package core

import (
	"fmt"
	"slices"

	"socksdirect/internal/ctlmsg"
	"socksdirect/internal/exec"
	"socksdirect/internal/host"
	"socksdirect/internal/obs"
	"socksdirect/internal/rdma"
	"socksdirect/internal/shm"
)

// RingCap is the per-direction socket ring size: every inter-host ring,
// and an intra-host one unless its host's Limits.RingCap says otherwise.
const RingCap = 128 * 1024

// Listener is a libsd listening socket. Every listening thread has its own
// backlog (§4.5.2: "we maintain a per-listener backlog for every thread
// that listens on the socket").
type Listener struct {
	lib  *Libsd
	port uint16
	t    *host.Thread
	fd   int

	// Overload controls: an absolute accept deadline (virtual ns, 0 =
	// none) and O_NONBLOCK (empty backlog → EWOULDBLOCK immediately).
	deadline int64
	nonblock bool

	// Of the Accept in progress: its backlog, and its steal hint as a
	// request with the monitor.
	bl      *backlog
	hintMsg ctlmsg.Msg
	hint    ctlWait
}

// SetDeadline arms an absolute virtual-time deadline for Accept; an
// accept that finds no dispatched connection by then returns ETIMEDOUT.
// 0 clears.
func (lst *Listener) SetDeadline(at int64) { lst.deadline = at }

// SetNonblock switches the listener into (or out of) O_NONBLOCK mode:
// Accept on an empty backlog returns EWOULDBLOCK instead of waiting.
func (lst *Listener) SetNonblock(on bool) { lst.nonblock = on }

type pendingAccept struct {
	m    ctlmsg.Msg
	sock *Socket // RDMA connections are built eagerly at dispatch
}

// interSide is one inter-host side on its host, allocated as one object: the
// shared socket state, the RDMA resources behind it and the storage its lists
// start in. A clean release puts it on its library's free list (lifecycle.go)
// with its rings and pinned pool, so a warm dial makes none of them.
type interSide struct {
	side SideState
	qp   *rdma.QP
	mr   [2]rdma.MR // over the RX ring and the credit word
	ep   rdmaEP     // the side's endpoint, made by newEP

	// First backing of side.mrs, side.eps and side.PoolFree. An inherited
	// socket's splice and recovery add MRs and endpoints: append moves those
	// out.
	mrs      [2]*rdma.MR
	eps      [1]*rdmaEP
	poolFree [zcPoolPages]int32
	pool     *zcPool // side.LocalPool, kept pinned across reuse
}

// newInterSide builds one inter-host socket endpoint — rings, MRs, a QP and
// the pinned zero-copy pool — and registers the shared state as a SHM
// segment (socket buffers live in SHM so fork keeps working, §4.1.2). It
// takes an interSide off the process's free list and scrubs it; the rings
// its release scrubbed and its pool, whose frames never stopped being
// pinned, come with it at no cost. Only on a miss are rings and pool made.
// MRs are per connection, so an old peer's keys die with its connection. qp
// is a parked QP to build the endpoint on, or nil to create one.
func (l *Libsd) newInterSide(ctx exec.Context, qid uint64, qp *rdma.QP) (*interSide, error) {
	if qp == nil {
		qp = l.pd.CreateQP(l.sendCQ, l.recvCQ)
		ctx.Charge(l.H.Costs.RDMAQPCreate)
	}
	// Off the list after the charge: a side released meanwhile is reused.
	is := l.sideIdle.New()
	tx, rx := reuseRings(is.side.TX, is.side.RX, RingCap)
	*is = interSide{qp: qp, pool: is.pool}
	side := &is.side
	side.QID, side.home, side.TX, side.RX = qid, is, tx, rx
	side.Refs.Store(1)
	is.mrs = [2]*rdma.MR{l.pd.RegisterRingAt(&is.mr[0], side.RX), l.pd.RegisterBytesAt(&is.mr[1], side.creditIn[:])}
	side.mrs, side.eps, side.PoolFree = is.mrs[:], is.eps[:0], is.poolFree[:0]
	if is.pool == nil {
		pool, err := newZCPool(ctx, l.P, l.pd)
		if err != nil {
			qp.Close()
			l.releaseInter(side, false)
			return nil, err
		}
		is.pool = pool
	}
	side.LocalPool = is.pool
	side.segTok = l.H.SHM.Create(side).Token
	return is, nil
}

// abandonInter releases an endpoint no peer was ever spliced to (a
// refused, timed-out or unroutable dial): the same routine as a graceful
// close. If no endpoint was registered nothing touched the rings, and the
// side is recycled with them; a dial that went out on a parked QP had one,
// and its twin may have been adopted and written to them.
func (l *Libsd) abandonInter(is *interSide) {
	is.qp.Close() // not registered with the side unless newEP ran
	clean := len(is.side.eps) == 0
	l.releaseInter(&is.side, clean)
}

// desc fills the control-message fields describing this endpoint for the
// peer: our QPN, where to write data (RX ring), credits (the credit word) and
// zero-copy pages (pool MR).
func (is *interSide) desc(m *ctlmsg.Msg) {
	m.QPN = is.qp.QPN()
	m.RingRKey = is.mr[0].RKey()
	m.CreditRKey = is.mr[1].RKey()
	m.SeqA = is.side.LocalPool.mr.RKey()
	m.SeqB = zcPoolPages
}

// newEP wires the side's endpoint over its local resources and registers
// it; where the peer takes its writes comes with setPeer. It runs once per
// side.
func (l *Libsd) newEP(is *interSide) *rdmaEP {
	ep, side := &is.ep, &is.side
	ep.lib, ep.side, ep.qp, ep.batching = l, side, is.qp, l.batching
	ep.selfRingRKey, ep.selfCreditRKey = is.mr[0].RKey(), is.mr[1].RKey()
	side.creditEP = ep
	side.RX.SetCreditHook(side)
	// Register for completion dispatch BEFORE the QP can receive: a
	// completion with no registered endpoint would be dropped, losing a
	// tail publication permanently.
	l.registerEP(ep)
	return ep
}

// setPeer records the peer's descriptor: where its endpoint takes our
// writes — RX ring, credit word, zero-copy pool with every slot free — and
// which process holds it. The free-slot list reuses the side's backing.
func (e *rdmaEP) setPeer(peerHost string, m *ctlmsg.Msg) {
	e.ringRKey, e.creditRKey = m.RingRKey, m.CreditRKey
	e.peerPID = m.PID
	side := e.side
	side.PeerHost = peerHost
	side.PoolRKey = m.SeqA
	slots := int(min(m.SeqB, zcPoolPages)) // as many as the peer advertised
	free := slices.Grow(side.PoolFree[:0], slots)[:slots]
	for i := range free {
		free[i] = int32(i)
	}
	side.PoolFree, side.poolLent = free, [len(side.poolLent)]uint64{}
}

// open connects e's QP to the peer's in the order InfiniBand's REQ/REP/RTU
// gives an RC connection (ARCHITECTURE.md "Connection lifecycle"). The side
// that learns its peer's QPN first opens passive: it receives at once, but
// its own writes (the Fig. 6 MAck, a resync) wait in the QP, because the
// peer's NIC drops what reaches a QP that is not connected and the sender
// would sit out an RTO. The side that connects second opens active and at
// once writes its receive credit to the peer: the RTU, a sequenced write
// whose arrival releases the passive side. It is sent here, not with the
// caller's first Send: a pure receiver never sends on its own.
func (e *rdmaEP) open(peerHost string, peerQPN uint32, passive bool) error {
	if passive {
		return e.qp.ConnectPassive(peerHost, peerQPN)
	}
	if err := e.qp.Connect(peerHost, peerQPN); err != nil {
		return err
	}
	e.creditHook(e.side.LastCreditOut.Load())
	return nil
}

// retarget points a dialing endpoint at another accepting endpoint: work
// stealing moved the connection to a different listener, or the parked QP
// we offered was not adopted; either way the acceptor built its own
// endpoint and waits, passive, for our RTU. The victim's endpoint is gone
// and never accepted, and a twin that was not adopted is parked or gone, so
// nothing sent there matters: the QP restarts from Reset toward the new
// one.
func (e *rdmaEP) retarget(peerHost string, m *ctlmsg.Msg) error {
	e.setPeer(peerHost, m)
	e.qp.Reset()
	return e.open(peerHost, m.QPN, false)
}

// --- listen / accept ---

// ListenOn binds a port and registers the calling thread as a listener.
// Multiple threads (and forked processes) may listen on the same port.
func (l *Libsd) ListenOn(ctx exec.Context, t *host.Thread, port uint16) (*Listener, error) {
	l.enter()
	defer l.leave()
	op := obs.BeginOp(l.H.Name, int64(l.P.PID), obs.OpBind, ctx.Now())
	opOK := false
	defer func() { op.End(l.H.Clk.Now(), opOK) }()
	m := ctlmsg.Msg{Kind: ctlmsg.KListen, Port: port, PID: int64(l.P.PID), TID: int64(t.TID),
		TraceID: op.Trace, SpanID: op.Span}
	l.sendCtl(&m)
	// Wait for the bind result (the paper hides this latency when failure
	// is impossible; we keep the round trip for clear error reporting).
	bl := l.backlogOf(port, t.TID)
	for w := l.awaitCtl(&m, ETIMEDOUT).wait(); bl.bindStatus == 0; {
		if err := w.block(ctx); err != nil {
			return nil, err // ETIMEDOUT: no monitor answered the bind
		}
	}
	if st := uint8(bl.bindStatus); st != 1 {
		switch st - 1 {
		case ctlmsg.StatusInUse:
			return nil, ErrPortInUse
		case ctlmsg.StatusDenied:
			return nil, ErrDenied
		default:
			return nil, ErrDenied
		}
	}
	lst := &Listener{lib: l, port: port, t: t}
	lst.fd = l.installFD(fdEntry{kind: fdListener, lst: lst})
	opOK = true
	return lst, nil
}

// Port returns the bound port.
func (lst *Listener) Port() uint16 { return lst.port }

// FD returns the listener's descriptor.
func (lst *Listener) FD() int { return lst.fd }

// Accept pops one dispatched connection from this thread's backlog,
// building the data plane and sending the Fig. 6 ACK. An empty backlog
// triggers the monitor's work-stealing path (§4.5.2).
func (lst *Listener) Accept(ctx exec.Context) (*Socket, host.KFile, error) {
	l := lst.lib
	l.enter()
	defer l.leave()
	op := obs.BeginOp(l.H.Name, int64(l.P.PID), obs.OpAccept, ctx.Now())
	opOK := false
	defer func() { op.End(l.H.Clk.Now(), opOK) }()
	bl := l.backlogOf(lst.port, lst.t.TID)
	// An empty backlog asks the monitor to steal from a sibling's (§4.5.2).
	lst.bl = bl
	lst.hintMsg = ctlmsg.Msg{Kind: ctlmsg.KAcceptHint, Port: lst.port, PID: int64(l.P.PID), TID: int64(lst.t.TID),
		TraceID: op.Trace, SpanID: op.Span}
	w := lst.acceptWait()
	for {
		l.pollCtl(ctx)
		if len(bl.conns) > 0 {
			pa := bl.conns[0]
			bl.conns = bl.conns[:copy(bl.conns, bl.conns[1:])]
			s, kf, err := l.finishAccept(ctx, lst.t, pa)
			opOK = err == nil
			return s, kf, err
		}
		if err := w.block(ctx); err != nil {
			return nil, nil, err
		}
	}
}

// Pending reports this backlog's queued connections (tests, stealing).
func (lst *Listener) Pending() int {
	key := backlogKey{port: lst.port, tid: lst.t.TID}
	bl := lst.lib.backlogs[key]
	if bl == nil {
		return 0
	}
	return len(bl.conns)
}

// Close unregisters the listener. A stale Close, once its descriptor was
// freed or handed to a successor, does nothing.
func (lst *Listener) Close(ctx exec.Context) {
	if e, ok := lst.lib.fds[lst.fd]; !ok || e.lst != lst {
		return
	}
	lst.lib.releaseFD(lst.fd)
	m := ctlmsg.Msg{Kind: ctlmsg.KListen, Status: 1 /* remove */, Port: lst.port, PID: int64(lst.lib.P.PID), TID: int64(lst.t.TID)}
	lst.lib.sendCtl(&m)
}

// acceptDrained tells the monitor one dispatched connection left this
// listener's backlog, freeing a slot against the backlog cap (overload
// admission: the monitor refuses SYNs while a listener's outstanding
// dispatches sit at its host's Limits.Backlog).
func (l *Libsd) acceptDrained(t *host.Thread, pa *pendingAccept) {
	m := ctlmsg.Msg{Kind: ctlmsg.KAcceptDone, ConnID: pa.m.ConnID, Port: pa.m.Port,
		PID: int64(l.P.PID), TID: int64(t.TID)}
	*pa = pendingAccept{}
	l.acceptFree.Put(pa)
	l.sendCtl(&m)
}

// backlogOf returns the backlog of listener thread tid on port, made at its
// first mention: the bind, its answer, or a dispatched connection.
func (l *Libsd) backlogOf(port uint16, tid int) *backlog {
	key := backlogKey{port: port, tid: tid}
	bl := l.backlogs[key]
	if bl == nil {
		bl = &backlog{}
		l.backlogs[key] = bl
	}
	return bl
}

func (l *Libsd) finishAccept(ctx exec.Context, t *host.Thread, pa *pendingAccept) (*Socket, host.KFile, error) {
	defer l.acceptDrained(t, pa)
	s := pa.sock
	switch pa.m.Transport {
	case ctlmsg.TransportSHM:
		if p := l.H.Process(int(pa.m.PID)); p == nil || p.Dead() {
			// The client crashed between dispatch and accept; kernel TCP
			// surfaces this as a reset on the new connection. Nobody else
			// will release it: crash cleanup leaves it to this live end.
			if seg, err := l.H.SHM.Attach(shm.Token(pa.m.ShmToken)); err == nil {
				l.releaseIntra(seg.Obj.(*IntraSock), false)
			}
			return nil, nil, ECONNRESET
		}
		seg, err := l.H.SHM.Attach(shm.Token(pa.m.ShmToken))
		if err != nil {
			return nil, nil, err
		}
		is := seg.Obj.(*IntraSock)
		is.B.PeerPID.Store(int64(pa.m.PID)) // client pid
		s = l.newSocket(&is.B, nil)
		s.useSHM(is)
	case ctlmsg.TransportRDMA: // pa.sock, built when KNewConn arrived
	case ctlmsg.TransportTCP:
		kf, ok := l.P.LookupFD(int(pa.m.Aux))
		if !ok {
			return nil, nil, ErrBadFD
		}
		mTCPFallbacks.Inc()
		l.installFD(fdEntry{kind: fdKernel, kf: kf})
		return nil, kf, nil
	default:
		return nil, nil, fmt.Errorf("libsd: unknown transport %d", pa.m.Transport)
	}
	s.sideIdx = 1
	l.establish(s, t)
	s.sendMsg(ctx, MAck, nil, nil) // Fig. 6: server ACK finalizes setup
	s.side.reach(established)
	return s, nil, nil
}

// establish is Fig. 6's Established for s, on the thread t that set it up:
// t takes both tokens, and the socket gets its FD, its place among the
// process's sockets and its sdstat row.
func (l *Libsd) establish(s *Socket, t *host.Thread) {
	me := int64(MakeGTID(l.P.PID, t.TID))
	s.side.Holder[DirSend].Store(me)
	s.side.Holder[DirRecv].Store(me)
	s.fd = l.installFD(fdEntry{kind: fdSocket, sock: s})
	l.trackSock(s)
	l.initFlow(s)
}

// --- connect ---

// Connect opens a connection to (dstHost, dstPort). The monitor decides
// the transport: SHM for intra-host, RDMA for SocksDirect-capable remote
// hosts, kernel TCP fallback otherwise (§4.5.3). It returns either a
// user-space socket or a kernel file for the fallback path.
func (l *Libsd) Connect(ctx exec.Context, t *host.Thread, dstHost string, dstPort uint16) (*Socket, host.KFile, error) {
	return l.ConnectDeadline(ctx, t, dstHost, dstPort, 0)
}

// ConnectDeadline is Connect with an absolute virtual-time deadline (0 =
// none): a dial that has not completed — control-plane round trip AND the
// Fig. 6 Wait-Server ACK — by the deadline aborts with ETIMEDOUT. The
// deadline is the nonblocking-connect story for this stack: instead of an
// EINPROGRESS state machine, a bounded dial.
func (l *Libsd) ConnectDeadline(ctx exec.Context, t *host.Thread, dstHost string, dstPort uint16, deadline int64) (*Socket, host.KFile, error) {
	l.enter()
	defer l.leave()
	l.nextConnID++
	// The ID must be unique cluster-wide, not just host-wide: the server's
	// monitor dedups SYNs by ConnID (guarding against bounded-wait
	// re-sends), so two hosts reusing the same (PID, seq) against one
	// listener would get the second connect silently dropped — and the
	// dialer, whose waiter keeps seeing ping answers from its own live
	// monitor, would spin forever. The host ordinal disambiguates.
	connID := (l.H.Ordinal&0xffff)<<48 | uint64(l.P.PID&0xffff)<<32 | l.nextConnID&0xffff_ffff
	pc := l.dialFree.New()
	l.pending[connID] = pc
	s, kf, err := l.dial(ctx, t, pc, connID, dstHost, dstPort, deadline)
	// Every way out: with its l.pending entry goes the record's last holder
	// besides this call. A dial that a Run's end unwinds mid-wait does not
	// come here: its record, and the endpoint the record holds, are given
	// back when its process dies (OnProcessDeath).
	delete(l.pending, connID)
	*pc = pendingConn{}
	l.dialFree.Put(pc)
	return s, kf, err
}

// dial is ConnectDeadline's dial, whose record is pc.
func (l *Libsd) dial(ctx exec.Context, t *host.Thread, pc *pendingConn, connID uint64, dstHost string, dstPort uint16, deadline int64) (*Socket, host.KFile, error) {
	// Root span: the whole blocking connect, every control hop it causes
	// parents back to this trace through the message envelope.
	op := obs.BeginOp(l.H.Name, int64(l.P.PID), obs.OpConnect, ctx.Now())
	opOK := false
	defer func() { op.End(l.H.Clk.Now(), opOK) }()

	m := &pc.syn
	*m = ctlmsg.Msg{
		Kind: ctlmsg.KConnect, ConnID: connID, Port: dstPort,
		PID: int64(l.P.PID), TID: int64(t.TID),
		TraceID: op.Trace, SpanID: op.Span,
	}
	m.SetHost(dstHost)
	if dstHost != l.H.Name {
		// Remote target: prepare our RDMA endpoint optimistically and ship
		// its descriptor with the SYN (the monitors splice the two ends).
		qp := l.takeParked(func(h string) bool { return h == dstHost }, 0, 0, 0)
		is, err := l.newInterSide(ctx, connID, qp)
		if err != nil {
			return nil, nil, err
		}
		pc.inter, pc.host = is, dstHost
		is.desc(m)
		if qp != nil {
			// Offer the pair: the QP is still connected to its twin, which
			// the accepting process adopts if it has it parked. Then its QP
			// is in RTS and its MAck can beat the answer here, so the
			// endpoint is registered before the SYN leaves; the peer's keys
			// come with the answer.
			_, m.RemoteQPN = qp.Peer()
			ep := l.newEP(is)
			ep.offered = true
			pc.sock = l.newSocket(&is.side, ep)
		}
	}
	l.sendCtl(m)

	// A re-send across a restart is safe: the monitor dedups connects by ConnID.
	c := l.awaitCtlIn(&pc.ctl, m, ETIMEDOUT)
	c.deadline = deadline
	abandon := func() {
		delete(l.pending, connID)
		if pc.inter != nil && !l.P.Dead() {
			// Give back the optimistic endpoint and the monitor's records
			// of the dial; its QP never connected. (A killed process's are
			// reclaimed with it.)
			l.abandonInter(pc.inter)
			l.noteClosed(connID)
		}
	}
	for w := c.wait(); pc.status == 0; {
		if err := w.block(ctx); err != nil {
			abandon()
			return nil, nil, err
		}
	}
	if pc.status != 1 {
		abandon()
		switch pc.errCode {
		case ctlmsg.StatusDenied:
			return nil, nil, ErrDenied
		case ctlmsg.StatusNoListener:
			return nil, nil, ErrNoListener
		case ctlmsg.StatusBacklogFull:
			// Every listener for the port is at its backlog cap (or the
			// monitor shed the SYN under inbox pressure). Retryable — the
			// dial left no state behind on either host.
			mConnRefused.Inc()
			return nil, nil, ECONNREFUSED
		default:
			return nil, nil, ErrConnTimeout
		}
	}
	if pc.kernelFD >= 0 && pc.sock == nil {
		// TCP fallback: the monitor repaired a kernel connection into our
		// FD table. The optimistic endpoint has no peer and goes back.
		if pc.inter != nil {
			l.abandonInter(pc.inter)
		}
		kf, ok := l.P.LookupFD(pc.kernelFD)
		if !ok {
			return nil, nil, ErrBadFD
		}
		l.installFD(fdEntry{kind: fdKernel, kf: kf})
		opOK = true
		return nil, kf, nil
	}

	// Fig. 6 Wait-Server: the FD becomes usable when the server's ACK
	// lands on the new queue. A steal on the server side may point the
	// socket at another listener meanwhile (a second KConnectRes). Giving
	// up here closes the half-open socket like a last reference would, so
	// the server's eventual close still completes the release handshake.
	giveUp := func(s *Socket) {
		delete(l.pending, connID)
		if !l.P.Dead() {
			s.side.Refs.Store(0)
			s.closeLast(ctx, t)
		}
	}
	// No request is with the monitor any more: its silence ends nothing. A
	// listener that takes long to accept finds the dial parked (§4.4).
	w := wait{l: l, idle: (*ackWaiter)(c), sleeper: (*ackWaiter)(c), t: t, deadline: &c.deadline, dir: DirSend,
		polls: pollCtl | pollCQ, pre: l.H.Costs.RingOp}
	for {
		c.seen = l.ctlSeen // a message dispatched from here on may re-point pc.sock
		s := pc.sock
		s.drainCtl(ctx)
		if s.side.is(established) {
			l.establish(s, t)
			opOK = true
			return s, nil, nil
		}
		w.sock, c.sock = s, s
		if err := w.block(ctx); err != nil {
			giveUp(s)
			return nil, nil, err
		}
	}
}

// --- control-plane dispatch ---

func (l *Libsd) handleCtl(ctx exec.Context, m *ctlmsg.Msg) {
	switch m.Kind {
	case ctlmsg.KPeerDead, ctlmsg.KReQPPeer, ctlmsg.KReQPRes:
		// Once it is handled, whatever the outcome: a receiver parked on the
		// socket may have nothing left to wait for, and no data will ring it.
		defer l.wakeParked()
	}
	switch m.Kind {
	case ctlmsg.KBindRes:
		l.backlogOf(m.Port, int(m.TID)).bindStatus = int32(m.Status) + 1

	case ctlmsg.KConnectRes:
		pc := l.pending[m.ConnID]
		orphan := pc == nil && l.socks[m.ConnID] == nil
		if orphan && (m.Status != ctlmsg.StatusOK || m.Transport != ctlmsg.TransportSHM) {
			// The answer to a remote dial that already gave up (its deadline
			// beat the round trip): the monitor made its records after our
			// ConnClosed note, so note again. (An intra-host connection that
			// was set up regardless stays on record: its listener holds it.)
			l.noteClosed(m.ConnID)
		}
		if pc == nil {
			return
		}
		if m.Status != ctlmsg.StatusOK {
			pc.errCode = m.Status
			pc.kernelFD = -1
			pc.status = 2
			return
		}
		switch m.Transport {
		case ctlmsg.TransportSHM:
			seg, err := l.H.SHM.Attach(shm.Token(m.ShmToken))
			if err != nil {
				pc.errCode = ctlmsg.StatusDenied
				pc.status = 2
				return
			}
			is := seg.Obj.(*IntraSock)
			is.A.PeerPID.Store(m.PID) // server pid
			s := l.newSocket(&is.A, nil)
			s.useSHM(is)
			pc.sock = s
			pc.kernelFD = -1
			pc.status = 1
		case ctlmsg.TransportRDMA:
			// We connect second, so we are the active side — unless we offered
			// a parked QP and the answer names its twin: the acceptor adopted
			// it and the pair never stopped being connected. Any other answer
			// to an offer is a fresh endpoint to re-target at, and so is a
			// second answer for the same dial: a steal re-dispatched it
			// (KStealReq).
			s, peer := pc.sock, pc.host // the answer names the host dialed: reuse its name
			if !m.HostIs(peer) {
				peer = m.HostStr()
			}
			var err error
			if s == nil {
				ep := l.newEP(pc.inter)
				ep.setPeer(peer, m)
				s = l.newSocket(&pc.inter.side, ep)
				err = ep.open(peer, m.QPN, false)
			} else {
				ep := s.ep.(*rdmaEP)
				if _, twin := ep.qp.Peer(); ep.offered && twin == m.QPN {
					ep.setPeer(peer, m)
				} else {
					err = ep.retarget(peer, m)
				}
				ep.offered = false
			}
			if err != nil {
				pc.errCode = ctlmsg.StatusNoRoute
				pc.status = 2
				return
			}
			pc.sock = s
			pc.kernelFD = -1
			pc.status = 1
		case ctlmsg.TransportTCP:
			mTCPFallbacks.Inc()
			pc.kernelFD = int(m.Aux)
			pc.status = 1
		}

	case ctlmsg.KNewConn:
		var sock *Socket
		if m.Transport == ctlmsg.TransportRDMA {
			// Build the server endpoint eagerly so the monitors can relay
			// our descriptor back to the client without waiting for
			// accept() (§4.5.2 "the peer-to-peer queue is established ...
			// when the SYN command is distributed into a listener's
			// backlog").
			// A SYN that offers a QP still connected to one parked here is
			// answered with that twin, if the offer comes from where the twin
			// points: the host the monitor channel names, that QPN, the
			// process the pair was formed with. Peers are untrusted (§3).
			var qp *rdma.QP
			if m.RemoteQPN != 0 {
				if m.PID != 0 {
					qp = l.takeParked(m.HostIs, m.PID, m.RemoteQPN, m.QPN)
				}
				if qp != nil {
					mParkHits.Inc()
				} else {
					mParkMisses.Inc()
				}
			}
			var peer string // a twin is connected to m's host: reuse its name
			if qp != nil {
				peer, _ = qp.Peer()
			} else {
				peer = m.HostStr()
			}
			is, err := l.newInterSide(ctx, m.ConnID, qp)
			if err != nil {
				return
			}
			ep := l.newEP(is)
			ep.setPeer(peer, m)
			if qp == nil {
				// Passive: the dialer connects only when our descriptor has
				// made it back to it; accept's MAck waits in the QP for its
				// RTU.
				if err := ep.open(peer, m.QPN, true); err != nil {
					l.abandonInter(is)
					return
				}
			}
			sock = l.newSocket(&is.side, ep)
			var res ctlmsg.Msg
			res.Kind = ctlmsg.KMSynAck
			res.ConnID = m.ConnID
			res.Transport = ctlmsg.TransportRDMA
			res.PID = int64(l.P.PID)
			res.TraceID = m.TraceID // keep the connect's causal chain alive
			res.SpanID = m.SpanID
			is.desc(&res)
			res.SetHost(l.H.Name)
			l.sendCtl(&res)
		}
		bl := l.backlogOf(m.Port, int(m.TID))
		pa := l.acceptFree.New()
		pa.m, pa.sock = *m, sock
		bl.conns = append(bl.conns, pa)
		if bl.asleep != (exec.Thread{}) {
			bl.asleep.Unpark()
		}

	case ctlmsg.KTokenReturn:
		// The monitor wants a token back for a waiter.
		any := l.socks[m.QID]
		if any == nil {
			// Socket gone; tell the monitor the token is free.
			r := ctlmsg.Msg{Kind: ctlmsg.KTokenReturn, QID: m.QID, Dir: m.Dir,
				SrcPort: m.SrcPort, PID: int64(l.P.PID)}
			l.sendCtl(&r)
			return
		}
		any.side.ReturnReq[min(m.Dir, DirRecv)].Store(true) // anything but DirSend is the receive side
		l.pendingRevokes = append(l.pendingRevokes, revokeReq{qid: m.QID, dir: m.Dir, side: m.SrcPort})
		l.hasRevokes = true
		if !l.inside() {
			// Signal-handler path: no thread is inside libsd, so the
			// holder cannot be mid-operation — return immediately.
			l.processRevokes()
		}

	case ctlmsg.KTokenGrant:
		any := l.socks[m.QID]
		if any == nil {
			return
		}
		any.side.Holder[min(m.Dir, DirRecv)].Store(int64(MakeGTID(int(m.PID), int(m.TID))))

	case ctlmsg.KForkSecret:
		l.forkAcks[m.Secret] = true

	case ctlmsg.KPong:
		// Liveness answer to a bounded wait's KPing; the receipt timestamp
		// pollCtl already recorded is the whole payload.

	case ctlmsg.KReRegister:
		// A restarted monitor incarnation introduces itself (pollCtl
		// already adopted its epoch): replay our durable state into it.
		l.reRegisterReport()

	case ctlmsg.KReQPPeer:
		// A peer process needs a fresh QP spliced to this socket: either one
		// that inherited it (fork, exec, migration: "the remote may see two
		// or more QPs for one socket, but they link to the unique copy of
		// socket metadata and buffer", §4.1.2), or failure recovery
		// replacing a dead QP (Dir=ReQPRecovery); recover.go sends both.
		any := l.socks[m.QID]
		res := ctlmsg.Msg{Kind: ctlmsg.KReQPRes, QID: m.QID, Aux: m.Aux,
			PID: int64(l.P.PID), ConnID: m.ConnID, Dir: m.Dir,
			TraceID: m.TraceID, SpanID: m.SpanID}
		res.SetHost(l.H.Name)
		if any == nil {
			// No such socket here: the requester's peer is gone.
			res.Status = ctlmsg.StatusNoListener
			l.sendCtl(&res)
			return
		}
		qp := l.pd.CreateQP(l.sendCQ, l.recvCQ)
		ctx.Charge(l.H.Costs.RDMAQPCreate)
		ep := &rdmaEP{
			lib: l, side: any.side, qp: qp,
			ringRKey: m.RingRKey, creditRKey: m.CreditRKey,
			batching: l.batching,
		}
		if oe, ok := any.ep.(*rdmaEP); ok {
			ep.selfRingRKey, ep.selfCreditRKey = oe.selfRingRKey, oe.selfCreditRKey
		}
		l.registerEP(ep) // before the QP can receive: see newEP
		// Passive: the requester connects its QP when our answer reaches it.
		if err := ep.open(m.HostStr(), m.QPN, true); err != nil {
			res.Status = ctlmsg.StatusNoRoute
			l.sendCtl(&res)
			return
		}
		// Switch every local socket on this queue to the newest QP: "using
		// any of the QPs is equivalent" for one-sided writes, and the new
		// one is spliced to the process that will actually be reading.
		olds := l.switchEP(ep)
		if m.Dir == ctlmsg.ReQPRecovery || anyFailed(olds) {
			// Unlike the fork flow (where the parent keeps using the old
			// QP), recovery must retire the dead QP on both sides so a stale
			// in-flight packet can never land in recycled ring offsets. A
			// fork splice that replaces a failed QP is a recovery too: the
			// peer migrated (§4.1.3), and what this side wrote after that
			// went to the rings it left behind.
			closeQPs(olds)
			// Re-mirror our unacked region and credit through the new QP:
			// writes posted to the dead QP may never have landed. They go
			// out behind the requester's RTU.
			ep.resync(ctx)
			ep.creditHook(any.side.LastCreditOut.Load())
		}
		// Our rkeys are unchanged: the requester keeps the ones it holds.
		res.QPN = qp.QPN()
		l.sendCtl(&res)

	case ctlmsg.KReQPRes:
		for i := range l.reqp {
			if l.reqp[i].qid == m.QID && l.reqp[i].nonce == m.ConnID && !l.reqp[i].done {
				l.reqp[i].done = true
				l.reqp[i].status = m.Status
				l.reqp[i].peerQPN = m.QPN
				l.reqp[i].peerHost = m.HostStr()
				break
			}
		}

	case ctlmsg.KPeerDead:
		// Monitor-brokered crash notification (§4.5.4): the peer process
		// of this queue died. Latch the reset on every local view of the
		// queue — including a connect still parked in Wait-Server — so
		// blocked data-path loops (parked receivers are woken by
		// wakeParked) observe the corpse deterministically. The ring memory
		// itself survives; receivers drain in-flight bytes before the
		// reset surfaces.
		var socks []*Socket
		for s := l.socks[m.QID]; s != nil; s = s.sib {
			socks = append(socks, s)
		}
		pc := l.pending[m.QID] // a dial's ConnID is its QID
		if pc != nil && pc.sock != nil {
			socks = append(socks, pc.sock)
		}
		closing := l.closing[m.QID]
		if pc != nil && pc.status == 0 {
			// Still waiting for KConnectRes: the process the SYN was
			// dispatched to died before it answered, and no answer will
			// come. The dial is refused.
			pc.errCode = ctlmsg.StatusNoListener
			pc.kernelFD = -1
			pc.status = 2
		}
		if h := m.HostStr(); h != "" {
			// Twins held by the dead process (PID 0: by any on a dead host)
			// are gone.
			l.closeParked(h, m.PID)
		}
		if closing != nil {
			// Closed here, waiting for a peer that will never finish: the
			// handshake is over, release what is left.
			closing.reach(peerReset)
			l.tryReleaseInter(closing)
		}
		for _, s := range socks {
			s.side.reach(peerReset)
		}

	case ctlmsg.KStealReq:
		// Surrender one not-yet-accepted connection for re-dispatch.
		key := backlogKey{port: m.Port, tid: int(m.TID)}
		bl := l.backlogs[key]
		var pa *pendingAccept
		if bl != nil && len(bl.conns) > 0 {
			pa = bl.conns[len(bl.conns)-1] // steal from the tail (freshest)
			bl.conns = bl.conns[:len(bl.conns)-1]
		}
		res := ctlmsg.Msg{Kind: ctlmsg.KStealRes, Port: m.Port, PID: int64(l.P.PID), Aux: m.Aux}
		if pa == nil {
			res.Status = ctlmsg.StatusNoListener
		} else {
			if pa.sock != nil {
				// Tear down the eagerly built server end; the thief will
				// re-establish a fresh queue (Fig. 6 Wait-Server note).
				pa.sock.teardownRdma()
			}
			stolen := pa.m
			res.ConnID = stolen.ConnID
			res.Transport = stolen.Transport
			res.ShmToken = stolen.ShmToken
			res.Port = stolen.Port
			res.QPN = stolen.QPN
			res.RingRKey = stolen.RingRKey
			res.CreditRKey = stolen.CreditRKey
			res.SeqA = stolen.SeqA
			res.SeqB = stolen.SeqB
			res.Host = stolen.Host
			res.SrcPort = stolen.SrcPort
			res.TID = stolen.TID // original pid hint unused
			// res.Aux stays the echoed steal id from the request — the
			// monitor matches the response to its in-flight steal record
			// by it; a KNewConn descriptor's own Aux carries nothing.
			*pa = pendingAccept{}
			l.acceptFree.Put(pa)
		}
		l.sendCtl(&res)
	}
}

// teardownRdma destroys a server-side endpoint built for a stolen
// connection. The client may already have written to it, so nothing is
// recycled; the monitor's record moves to the thief and is not reclaimed.
func (s *Socket) teardownRdma() {
	if _, ok := s.ep.(*rdmaEP); ok {
		s.lib.releaseInter(s.side, false)
	}
}
