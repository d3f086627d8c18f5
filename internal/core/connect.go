package core

import (
	"fmt"
	"sync/atomic"

	"socksdirect/internal/ctlmsg"
	"socksdirect/internal/exec"
	"socksdirect/internal/host"
	"socksdirect/internal/obs"
	"socksdirect/internal/rdma"
	"socksdirect/internal/shm"
)

// ringCap is the per-direction socket ring size.
const ringCap = 128 * 1024

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
	deadline atomic.Int64
	nonblock atomic.Bool

	// Of the Accept in progress: its backlog, and its steal hint as a
	// request with the monitor.
	bl      *backlog
	hintMsg ctlmsg.Msg
	hint    ctlWait
}

// SetDeadline arms an absolute virtual-time deadline for Accept; an
// accept that finds no dispatched connection by then returns ETIMEDOUT.
// 0 clears.
func (lst *Listener) SetDeadline(at int64) { lst.deadline.Store(at) }

// SetNonblock switches the listener into (or out of) O_NONBLOCK mode:
// Accept on an empty backlog returns EWOULDBLOCK instead of waiting.
func (lst *Listener) SetNonblock(on bool) { lst.nonblock.Store(on) }

type pendingAccept struct {
	m    ctlmsg.Msg
	sock *Socket // RDMA connections are built eagerly at dispatch
}

// rdmaLocal is the bundle of per-host RDMA resources backing one socket
// endpoint.
type rdmaLocal struct {
	side     *SideState
	qp       *rdma.QP
	rxMR     *rdma.MR
	creditMR *rdma.MR
	tailMR   *rdma.MR
}

// newRdmaLocal builds rings, MRs, a QP and the pinned zero-copy pool for
// one inter-host socket endpoint, and registers the shared state as a SHM
// segment (socket buffers live in SHM so fork keeps working, §4.1.2).
// Rings come from the host's recycle list and the pool from the process's
// (lifecycle.go); MRs are per connection, so an old peer's keys die with
// its connection. qp is a parked QP to build the endpoint on, or nil to
// create one.
func (l *Libsd) newRdmaLocal(ctx exec.Context, qid uint64, qp *rdma.QP) (*rdmaLocal, error) {
	side := &SideState{
		QID: qid,
		TX:  l.H.SHM.GetRing(ringCap),
		RX:  l.H.SHM.GetRing(ringCap),
	}
	side.CreditIn, side.TailIn = side.words[0][:], side.words[1][:]
	side.Refs.Store(1)
	rl := &rdmaLocal{side: side}
	rl.rxMR = l.pd.RegisterBytes(side.RX.Data())
	rl.creditMR = l.pd.RegisterBytes(side.CreditIn)
	rl.tailMR = l.pd.RegisterBytes(side.TailIn)
	side.mrs = []*rdma.MR{rl.rxMR, rl.creditMR, rl.tailMR}
	if rl.qp = qp; qp == nil {
		rl.qp = l.pd.CreateQP(l.sendCQ, l.recvCQ)
		if ctx != nil {
			ctx.Charge(l.H.Costs.RDMAQPCreate)
		}
	}
	pool, err := l.getZCPool(ctx)
	if err != nil {
		l.abandonRdmaLocal(rl)
		return nil, err
	}
	side.LocalPool = pool
	side.segTok = l.H.SHM.Create(fmt.Sprintf("sock-%d", qid), side).Token
	return rl, nil
}

// abandonRdmaLocal releases an endpoint no peer was ever spliced to (a
// refused, timed-out or unroutable dial): the same routine as a graceful
// close. If no endpoint was registered nothing touched the rings and they
// are recycled; a dial that went out on a parked QP had one, and its twin
// may have been adopted and written to them.
func (l *Libsd) abandonRdmaLocal(rl *rdmaLocal) {
	rl.qp.Close() // not registered with the side unless newEP ran
	rl.side.resMu.Lock()
	clean := len(rl.side.eps) == 0
	rl.side.resMu.Unlock()
	l.releaseInter(rl.side, clean)
}

// desc fills the control-message fields describing this endpoint for the
// peer: our QPN, where to write data (RX ring), credits (CreditIn) and
// zero-copy pages (pool MR).
func (rl *rdmaLocal) desc(m *ctlmsg.Msg) {
	m.QPN = rl.qp.QPN()
	m.RingRKey = rl.rxMR.RKey()
	m.CreditRKey = rl.creditMR.RKey()
	m.Secret = rl.tailMR.RKey() // tail word (Secret is unused in data setup)
	m.SeqA = rl.side.LocalPool.mr.RKey()
	m.SeqB = zcPoolPages
}

// newEP wires an rdmaEP over local resources and registers it; where the
// peer takes its writes comes with setPeer.
func (l *Libsd) newEP(rl *rdmaLocal) *rdmaEP {
	ep := &rdmaEP{
		lib:      l,
		side:     rl.side,
		qp:       rl.qp,
		batching: l.batching,
	}
	// Keep our own rkeys in the shared state: failure recovery hands the
	// unchanged keys to the peer's replacement QP (the MRs survive).
	rl.side.SelfRingRKey = rl.rxMR.RKey()
	rl.side.SelfCreditRKey = rl.creditMR.RKey()
	rl.side.SelfTailRKey = rl.tailMR.RKey()
	rl.side.creditEP.Store(&creditBox{ep})
	rl.side.RX.SetCreditHook(func(read uint64) {
		rl.side.LastCreditOut.Store(read)
		if cb := rl.side.creditEP.Load(); cb != nil {
			cb.ep.creditHook(read)
		}
	})
	// Register for completion dispatch BEFORE the QP can receive: a
	// completion with no registered endpoint would be dropped, losing a
	// tail publication permanently.
	l.registerEP(ep)
	return ep
}

// setPeer records the peer's descriptor: where its endpoint takes our
// writes — RX ring, credit word, tail word, zero-copy pool with every slot
// free — and which process holds it.
func (e *rdmaEP) setPeer(peerHost string, m *ctlmsg.Msg) {
	e.ringRKey, e.creditRKey, e.tailRKey = m.RingRKey, m.CreditRKey, m.Secret
	e.peerPID = m.PID
	side := e.side
	side.PeerHost = peerHost
	side.PoolRKey = m.SeqA
	side.PoolRemote = int(m.SeqB)
	side.PoolFree = make([]int32, m.SeqB)
	for i := range side.PoolFree {
		side.PoolFree[i] = int32(i)
	}
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
	l.sendCtl(ctx, &m)
	// Wait for the bind result (the paper hides this latency when failure
	// is impossible; we keep the round trip for clear error reporting).
	key := backlogKey{port: port, tid: t.TID}
	l.mu.Lock()
	if _, ok := l.backlogs[key]; !ok {
		l.backlogs[key] = &backlog{}
	}
	bl := l.backlogs[key]
	l.mu.Unlock()
	for w := l.awaitCtl(&m, ETIMEDOUT).wait(); bl.bindStatus.Load() == 0; {
		if err := w.block(ctx); err != nil {
			return nil, err // ETIMEDOUT: no monitor answered the bind
		}
	}
	if st := uint8(bl.bindStatus.Load()); st != 1 {
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
	lst.fd = l.installFD(&fdEntry{kind: fdListener, lst: lst})
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
	key := backlogKey{port: lst.port, tid: lst.t.TID}
	l.mu.Lock()
	bl := l.backlogs[key]
	l.mu.Unlock()
	// An empty backlog asks the monitor to steal from a sibling's (§4.5.2).
	lst.bl = bl
	lst.hintMsg = ctlmsg.Msg{Kind: ctlmsg.KAcceptHint, Port: lst.port, PID: int64(l.P.PID), TID: int64(lst.t.TID),
		TraceID: op.Trace, SpanID: op.Span}
	w := lst.acceptWait()
	for {
		l.pollCtl(ctx)
		l.mu.Lock()
		if len(bl.conns) > 0 {
			pa := bl.conns[0]
			bl.conns = bl.conns[:copy(bl.conns, bl.conns[1:])]
			l.mu.Unlock()
			s, kf, err := l.finishAccept(ctx, lst.t, pa)
			opOK = err == nil
			return s, kf, err
		}
		l.mu.Unlock()
		if err := w.block(ctx); err != nil {
			return nil, nil, err
		}
	}
}

// Pending reports this backlog's queued connections (tests, stealing).
func (lst *Listener) Pending() int {
	key := backlogKey{port: lst.port, tid: lst.t.TID}
	lst.lib.mu.Lock()
	defer lst.lib.mu.Unlock()
	bl := lst.lib.backlogs[key]
	if bl == nil {
		return 0
	}
	return len(bl.conns)
}

// Close unregisters the listener.
func (lst *Listener) Close(ctx exec.Context) {
	lst.lib.releaseFD(lst.fd)
	m := ctlmsg.Msg{Kind: ctlmsg.KListen, Status: 1 /* remove */, Port: lst.port, PID: int64(lst.lib.P.PID), TID: int64(lst.t.TID)}
	lst.lib.sendCtl(ctx, &m)
}

// acceptDrained tells the monitor one dispatched connection left this
// listener's backlog, freeing a slot against the backlog cap (overload
// admission: the monitor refuses SYNs while a listener's outstanding
// dispatches sit at ListenerBacklogCap).
func (l *Libsd) acceptDrained(ctx exec.Context, t *host.Thread, pa *pendingAccept) {
	m := ctlmsg.Msg{Kind: ctlmsg.KAcceptDone, ConnID: pa.m.ConnID, Port: pa.m.Port,
		PID: int64(l.P.PID), TID: int64(t.TID)}
	l.sendCtl(ctx, &m)
}

func (l *Libsd) finishAccept(ctx exec.Context, t *host.Thread, pa *pendingAccept) (*Socket, host.KFile, error) {
	me := int64(MakeGTID(l.P.PID, t.TID))
	defer l.acceptDrained(ctx, t, pa)
	switch pa.m.Transport {
	case ctlmsg.TransportSHM:
		if p := l.H.Process(int(pa.m.PID)); p == nil || p.Dead() {
			// The client crashed between dispatch and accept; kernel TCP
			// surfaces this as a reset on the new connection.
			return nil, nil, ECONNRESET
		}
		seg, err := l.H.SHM.Attach(shm.Token(pa.m.ShmToken))
		if err != nil {
			return nil, nil, err
		}
		is := seg.Obj.(*IntraSock)
		is.B.PeerPID.Store(int64(pa.m.PID)) // client pid
		s := &Socket{lib: l, side: is.B, intra: is, sideIdx: 1, shmTok: pa.m.ShmToken}
		s.ep = &shmEP{lib: l, side: is.B, peerSide: is.A}
		s.side.SendHolder.Store(me)
		s.side.RecvHolder.Store(me)
		s.fd = l.installFD(&fdEntry{kind: fdSocket, sock: s})
		l.trackSock(s)
		l.initFlow(s)
		s.sendMsg(ctx, MAck, nil, nil) // Fig. 6: server ACK finalizes setup
		s.established = true
		return s, nil, nil
	case ctlmsg.TransportRDMA:
		s := pa.sock
		s.sideIdx = 1
		s.side.SendHolder.Store(me)
		s.side.RecvHolder.Store(me)
		s.fd = l.installFD(&fdEntry{kind: fdSocket, sock: s})
		l.trackSock(s)
		l.initFlow(s)
		s.sendMsg(ctx, MAck, nil, nil)
		s.established = true
		return s, nil, nil
	case ctlmsg.TransportTCP:
		kf, ok := l.P.LookupFD(int(pa.m.Aux))
		if !ok {
			return nil, nil, ErrBadFD
		}
		mTCPFallbacks.Inc()
		l.installFD(&fdEntry{kind: fdKernel, kf: kf})
		return nil, kf, nil
	}
	return nil, nil, fmt.Errorf("libsd: unknown transport %d", pa.m.Transport)
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
	l.mu.Lock()
	l.nextConnID++
	// The ID must be unique cluster-wide, not just host-wide: the server's
	// monitor dedups SYNs by ConnID (guarding against bounded-wait
	// re-sends), so two hosts reusing the same (PID, seq) against one
	// listener would get the second connect silently dropped — and the
	// dialer, whose waiter keeps seeing ping answers from its own live
	// monitor, would spin forever. The host ordinal disambiguates.
	connID := (l.H.Ordinal&0xffff)<<48 | uint64(l.P.PID&0xffff)<<32 | l.nextConnID&0xffff_ffff
	pc := &pendingConn{}
	l.pending[connID] = pc
	l.mu.Unlock()

	// Root span: the whole blocking connect, every control hop it causes
	// parents back to this trace through the message envelope.
	op := obs.BeginOp(l.H.Name, int64(l.P.PID), obs.OpConnect, ctx.Now())
	opOK := false
	defer func() { op.End(l.H.Clk.Now(), opOK) }()

	m := ctlmsg.Msg{
		Kind: ctlmsg.KConnect, ConnID: connID, Port: dstPort,
		PID: int64(l.P.PID), TID: int64(t.TID),
		TraceID: op.Trace, SpanID: op.Span,
	}
	m.SetHost(dstHost)
	if dstHost != l.H.Name {
		// Remote target: prepare our RDMA endpoint optimistically and ship
		// its descriptor with the SYN (the monitors splice the two ends).
		qp := l.takeParked(dstHost, 0, 0, 0)
		rl, err := l.newRdmaLocal(ctx, connID, qp)
		if err != nil {
			return nil, nil, err
		}
		pc.rl = rl
		rl.desc(&m)
		if qp != nil {
			// Offer the pair: the QP is still connected to its twin, which
			// the accepting process adopts if it has it parked. Then its QP
			// is in RTS and its MAck can beat the answer here, so the
			// endpoint is registered before the SYN leaves; the peer's keys
			// come with the answer.
			_, m.RemoteQPN = qp.Peer()
			ep := l.newEP(rl)
			ep.offered = true
			l.mu.Lock()
			pc.sock = &Socket{lib: l, side: rl.side, ep: ep}
			l.mu.Unlock()
		}
	}
	l.sendCtl(ctx, &m)

	// A re-send across a restart is safe: the monitor dedups connects by ConnID.
	c := l.awaitCtl(&m, ETIMEDOUT)
	c.deadline.Store(deadline)
	abandon := func() {
		l.mu.Lock()
		delete(l.pending, connID)
		l.mu.Unlock()
		if pc.rl != nil && !l.P.Dead() {
			// Give back the optimistic endpoint and the monitor's records
			// of the dial; its QP never connected. (A killed process's are
			// reclaimed with it.)
			l.abandonRdmaLocal(pc.rl)
			l.noteClosed(connID)
		}
	}
	for w := c.wait(); pc.status.Load() == 0; {
		if err := w.block(ctx); err != nil {
			abandon()
			return nil, nil, err
		}
	}
	if pc.status.Load() != 1 {
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
		// FD table.
		kf, ok := l.P.LookupFD(pc.kernelFD)
		l.mu.Lock()
		delete(l.pending, connID)
		l.mu.Unlock()
		if !ok {
			return nil, nil, ErrBadFD
		}
		l.installFD(&fdEntry{kind: fdKernel, kf: kf})
		opOK = true
		return nil, kf, nil
	}

	// Fig. 6 Wait-Server: the FD becomes usable when the server's ACK
	// lands on the new queue. A steal on the server side may point the
	// socket at another listener meanwhile (a second KConnectRes). Giving
	// up here closes the half-open socket like a last reference would, so
	// the server's eventual close still completes the release handshake.
	giveUp := func(s *Socket) {
		l.mu.Lock()
		delete(l.pending, connID)
		l.mu.Unlock()
		if !l.P.Dead() {
			s.side.Refs.Store(0)
			s.closeLast(ctx, t)
		}
	}
	// No request is with the monitor any more: its silence ends nothing.
	w := wait{l: l, idle: (*ackWaiter)(c), deadline: &c.deadline, dir: DirSend,
		polls: pollCtl | pollCQ, pre: l.H.Costs.RingOp}
	for {
		c.seen = l.ctlSeen.Load() // a message dispatched from here on may re-point pc.sock
		l.mu.Lock()
		s := pc.sock
		l.mu.Unlock()
		s.drainCtl(ctx)
		if s.established {
			me := int64(MakeGTID(l.P.PID, t.TID))
			s.side.SendHolder.Store(me)
			s.side.RecvHolder.Store(me)
			s.fd = l.installFD(&fdEntry{kind: fdSocket, sock: s})
			l.trackSock(s)
			l.initFlow(s)
			l.mu.Lock()
			delete(l.pending, connID)
			l.mu.Unlock()
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
	case ctlmsg.KBindRes:
		key := backlogKey{port: m.Port, tid: int(m.TID)}
		l.mu.Lock()
		bl, ok := l.backlogs[key]
		if !ok {
			bl = &backlog{}
			l.backlogs[key] = bl
		}
		l.mu.Unlock()
		bl.bindStatus.Store(int32(m.Status) + 1)

	case ctlmsg.KConnectRes:
		l.mu.Lock()
		pc := l.pending[m.ConnID]
		orphan := pc == nil && len(l.socks[m.ConnID]) == 0
		l.mu.Unlock()
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
			pc.status.Store(2)
			return
		}
		switch m.Transport {
		case ctlmsg.TransportSHM:
			seg, err := l.H.SHM.Attach(shm.Token(m.ShmToken))
			if err != nil {
				pc.errCode = ctlmsg.StatusDenied
				pc.status.Store(2)
				return
			}
			is := seg.Obj.(*IntraSock)
			is.A.PeerPID.Store(m.PID) // server pid
			s := &Socket{lib: l, side: is.A, intra: is, sideIdx: 0, shmTok: m.ShmToken}
			s.ep = &shmEP{lib: l, side: is.A, peerSide: is.B}
			l.mu.Lock()
			pc.sock = s
			l.mu.Unlock()
			pc.kernelFD = -1
			pc.status.Store(1)
		case ctlmsg.TransportRDMA:
			// We connect second, so we are the active side — unless we offered
			// a parked QP and the answer names its twin: the acceptor adopted
			// it and the pair never stopped being connected. Any other answer
			// to an offer is a fresh endpoint to re-target at, and so is a
			// second answer for the same dial: a steal re-dispatched it
			// (KStealReq).
			l.mu.Lock()
			s := pc.sock
			l.mu.Unlock()
			var err error
			if s == nil {
				ep := l.newEP(pc.rl)
				ep.setPeer(m.HostStr(), m)
				s = &Socket{lib: l, side: pc.rl.side, ep: ep}
				err = ep.open(m.HostStr(), m.QPN, false)
			} else {
				ep := s.ep.(*rdmaEP)
				if _, twin := ep.qp.Peer(); ep.offered && twin == m.QPN {
					ep.setPeer(m.HostStr(), m)
				} else {
					err = ep.retarget(m.HostStr(), m)
				}
				ep.offered = false
			}
			if err != nil {
				pc.errCode = ctlmsg.StatusNoRoute
				pc.status.Store(2)
				return
			}
			l.mu.Lock()
			pc.sock = s
			l.mu.Unlock()
			pc.kernelFD = -1
			pc.status.Store(1)
		case ctlmsg.TransportTCP:
			mTCPFallbacks.Inc()
			pc.kernelFD = int(m.Aux)
			pc.status.Store(1)
		}

	case ctlmsg.KNewConn:
		pa := &pendingAccept{m: *m}
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
					qp = l.takeParked(m.HostStr(), m.PID, m.RemoteQPN, m.QPN)
				}
				if qp != nil {
					mParkHits.Inc()
				} else {
					mParkMisses.Inc()
				}
			}
			rl, err := l.newRdmaLocal(ctx, m.ConnID, qp)
			if err != nil {
				return
			}
			ep := l.newEP(rl)
			ep.setPeer(m.HostStr(), m)
			if qp == nil {
				// Passive: the dialer connects only when our descriptor has
				// made it back to it; accept's MAck waits in the QP for its
				// RTU.
				if err := ep.open(m.HostStr(), m.QPN, true); err != nil {
					l.abandonRdmaLocal(rl)
					return
				}
			}
			pa.sock = &Socket{lib: l, side: rl.side, ep: ep}
			var res ctlmsg.Msg
			res.Kind = ctlmsg.KMSynAck
			res.ConnID = m.ConnID
			res.Transport = ctlmsg.TransportRDMA
			res.PID = int64(l.P.PID)
			res.TraceID = m.TraceID // keep the connect's causal chain alive
			res.SpanID = m.SpanID
			rl.desc(&res)
			res.SetHost(l.H.Name)
			l.sendCtl(ctx, &res)
		}
		key := backlogKey{port: m.Port, tid: int(m.TID)}
		l.mu.Lock()
		bl, ok := l.backlogs[key]
		if !ok {
			bl = &backlog{}
			l.backlogs[key] = bl
		}
		bl.conns = append(bl.conns, pa)
		l.mu.Unlock()
		if bl.asleep != nil {
			bl.asleep.Unpark()
		}

	case ctlmsg.KTokenReturn:
		// The monitor wants a token back for a waiter.
		l.mu.Lock()
		set := l.socks[m.QID]
		var any *Socket
		for s := range set {
			any = s
			break
		}
		l.mu.Unlock()
		if any == nil {
			// Socket gone; tell the monitor the token is free.
			r := ctlmsg.Msg{Kind: ctlmsg.KTokenReturn, QID: m.QID, Dir: m.Dir,
				SrcPort: m.SrcPort, PID: int64(l.P.PID)}
			l.sendCtl(ctx, &r)
			return
		}
		_, ret := any.tokenVars(int(m.Dir))
		ret.Store(true)
		l.revMu.Lock()
		l.pendingRevokes = append(l.pendingRevokes, revokeReq{qid: m.QID, dir: m.Dir, side: m.SrcPort})
		l.hasRevokes.Store(true)
		l.revMu.Unlock()
		if l.inLibsd.Load() == 0 {
			// Signal-handler path: no thread is inside libsd, so the
			// holder cannot be mid-operation — return immediately.
			l.processRevokes(ctx)
		}

	case ctlmsg.KTokenGrant:
		l.mu.Lock()
		set := l.socks[m.QID]
		var any *Socket
		for s := range set {
			any = s
			break
		}
		l.mu.Unlock()
		if any == nil {
			return
		}
		holder, _ := any.tokenVars(int(m.Dir))
		holder.Store(int64(MakeGTID(int(m.PID), int(m.TID))))

	case ctlmsg.KForkSecret:
		l.mu.Lock()
		l.forkAcks[m.Secret] = true
		l.mu.Unlock()

	case ctlmsg.KPong:
		// Liveness answer to a bounded wait's KPing; the receipt timestamp
		// pollCtl already recorded is the whole payload.

	case ctlmsg.KReRegister:
		// A restarted monitor incarnation introduces itself (pollCtl
		// already adopted its epoch): replay our durable state into it.
		l.reRegisterReport(ctx)

	case ctlmsg.KReQPPeer:
		// A peer process needs a fresh QP spliced to this socket: either a
		// forked child re-establishing after fork ("the remote may see two
		// or more QPs for one socket, but they link to the unique copy of
		// socket metadata and buffer", §4.1.2), or failure recovery
		// replacing a dead QP (Dir=ReQPRecovery; recover.go).
		l.mu.Lock()
		set := l.socks[m.QID]
		var any *Socket
		for s := range set {
			any = s
			break
		}
		l.mu.Unlock()
		res := ctlmsg.Msg{Kind: ctlmsg.KReQPRes, QID: m.QID, Aux: m.Aux,
			PID: int64(l.P.PID), ConnID: m.ConnID, Dir: m.Dir,
			TraceID: m.TraceID, SpanID: m.SpanID}
		res.SetHost(l.H.Name)
		recovery := m.Dir == ctlmsg.ReQPRecovery
		if any == nil || (recovery && any.side.Degraded.Load()) {
			// No such socket here — or it already fell back to kernel TCP,
			// in which case resurrecting an RDMA path would fork the stream.
			res.Status = ctlmsg.StatusNoListener
			l.sendCtl(ctx, &res)
			return
		}
		qp := l.pd.CreateQP(l.sendCQ, l.recvCQ)
		if ctx != nil {
			ctx.Charge(l.H.Costs.RDMAQPCreate)
		}
		ep := &rdmaEP{
			lib: l, side: any.side, qp: qp,
			ringRKey: m.RingRKey, creditRKey: m.CreditRKey,
			tailRKey: m.Secret,
			batching: l.batching,
		}
		l.registerEP(ep) // before the QP can receive: see newEP
		// Passive: the requester connects its QP when our answer reaches it.
		if err := ep.open(m.HostStr(), m.QPN, true); err != nil {
			res.Status = ctlmsg.StatusNoRoute
			l.sendCtl(ctx, &res)
			return
		}
		// Switch every local socket on this queue to the newest QP: "using
		// any of the QPs is equivalent" for one-sided writes, and the new
		// one is spliced to the process that will actually be reading.
		l.mu.Lock()
		var olds []*rdmaEP
		for s := range l.socks[m.QID] {
			if oe, ok := s.ep.(*rdmaEP); ok && oe != ep {
				olds = append(olds, oe)
			}
			s.ep = ep
		}
		l.mu.Unlock()
		any.side.creditEP.Store(&creditBox{ep})
		if recovery {
			// Unlike the fork flow (where the parent keeps using the old
			// QP), recovery must retire the dead QP on both sides so a stale
			// in-flight packet can never land in recycled ring offsets.
			closed := make(map[*rdma.QP]bool)
			for _, oe := range olds {
				if !closed[oe.qp] {
					closed[oe.qp] = true
					oe.qp.Close()
				}
			}
			// Re-mirror our unacked region and credit through the new QP:
			// writes posted to the dead QP may never have landed. They go
			// out behind the requester's RTU.
			ep.resync(ctx)
			ep.creditHook(any.side.LastCreditOut.Load())
		}
		// Our own rkeys are unchanged (rings were already registered).
		res.RingRKey = 0 // peer keeps the rkeys it already holds
		res.QPN = qp.QPN()
		l.sendCtl(ctx, &res)

	case ctlmsg.KReQPRes:
		l.mu.Lock()
		for i := range l.reqp {
			if l.reqp[i].qid == m.QID && l.reqp[i].nonce == m.ConnID && !l.reqp[i].done {
				l.reqp[i].done = true
				l.reqp[i].status = m.Status
				l.reqp[i].peerQPN = m.QPN
				l.reqp[i].ringRKey = m.RingRKey
				l.reqp[i].creditRKey = m.CreditRKey
				l.reqp[i].peerHost = m.HostStr()
				break
			}
		}
		l.mu.Unlock()

	case ctlmsg.KDegraded:
		l.onDegraded(ctx, m)

	case ctlmsg.KPeerDead:
		// Monitor-brokered crash notification (§4.5.4): the peer process
		// of this queue died. Latch the reset on every local view of the
		// queue — including a connect still parked in Wait-Server — so
		// blocked data-path loops (woken separately through the sleeper /
		// wake path) observe the corpse deterministically. The ring memory
		// itself survives; receivers drain in-flight bytes before the
		// reset surfaces.
		l.mu.Lock()
		var socks []*Socket
		for s := range l.socks[m.QID] {
			socks = append(socks, s)
		}
		pc := l.pending[m.QID] // a dial's ConnID is its QID
		if pc != nil && pc.sock != nil {
			socks = append(socks, pc.sock)
		}
		closing := l.closing[m.QID]
		l.mu.Unlock()
		if pc != nil && pc.status.Load() == 0 {
			// Still waiting for KConnectRes: the process the SYN was
			// dispatched to died before it answered, and no answer will
			// come. The dial is refused.
			pc.errCode = ctlmsg.StatusNoListener
			pc.kernelFD = -1
			pc.status.Store(2)
		}
		if h := m.HostStr(); h != "" {
			// Twins held by the dead process (PID 0: by any on a dead host)
			// are gone.
			l.closeParked(h, m.PID)
		}
		if closing != nil {
			// Closed here, waiting for a peer that will never finish: the
			// handshake is over, release what is left.
			closing.PeerReset.Store(true)
			l.tryReleaseInter(closing)
		}
		for _, s := range socks {
			s.side.PeerReset.Store(true)
			if ep, ok := s.ep.(*rdmaEP); ok {
				// Inter-host: the transport cannot observe a remote corpse
				// directly, so mark the endpoint dead too (peerAlive).
				ep.peerDeadFlg.Store(true)
			}
		}

	case ctlmsg.KStealReq:
		// Surrender one not-yet-accepted connection for re-dispatch.
		key := backlogKey{port: m.Port, tid: int(m.TID)}
		l.mu.Lock()
		bl := l.backlogs[key]
		var pa *pendingAccept
		if bl != nil && len(bl.conns) > 0 {
			pa = bl.conns[len(bl.conns)-1] // steal from the tail (freshest)
			bl.conns = bl.conns[:len(bl.conns)-1]
		}
		l.mu.Unlock()
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
		}
		l.sendCtl(ctx, &res)
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
