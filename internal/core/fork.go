package core

import (
	"socksdirect/internal/ctlmsg"
	"socksdirect/internal/exec"
	"socksdirect/internal/host"
	"socksdirect/internal/obs"
	"socksdirect/internal/shm"
)

// Fork performs the libsd side of process fork (§4.1.2):
//
//   - a pairing secret goes to the monitor *before* the fork so a
//     malicious process cannot impersonate the child;
//   - the FD remapping table is copied (copy-on-write semantics: existing
//     FDs shared, future FDs diverge);
//   - socket metadata and buffers are already in SHM segments, so the
//     child sees them by construction;
//   - RDMA resources cannot survive fork (the paper's DMA/COW problem),
//     so the child re-establishes a QP per inter-host socket through the
//     monitor on first use;
//   - the parent keeps all tokens; the child starts inactive.
//
// It returns the child process with its own initialized Libsd.
func (l *Libsd) Fork(ctx exec.Context, t *host.Thread, name string) (*host.Process, *Libsd, error) {
	l.enter()
	defer l.leave()

	// Step 1: secret pairing with the monitor; wait for the deposit ack
	// before actually forking (the real fork also happens strictly after
	// the secret message, §4.1.2).
	secret := uint64(l.P.PID)<<32 ^ uint64(l.H.Clk.Now()) ^ 0x5ec4e7
	op := obs.BeginOp(l.H.Name, int64(l.P.PID), obs.OpFork, ctx.Now())
	opOK := false
	defer func() { op.End(l.H.Clk.Now(), opOK) }()
	m := ctlmsg.Msg{Kind: ctlmsg.KForkSecret, Secret: secret, PID: int64(l.P.PID),
		TraceID: op.Trace, SpanID: op.Span}
	l.sendCtl(ctx, &m)
	// No monitor to pair the child: fork is simply retryable (EAGAIN).
	for w := l.awaitCtl(&m, EAGAIN).wait(); ; {
		l.mu.Lock()
		acked := l.forkAcks[secret]
		if acked {
			delete(l.forkAcks, secret)
		}
		l.mu.Unlock()
		if acked {
			break
		}
		if err := w.block(ctx); err != nil {
			return nil, nil, err
		}
	}

	// Step 2: the actual fork (kernel FD table shared by the host layer).
	child := l.P.Fork(name)

	// Step 3: child-side libsd init — new control queue, paired by secret.
	reg, ok := l.H.Mon.(registrar)
	if !ok {
		return nil, nil, ErrNoMonitor
	}
	link := reg.RegisterChild(child, secret)
	if link == nil {
		return nil, nil, ErrDenied
	}
	cl, err := initWith(child, link)
	if err != nil {
		return nil, nil, err
	}
	cl.batching = l.batching
	cl.recoveryBudget = l.recoveryBudget

	// Step 4: duplicate the FD remapping table. Socket refcounts grow; the
	// child's socket objects share the SHM-resident SideState but build
	// their own endpoints (fresh QPs for RDMA sockets, created lazily via
	// the monitor).
	l.mu.Lock()
	entries := make(map[int]*fdEntry, len(l.fds))
	for fd, e := range l.fds {
		entries[fd] = e
	}
	nextFD := l.nextFD
	freeFDs := append([]int(nil), l.freeFDs...)
	l.mu.Unlock()

	cl.mu.Lock()
	cl.nextFD = nextFD
	cl.freeFDs = freeFDs
	cl.mu.Unlock()

	mForkInherits.Add(int64(len(entries)))
	for fd, e := range entries {
		switch e.kind {
		case fdSocket:
			s := e.sock
			s.side.Refs.Add(1)
			cs := &Socket{lib: cl, side: s.side, intra: s.intra, fd: fd}
			switch sep := s.ep.(type) {
			case *shmEP:
				cs.ep = &shmEP{lib: cl, side: sep.side, peerSide: sep.peerSide}
			case *rdmaEP:
				cs.ep = &forkedRdmaEP{
					lib: cl, sock: cs,
					ringRKey: sep.ringRKey, creditRKey: sep.creditRKey,
					tailRKey: sep.tailRKey,
					peerQPN:  0,
				}
			}
			cs.established = true
			cl.mu.Lock()
			cl.fds[fd] = &fdEntry{kind: fdSocket, sock: cs}
			cl.mu.Unlock()
			cl.trackSock(cs)
		case fdKernel:
			cl.mu.Lock()
			cl.fds[fd] = &fdEntry{kind: fdKernel, kf: e.kf}
			cl.mu.Unlock()
		case fdListener:
			// The child may accept on the same port: register its own
			// backlog with the monitor under the child's identity.
			clst := &Listener{lib: cl, port: e.lst.port}
			cl.mu.Lock()
			cl.fds[fd] = &fdEntry{kind: fdListener, lst: clst}
			cl.mu.Unlock()
		}
	}
	opOK = true
	return child, cl, nil
}

// forkedRdmaEP is the child's view of an inherited inter-host socket
// before its replacement QP exists: the first operation triggers the
// monitor-mediated re-establishment ("When a child process uses a socket
// created before fork, it asks the monitor to re-establish an RDMA QP with
// the remote endpoint", §4.1.2), after which it delegates to a real
// rdmaEP. The remote may see two QPs for one socket; both link to the
// unique ring copy in SHM, and since only WRITE verbs are used, either QP
// is equivalent.
type forkedRdmaEP struct {
	lib        *Libsd
	sock       *Socket
	ringRKey   uint64
	creditRKey uint64
	tailRKey   uint64
	peerQPN    uint32
	real       *rdmaEP
}

func (f *forkedRdmaEP) materialize(ctx exec.Context) *rdmaEP {
	if f.real != nil {
		return f.real
	}
	side := f.sock.side
	// Child re-registers the (SHM-resident) rings under its own PD and
	// asks the monitor to splice a fresh QP pair with the peer process.
	rxMR := f.lib.pd.RegisterBytes(side.RX.Data())
	creditMR := f.lib.pd.RegisterBytes(side.CreditIn)
	tailMR := f.lib.pd.RegisterBytes(side.TailIn)
	side.resMu.Lock()
	side.mrs = append(side.mrs, rxMR, creditMR, tailMR)
	side.resMu.Unlock()
	qp := f.lib.pd.CreateQP(f.lib.sendCQ, f.lib.recvCQ)
	ctx.Charge(f.lib.H.Costs.RDMAQPCreate)
	mForkReQP.Inc()

	req := ctlmsg.Msg{
		Kind: ctlmsg.KReQP, QID: side.QID, PID: int64(f.lib.P.PID),
		QPN: qp.QPN(), RingRKey: rxMR.RKey(), CreditRKey: creditMR.RKey(),
		Secret: tailMR.RKey(),
	}
	req.SetHost(side.PeerHost)
	f.lib.mu.Lock()
	f.lib.reqp = append(f.lib.reqp, pendingReQP{qid: side.QID, done: false})
	f.lib.mu.Unlock()
	f.lib.sendCtl(ctx, &req)
	var ep *rdmaEP
	// The data-path contract (trySend/tryRecv) has no errno channel, so
	// monitor silence re-issues the request instead of failing: the wait
	// completes when a monitor answers (the peer regenerates its KReQPRes).
	c := f.lib.awaitCtl(&req, errAskAgain)
	c.sock = f.sock // the death notice may reach another process of the socket's: no message here
	for w := c.wait(); ; {
		// Fork-flow entries carry nonce 0 (recovery attempts in recover.go
		// use unique nonces, so the flows cannot cross-match).
		if pr, done := f.lib.takeReQP(side.QID, 0); done {
			f.peerQPN = pr.peerQPN
			// Peer rkeys may be refreshed too (the peer re-registered).
			if pr.ringRKey != 0 {
				f.ringRKey, f.creditRKey = pr.ringRKey, pr.creditRKey
			}
			ep = &rdmaEP{
				lib: f.lib, side: side, qp: qp,
				ringRKey: f.ringRKey, creditRKey: f.creditRKey,
				tailRKey: f.tailRKey,
				batching: f.lib.batching,
			}
			side.creditEP.Store(&creditBox{ep})
			f.lib.registerEP(ep) // before the QP can receive: see newEP
			// Active: the peer's new QP holds its writes until this RTU.
			if err := ep.open(pr.peerHost, f.peerQPN, false); err != nil {
				ep.markFailed() // no route for this QP: recovery takes over
			}
			break
		}
		// The peer's crash mid-splice, or our own death: abandon the QP; the
		// wait of the operation around the splice surfaces the errno (the
		// reset is consumed once, there).
		if side.PeerReset.Load() || w.block(ctx) != nil {
			qp.Close()
			return nil
		}
	}
	f.real = ep
	f.sock.ep = ep
	return ep
}

func (f *forkedRdmaEP) trySend(ctx exec.Context, typ uint8, a, b []byte) bool {
	ep := f.materialize(ctx)
	if ep == nil {
		return false // death mid-splice; the retry loop surfaces the errno
	}
	return ep.trySend(ctx, typ, a, b)
}
func (f *forkedRdmaEP) tryRecv(ctx exec.Context) (shm.Msg, bool) {
	ep := f.materialize(ctx)
	if ep == nil {
		return shm.Msg{}, false
	}
	return ep.tryRecv(ctx)
}
func (f *forkedRdmaEP) canRecv() bool {
	if f.real == nil {
		// In-flight pre-switch data is published by the parent process's
		// completion pump into the shared ring copy.
		return f.sock.side.RX.CanRecv()
	}
	return f.real.canRecv()
}
func (f *forkedRdmaEP) kick(ctx exec.Context) {}
func (f *forkedRdmaEP) progress(ctx exec.Context) {
	if f.real != nil {
		f.real.progress(ctx)
	}
}
func (f *forkedRdmaEP) peerAlive() bool {
	if f.real == nil {
		// Not yet spliced: only the monitor's KPeerDead latch can tell us
		// the remote process died.
		return !f.sock.side.PeerReset.Load()
	}
	return f.real.peerAlive()
}

type pendingReQP struct {
	qid        uint64
	nonce      uint64 // 0 = fork flow; recovery attempts carry a unique id
	done       bool
	status     uint8 // ctlmsg status from the KReQPRes (recovery flow)
	peerQPN    uint32
	ringRKey   uint64
	creditRKey uint64
	peerHost   string
}

// Exec simulates exec(): the process image is wiped, but the FD remapping
// table survives by being stashed in a SHM segment and re-attached during
// the fresh libsd init (§4.1.2 "it is copied to a SHM before exec").
func (l *Libsd) Exec(ctx exec.Context) (*Libsd, error) {
	l.enter()
	l.mu.Lock()
	saved := struct {
		fds     map[int]*fdEntry
		nextFD  int
		freeFDs []int
	}{l.fds, l.nextFD, append([]int(nil), l.freeFDs...)}
	l.mu.Unlock()
	seg := l.H.SHM.Create("exec-fdtable", saved)
	l.leave()

	// "After exec, the entire RDMA context is wiped out": a fresh Libsd,
	// and the old one's parked QPs go.
	l.closeParked("", 0)
	reg, _ := l.H.Mon.(registrar)
	nl, err := initWith(l.P, reg.RegisterProcess(l.P))
	if err != nil {
		return nil, err
	}
	nl.batching = l.batching
	att, err := l.H.SHM.Attach(seg.Token)
	if err != nil {
		return nil, err
	}
	got := att.Obj.(struct {
		fds     map[int]*fdEntry
		nextFD  int
		freeFDs []int
	})
	nl.mu.Lock()
	nl.nextFD = got.nextFD
	nl.freeFDs = got.freeFDs
	for fd, e := range got.fds {
		switch e.kind {
		case fdSocket:
			s := e.sock
			cs := &Socket{lib: nl, side: s.side, intra: s.intra, fd: fd, established: true}
			switch sep := s.ep.(type) {
			case *shmEP:
				cs.ep = &shmEP{lib: nl, side: sep.side, peerSide: sep.peerSide}
			case *rdmaEP:
				cs.ep = &forkedRdmaEP{lib: nl, sock: cs, ringRKey: sep.ringRKey, creditRKey: sep.creditRKey}
			case *forkedRdmaEP:
				cs.ep = &forkedRdmaEP{lib: nl, sock: cs, ringRKey: sep.ringRKey, creditRKey: sep.creditRKey}
			}
			nl.fds[fd] = &fdEntry{kind: fdSocket, sock: cs}
		default:
			nl.fds[fd] = e
		}
	}
	nl.mu.Unlock()
	l.H.SHM.Remove(seg.Token)
	return nl, nil
}
