package core

import (
	"slices"

	"socksdirect/internal/ctlmsg"
	"socksdirect/internal/exec"
	"socksdirect/internal/host"
	"socksdirect/internal/obs"
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
	l.sendCtl(&m)
	// No monitor to pair the child: fork is simply retryable (EAGAIN).
	for w := l.awaitCtl(&m, EAGAIN).wait(); ; {
		acked := l.forkAcks[secret]
		if acked {
			delete(l.forkAcks, secret)
		}
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
	// Step 4: duplicate the FD remapping table: existing FDs are shared, so
	// every socket gains a reference.
	cl.inherit(l, l.fds, nil)
	for _, e := range cl.fds {
		if e.kind == fdSocket {
			e.sock.side.Refs.Add(1)
		}
	}
	mForkInherits.Add(int64(len(cl.fds)))
	opOK = true
	return child, cl, nil
}

// Exec simulates exec(): the process image is wiped, but the FD remapping
// table survives by being stashed in a SHM segment and re-attached during
// the fresh libsd init (§4.1.2 "it is copied to a SHM before exec").
func (l *Libsd) Exec(ctx exec.Context) (*Libsd, error) {
	l.enter()
	seg := l.H.SHM.Create(l.fds)
	l.leave()

	// "After exec, the entire RDMA context is wiped out": a fresh Libsd,
	// and the old one's parked QPs go.
	l.closeParked("", 0)
	reg, _ := l.H.Mon.(registrar)
	nl, err := initWith(l.P, reg.RegisterProcess(l.P))
	if err != nil {
		return nil, err
	}
	att, err := l.H.SHM.Attach(seg.Token)
	if err != nil {
		return nil, err
	}
	nl.inherit(l, att.Obj.(map[int]fdEntry), nil)
	l.H.SHM.Remove(seg.Token)
	for _, s := range l.socks { // the old image's sdstat rows are final
		for ; s != nil; s = s.sib {
			s.freezeFlow()
		}
	}
	return nl, nil
}

// inherit rebuilds fds, the FD remapping table of src, in l, which took
// src's memory over: a forked child (§4.1.2), the process after exec, or
// the container after migration (§4.1.3). keep, if set, says which entries
// come along. A socket keeps its shared state — rings, cursors, tokens,
// SHM-resident in the paper — and gets an endpoint of l's: an intra-host
// one over the same rings; an inter-host one without a QP, failed until
// its first use splices one (recover.go).
func (l *Libsd) inherit(src *Libsd, fds map[int]fdEntry, keep func(fdEntry) bool) {
	l.batching = src.batching
	l.nextFD, l.freeFDs = src.nextFD, slices.Clone(src.freeFDs)
	for fd, e := range fds {
		if keep != nil && !keep(e) {
			continue
		}
		switch e.kind {
		case fdSocket:
			s := e.sock
			e.sock = &Socket{lib: l, side: s.side, qid: s.qid, fd: fd, sideIdx: s.sideIdx}
			s.side.sock = nil // two processes' Sockets: neither they nor the segment are reused
			switch ep := s.ep.(type) {
			case *shmEP:
				e.sock.useSHM(s.intra)
			case *rdmaEP:
				e.sock.ep = &rdmaEP{lib: l, side: s.side, ringRKey: ep.ringRKey, creditRKey: ep.creditRKey,
					batching: l.batching, failed: true}
			}
			l.trackSock(e.sock)
		case fdListener:
			// The process may accept on the same port: its own backlog,
			// registered with the monitor under its identity.
			e.lst = &Listener{lib: l, port: e.lst.port}
		}
		l.fds[fd] = e
	}
}
