package monitor

import (
	"bytes"
	"slices"

	"socksdirect/internal/ctlmsg"
	"socksdirect/internal/exec"
	"socksdirect/internal/ksocket"
	"socksdirect/internal/tcpstack"
)

// sdMagic prefixes the special TCP option that advertises SocksDirect
// capability in SYN / SYN-ACK packets (§4.5.3).
var sdMagic = []byte("SDCP")

const probeTimeout = 5_000_000 // 5 ms

type probeKind int

const (
	probeSD probeKind = iota
	probeNoSD
	probeRST
	probeTimeoutKind
)

type probeResult struct {
	dst   string
	sport uint16
	mc    *mchan
	kind  probeKind
	seq   uint64 // non-SD SYNACK's sequence for connection repair
}

// probe sends a special-option SYN toward dst through the raw socket. The
// destination port is that of the first queued connect, so a non-SD peer's
// half-open connection can be completed and repaired into the client. A
// heal probe (re-establishing a dead monitor channel, no queued connects)
// targets the discard port instead: an SD peer's synFilter answers any
// port, and a non-SD answer just resolves the probe as failed.
func (m *Monitor) probe(ctx exec.Context, dst string) {
	m.mu.Lock()
	queued := m.peerLocked(dst).probes
	m.mu.Unlock()
	if m.KS == nil {
		m.finishProbes(ctx, dst, probeResult{dst: dst, kind: probeTimeoutKind})
		return
	}
	dport := uint16(9) // discard, for heal probes
	if len(queued) > 0 {
		dport = queued[0].Port
	}
	st := m.KS.TCP()
	m.mu.Lock()
	m.probeSeq++
	sport := m.probeSeq
	m.mu.Unlock()

	mc := newMchan(m.H, dst)
	var opt ctlmsg.Msg
	opt.Kind = ctlmsg.KMSyn
	opt.QPN = mc.qp.QPN()
	opt.Epoch = m.epoch // hello carries our incarnation
	opts := append(append([]byte{}, sdMagic...), opt.Marshal(nil)...)

	answered := false
	st.RegisterRawPort(sport, func(seg *tcpstack.Segment) {
		if answered {
			return
		}
		answered = true
		pr := probeResult{dst: dst, sport: sport, mc: mc}
		switch {
		case seg.Flags&tcpstack.FRST != 0:
			pr.kind = probeRST
		case bytes.HasPrefix(seg.Options, sdMagic):
			if rm, ok := ctlmsg.Unmarshal(seg.Options[len(sdMagic):]); ok {
				mc.connect(dst, rm.QPN)
				pr.kind = probeSD
				m.heard(dst, rm.Epoch)
			} else {
				pr.kind = probeRST
			}
		default:
			// Plain SYN-ACK: a regular TCP/IP peer. Complete the
			// handshake so the server sees an established connection.
			pr.kind = probeNoSD
			pr.seq = seg.Seq
			st.Inject(&tcpstack.Segment{
				DstHost: dst, SrcPort: sport, DstPort: seg.SrcPort,
				Seq: 1, Ack: seg.Seq + 1, Flags: tcpstack.FACK,
			})
		}
		m.queueProbeResult(pr)
	})
	st.Inject(&tcpstack.Segment{
		DstHost: dst, SrcPort: sport, DstPort: dport,
		Seq: 0, Flags: tcpstack.FSYN, Options: opts,
	})
	m.H.Clk.After(probeTimeout, func() {
		if !answered {
			answered = true
			m.queueProbeResult(probeResult{dst: dst, sport: sport, kind: probeTimeoutKind})
		}
	})
}

// queueProbeResult defers processing to the daemon thread (raw-port
// handlers run in timer context and must not block).
func (m *Monitor) queueProbeResult(pr probeResult) {
	m.mu.Lock()
	m.probeDone = append(m.probeDone, pr)
	m.mu.Unlock()
	m.wake()
}

// finishProbes resolves every queued connect for dst according to the
// probe outcome.
func (m *Monitor) finishProbes(ctx exec.Context, dst string, pr probeResult) {
	m.mu.Lock()
	p := m.peerLocked(dst)
	queued, parked := p.probes, p.mqueue
	p.probes, p.mqueue, p.probing = nil, nil, false
	if pr.kind == probeSD {
		p.mc = pr.mc
	} else if !p.tracked && !p.dead {
		// Never heard from, never condemned: a name some process dialed.
		// Nothing is known that a later mention could not start from.
		delete(m.peers, dst)
		m.peerList = slices.DeleteFunc(m.peerList, func(q *peer) bool { return q == p })
	}
	m.mu.Unlock()
	if m.KS != nil && pr.sport != 0 {
		// Release the raw port: a repaired connection reuses it as an
		// ordinary local port.
		m.KS.TCP().UnregisterRawPort(pr.sport)
	}

	if pr.kind == probeSD {
		mProbesOK.Inc()
	} else {
		mProbesFailed.Inc()
	}
	switch pr.kind {
	case probeSD:
		// Flush control messages parked while the channel was dead.
		for _, qm := range parked {
			pr.mc.send(qm)
		}
		// Re-drive every queued connect through the RDMA path. Not via
		// onConnect: its duplicate check (against bounded-wait re-sends)
		// would drop these, since the first pass already recorded them.
		for _, cm := range queued {
			m.mu.Lock()
			pc := m.procs[int(cm.PID)]
			m.mu.Unlock()
			if pc != nil {
				m.connectRemote(ctx, cm)
			}
		}
	case probeNoSD:
		for i, cm := range queued {
			if i == 0 {
				// The probe's half-open connection IS this connect:
				// repair it into the client's kernel FD table (§4.5.3).
				m.repairInto(ctx, cm, dst, pr.sport, pr.seq)
				continue
			}
			m.dialFallback(cm, dst)
		}
	case probeRST:
		if len(queued) > 0 {
			m.fail(ctx, int(queued[0].PID), queued[0], ctlmsg.StatusNoListener)
			for _, cm := range queued[1:] {
				m.dialFallback(cm, dst)
			}
		}
	default: // timeout / unreachable
		for _, cm := range queued {
			m.fail(ctx, int(cm.PID), cm, ctlmsg.StatusNoRoute)
		}
	}
}

// repairInto turns the completed probe handshake into a live kernel
// connection owned by the client process (TCP connection repair: "the
// monitor sends the kernel FD to the application", §4.5.3).
func (m *Monitor) repairInto(ctx exec.Context, cm *ctlmsg.Msg, dst string, sport uint16, synSeq uint64) {
	conn, err := m.KS.TCP().Repair(sport, dst, cm.Port, 1, synSeq+1)
	if err != nil {
		m.fail(ctx, int(cm.PID), cm, ctlmsg.StatusNoRoute)
		return
	}
	m.handKernelSocket(ctx, int(cm.PID), cm.ConnID, ksocket.Wrap(m.H, conn))
}

// handKernelSocket answers a connect with a kernel TCP connection: the FD
// goes into the client's table and its number into the KConnectRes.
func (m *Monitor) handKernelSocket(ctx exec.Context, pid int, connID uint64, sk *ksocket.Socket) {
	p := m.H.Process(pid)
	if p == nil {
		return
	}
	fd := p.InstallFD(sk.KFile())
	res := ctlmsg.Msg{
		Kind: ctlmsg.KConnectRes, ConnID: connID, Status: ctlmsg.StatusOK,
		Transport: ctlmsg.TransportTCP, Aux: uint64(fd),
	}
	m.sendTo(ctx, pid, &res, false)
}

// dialFallback opens an ordinary kernel TCP connection on a helper thread
// (the daemon must not block) and hands it to the client.
func (m *Monitor) dialFallback(cm *ctlmsg.Msg, dst string) {
	connID, pid, port := cm.ConnID, int(cm.PID), cm.Port
	fcm := *cm // the daemon may recycle cm before the helper runs
	m.H.RT.Spawn(m.H.Name+"/mon-dial", func(ctx exec.Context) {
		sk, err := m.KS.Dial(ctx, dst, port)
		if err != nil {
			m.fail(ctx, pid, &fcm, ctlmsg.StatusNoListener)
			return
		}
		m.handKernelSocket(ctx, pid, connID, sk)
	})
}

// synFilter is the server-side raw hook: special-option SYNs are answered
// with credentials for the monitor channel and never reach the kernel
// stack (hence no RST — the iptables rule of §4.5.3); everything else
// passes through to the dual kernel listener.
func (m *Monitor) synFilter(seg *tcpstack.Segment) bool {
	if !bytes.HasPrefix(seg.Options, sdMagic) {
		return false
	}
	m.mu.Lock()
	stopped := m.stopped
	m.mu.Unlock()
	if stopped {
		// A stopped daemon must not answer capability probes: it would
		// hand out credentials for a channel nobody drains. Let the SYN
		// fall through to the kernel stack (RST / plain handshake), which
		// the prober treats as probe failure.
		return false
	}
	rm, ok := ctlmsg.Unmarshal(seg.Options[len(sdMagic):])
	if !ok {
		mBadCtlmsg.Inc()
		return true // malformed special SYN: swallow
	}
	mc := newMchan(m.H, seg.SrcHost)
	if err := mc.connect(seg.SrcHost, rm.QPN); err != nil {
		return true
	}
	m.mu.Lock()
	m.peerLocked(seg.SrcHost).mc = mc
	m.mu.Unlock()
	m.heard(seg.SrcHost, rm.Epoch)
	var opt ctlmsg.Msg
	opt.Kind = ctlmsg.KMSynAck
	opt.QPN = mc.qp.QPN()
	opt.Epoch = m.epoch
	opts := append(append([]byte{}, sdMagic...), opt.Marshal(nil)...)
	m.KS.TCP().Inject(&tcpstack.Segment{
		DstHost: seg.SrcHost, SrcPort: seg.DstPort, DstPort: seg.SrcPort,
		Seq: 0, Ack: seg.Seq + 1, Flags: tcpstack.FSYN | tcpstack.FACK,
		Options: opts,
	})
	m.wake()
	return true
}

// acceptFallback drains a dual kernel listener: a regular TCP/IP client
// reached a SocksDirect service; wrap the kernel connection and dispatch
// it like any other new connection.
func (m *Monitor) acceptFallback(ctx exec.Context, port uint16, kl *ksocket.Listener) {
	sk, err := kl.Accept(ctx)
	if err != nil {
		return
	}
	ref, st := m.pickListener(port)
	if st != ctlmsg.StatusOK {
		// Backlog-full counts too: a refused kernel client sees the close
		// as a reset and retries, same contract as the fast path.
		sk.Close(ctx)
		return
	}
	// Kernel-fallback connections carry no ConnID, so no KAcceptDone will
	// ever release the admission slot; give it back immediately. The cap
	// still gated this dispatch, it just doesn't track the fd's lifetime.
	m.mu.Lock()
	m.releaseBacklogSlotLocked(port, ref)
	m.mu.Unlock()
	p := m.H.Process(ref.pid)
	if p == nil {
		return
	}
	fd := p.InstallFD(sk.KFile())
	nc := ctlmsg.Msg{
		Kind: ctlmsg.KNewConn, Port: port, Transport: ctlmsg.TransportTCP,
		Aux: uint64(fd), TID: int64(ref.tid),
	}
	m.sendTo(ctx, ref.pid, &nc, true)
}
