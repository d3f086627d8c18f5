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

// The kinds up to probeLost are answers from a SocksDirect peer.
const (
	probeSD   probeKind = iota
	probeLost           // the peer keeps the pair its own crossing probe built
	probeNoSD
	probeRST
	probeTimeoutKind
	probePeer // not a probe of ours: synFilter accepted the peer's pair
)

type probeResult struct {
	dst  string
	id   uint64 // our probe's ID, its raw port in the low 16 bits; 0 for probePeer
	mc   *mchan
	kind probeKind
	seq  uint64 // non-SD SYNACK's sequence for connection repair
}

// probe sends a special-option SYN toward p through the raw socket. The
// destination port is that of the first queued connect, so a non-SD peer's
// half-open connection can be completed and repaired into the client. A
// heal probe (re-establishing a dead monitor channel, no queued connects)
// targets the discard port instead: an SD peer's synFilter answers any
// port, and a non-SD answer just resolves the probe as failed. The SYN
// carries the probe's ID, which grows across incarnations, and the newest
// of the peer's probe IDs this monitor has answered: synFilter's tie-break.
func (m *Monitor) probe(p *peer) {
	dst := p.name
	m.probeSeq++
	id := uint64(m.epoch)<<32 | uint64(m.probeSeq)
	p.own, p.ch = id, chanProbing
	if m.KS == nil {
		m.queueProbeResult(probeResult{dst: dst, id: id, kind: probeTimeoutKind})
		return
	}
	dport := uint16(9) // discard, for heal probes
	if i := slices.IndexFunc(p.queue, isConnect); i >= 0 {
		dport = p.queue[i].Port
	}
	st := m.KS.TCP()
	sport := uint16(id)

	mc := newMchan(m.H, dst)
	opt := ctlmsg.Msg{Kind: ctlmsg.KMSyn, QPN: mc.qp.QPN(), ConnID: id, Aux: p.seen,
		Epoch: m.epoch} // hello carries our incarnation
	opts := append(append([]byte{}, sdMagic...), opt.Marshal(nil)...)

	answered := false
	st.RegisterRawPort(sport, func(seg *tcpstack.Segment) {
		if answered {
			return
		}
		answered = true
		pr := probeResult{dst: dst, id: id, mc: mc}
		switch {
		case seg.Flags&tcpstack.FRST != 0:
			pr.kind = probeRST
		case bytes.HasPrefix(seg.Options, sdMagic):
			rm, ok := ctlmsg.Unmarshal(seg.Options[len(sdMagic):])
			pr.kind = probeRST
			if ok {
				m.heard(dst, rm.Epoch)
				pr.kind = probeLost
			}
			if ok && rm.Kind != ctlmsg.KMRefused {
				mc.connect(dst, rm.QPN)
				pr.kind = probeSD
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
			m.queueProbeResult(probeResult{dst: dst, id: id, mc: mc, kind: probeTimeoutKind})
		}
	})
}

// queueProbeResult defers processing to the daemon thread (raw-port
// handlers run in timer context and must not block).
func (m *Monitor) queueProbeResult(pr probeResult) {
	m.probeDone = append(m.probeDone, pr)
	m.wake()
}

// isConnect reports whether a queued message is a process's connect, which
// a channel re-drives and a failed probe answers.
func isConnect(cm ctlmsg.Msg) bool { return cm.Kind == ctlmsg.KConnect }

// finishProbes applies one outcome toward dst: the answer to our probe (or
// its failure), or a pair of the peer's that synFilter accepted. It is the
// one place a probed channel is installed: the peer's accepted pair, or our
// own unless synFilter accepted one of the peer's since our probe went out
// (it zeroes p.own). A pair that is not installed is closed. A channel up
// flushes the queue in arrival order; otherwise only the end of p.own
// decides: probeLost leaves the queue parked for the peer's crossing probe,
// and a failure resolves it.
func (m *Monitor) finishProbes(ctx exec.Context, pr probeResult) {
	p := m.peerOf(pr.dst)
	ours := pr.id != 0 && pr.id == p.own
	switch {
	case pr.kind == probePeer || pr.kind == probeSD && ours:
		p.setChan(pr.mc)
	case pr.mc != nil:
		pr.mc.qp.Close()
	}
	if pr.id != 0 {
		if m.KS != nil {
			// Release the raw port: a repaired connection reuses it as an
			// ordinary local port.
			m.KS.TCP().UnregisterRawPort(uint16(pr.id))
		}
		if pr.kind <= probeLost {
			mProbesOK.Inc()
		} else {
			mProbesFailed.Inc()
		}
	}
	queued := p.queue
	if mc := m.chanTo(p); mc != nil {
		p.queue = nil
		for i := range queued {
			cm := &queued[i]
			switch {
			case !isConnect(*cm):
				mc.send(cm)
			case m.procs[int(cm.PID)] != nil:
				// Not via onConnect: its duplicate check (against bounded-wait
				// re-sends) would drop the connect the first pass recorded.
				m.connectRemote(ctx, cm)
			}
		}
		return
	}
	if !ours {
		return
	}
	p.ch = chanAbsent
	if pr.kind <= probeLost {
		return
	}
	p.queue = nil
	if p.live == memberUnwatched {
		// Never heard from, never condemned: a name some process dialed.
		// Nothing is known that a later mention could not start from.
		delete(m.peers, pr.dst)
		m.peerList = slices.DeleteFunc(m.peerList, func(q *peer) bool { return q == p })
	}
	first := slices.IndexFunc(queued, isConnect)
	for i := range queued {
		cm := &queued[i]
		switch {
		case !isConnect(*cm): // a control message drops
		case pr.kind == probeNoSD && i == first:
			// The probe's half-open connection IS this connect: repair it
			// into the client's kernel FD table (§4.5.3).
			m.repairInto(ctx, cm, pr.dst, uint16(pr.id), pr.seq)
		case pr.kind == probeRST && i == first:
			m.fail(ctx, int(cm.PID), cm, ctlmsg.StatusNoListener)
		case pr.kind == probeNoSD || pr.kind == probeRST:
			m.dialFallback(cm, pr.dst)
		default: // timeout / unreachable
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
//
// It also holds the tie-break that gives a host pair one channel. When both
// monitors probe at once, the pair the lower-named host's probe built wins
// on both ends. The peer's SYN crossed our probe if the peer sent it before
// answering that probe (rm.Aux, the newest of our probe IDs it had answered,
// is older than p.own) while the probe is in flight or built the channel we
// hold toward the same incarnation. The lower host answers a crossing SYN
// with KMRefused and builds nothing: the prober drops its own pair and takes
// ours, which the higher host accepts as it accepts every SYN, replacing
// its own probe. Any other SYN builds the channel.
func (m *Monitor) synFilter(seg *tcpstack.Segment) bool {
	if !bytes.HasPrefix(seg.Options, sdMagic) {
		return false
	}
	stopped := m.stopped
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
	src := seg.SrcHost
	p := m.peerOf(src)
	crossed := m.H.Name < src && rm.Aux < p.own && (p.ch == chanProbing || p.ch == chanUp && rm.Epoch <= p.epoch)
	p.seen = max(p.seen, rm.ConnID)
	opt := ctlmsg.Msg{Kind: ctlmsg.KMRefused, Epoch: m.epoch}
	if !crossed {
		mc := newMchan(m.H, src)
		if err := mc.connect(src, rm.QPN); err != nil {
			return true
		}
		p.own = 0
		m.queueProbeResult(probeResult{dst: src, mc: mc, kind: probePeer})
		opt.Kind, opt.QPN = ctlmsg.KMSynAck, mc.qp.QPN()
	}
	m.heard(src, rm.Epoch)
	opts := append(append([]byte{}, sdMagic...), opt.Marshal(nil)...)
	m.KS.TCP().Inject(&tcpstack.Segment{
		DstHost: src, SrcPort: seg.DstPort, DstPort: seg.SrcPort,
		Seq: 0, Ack: seg.Seq + 1, Flags: tcpstack.FSYN | tcpstack.FACK,
		Options: opts,
	})
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
	m.releaseBacklogSlot(port, ref)
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
