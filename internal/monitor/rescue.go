package monitor

import (
	"encoding/binary"

	"socksdirect/internal/ctlmsg"
	"socksdirect/internal/exec"
)

// Mid-stream degradation to kernel TCP (§4.5.3): when a socket's RDMA
// path stays dead past its recovery budget, libsd sends KDegrade and the
// monitor builds a replacement kernel TCP connection out of band — the
// kernel network path does not share fate with the (simulated) RDMA
// fabric. The degrading side's monitor dials the peer monitor's rescue
// listener, prefixes the stream with a magic + queue-ID header so the
// accepting monitor can route it, and both monitors install the kernel FD
// into the owning process and report it via KDegraded. libsd then swaps
// the socket's endpoint for a tcpEP that resynchronizes the unacked ring
// region over the new transport (core/tcpep.go).

// rescuePort is the well-known monitor-to-monitor port for degradation
// rescue connections.
const rescuePort = 477

// rescueMagic prefixes the rescue stream header: 4 magic bytes + 8-byte
// little-endian queue ID.
var rescueMagic = []byte("SDRS")

const rescueHdrLen = 12

// onDegrade handles a local process giving up on RDMA recovery for one
// socket. The kernel TCP dial can block, so it runs on a helper thread.
func (m *Monitor) onDegrade(ctx exec.Context, pc *procChan, cm *ctlmsg.Msg) {
	dst := cm.HostStr()
	pid := int(cm.PID)
	qid := cm.QID
	if m.KS == nil || dst == "" || dst == m.H.Name {
		m.degradeFail(ctx, pid, qid)
		return
	}
	m.H.RT.Spawn(m.H.Name+"/mon-rescue-dial", func(ctx exec.Context) {
		sk, err := m.KS.Dial(ctx, dst, rescuePort)
		if err != nil {
			m.degradeFail(ctx, pid, qid)
			return
		}
		var hdr [rescueHdrLen]byte
		copy(hdr[:], rescueMagic)
		binary.LittleEndian.PutUint64(hdr[4:], qid)
		if _, err := sk.Send(ctx, hdr[:]); err != nil {
			sk.Close(ctx)
			m.degradeFail(ctx, pid, qid)
			return
		}
		p := m.H.Process(pid)
		if p == nil {
			sk.Close(ctx)
			return
		}
		fd := p.InstallFD(sk.KFile())
		mRescues.Inc()
		res := ctlmsg.Msg{
			Kind: ctlmsg.KDegraded, QID: qid, Status: ctlmsg.StatusOK,
			Aux: uint64(fd), Dir: 0, // Dir 0: this side dialed
		}
		m.sendTo(ctx, pid, &res, true)
	})
}

// acceptRescue drains the rescue listener on the peer side. The header
// read can block, so it moves to a helper thread immediately.
func (m *Monitor) acceptRescue(ctx exec.Context) {
	sk, err := m.rescueL.Accept(ctx)
	if err != nil {
		return
	}
	m.H.RT.Spawn(m.H.Name+"/mon-rescue", func(ctx exec.Context) {
		var hdr [rescueHdrLen]byte
		got := 0
		for got < len(hdr) {
			n, err := sk.Recv(ctx, hdr[got:])
			if err != nil {
				sk.Close(ctx)
				return
			}
			got += n
		}
		if string(hdr[:4]) != string(rescueMagic) {
			sk.Close(ctx)
			return
		}
		qid := binary.LittleEndian.Uint64(hdr[4:])
		owner := m.shardOf(qid).conns[qid].owner()
		p := m.H.Process(owner)
		if owner == 0 || p == nil {
			sk.Close(ctx)
			return
		}
		fd := p.InstallFD(sk.KFile())
		mRescues.Inc()
		res := ctlmsg.Msg{
			Kind: ctlmsg.KDegraded, QID: qid, Status: ctlmsg.StatusOK,
			Aux: uint64(fd), Dir: 1, // Dir 1: the peer dialed, we accepted
		}
		m.sendTo(ctx, owner, &res, true)
	})
}

// degradeFail reports that no rescue path exists; libsd marks the peer
// dead and surfaces ECONNRESET-style errors to the application.
func (m *Monitor) degradeFail(ctx exec.Context, pid int, qid uint64) {
	res := ctlmsg.Msg{Kind: ctlmsg.KDegraded, QID: qid, Status: ctlmsg.StatusNoRoute}
	m.sendTo(ctx, pid, &res, true)
}
