package monitor

import (
	"socksdirect/internal/ctlmsg"
	"socksdirect/internal/host"
	"socksdirect/internal/rdma"
)

// mchan is the monitor-to-monitor RDMA message channel established on
// first contact between two hosts ("it establishes an RDMA queue between
// the two monitors, so that future connections between the two hosts can
// be created faster", §3). It uses two-sided verbs with pre-posted
// buffers: monitor traffic is sparse and latency-tolerant.
type mchan struct {
	peer   string
	qp     *rdma.QP
	sendCQ *rdma.CQ
	recvCQ *rdma.CQ

	inflight int
	sbuf     [ctlmsg.Size]byte // send staging: PostSend copies at post time

	// The landing buffers, one slab for the channel's life. Slot i is posted
	// under WRID recvWRID|i and re-posted as soon as recv has decoded it into
	// msg, the one message the channel hands out: it is valid until the next
	// recv, and a caller that keeps anything of it copies.
	bufs [mchanBufs][ctlmsg.Size]byte
	msg  ctlmsg.Msg

	// Wake-arm dedup: a parked monitor re-arms every mchan each time it
	// parks, but quiet channels never fire the arm, so naive re-arming
	// both allocates a wrapper per park and grows the CQ's notify list
	// without bound. One cached callback reads wakeFn at fire time, so
	// re-arming (including by a successor monitor after a restart) only
	// swaps the target function.
	wakeArmed bool
	wakeFn    func()
	wakeCb    func()
}

const (
	mchanBufs = 128     // landing slots per channel
	recvWRID  = 1 << 32 // tags a receive WRID; the low bits are the slot
)

// newMchan creates the local half (QP in Reset until connected).
func newMchan(h *host.Host, peer string) *mchan {
	mc := &mchan{
		peer:   peer,
		sendCQ: rdma.NewCQ(),
		recvCQ: rdma.NewCQ(),
	}
	mc.wakeCb = func() {
		mc.wakeArmed = false
		f := mc.wakeFn
		if f != nil {
			f()
		}
	}
	pd := h.NIC.AllocPD()
	mc.qp = pd.CreateQP(mc.sendCQ, mc.recvCQ)
	return mc
}

// connect brings the channel up toward the peer monitor's QPN and posts
// every landing slot.
func (mc *mchan) connect(peerHost string, peerQPN uint32) error {
	if err := mc.qp.Connect(peerHost, peerQPN); err != nil {
		return err
	}
	for i := range mc.bufs {
		mc.qp.PostRecv(recvWRID|uint64(i), mc.bufs[i][:])
	}
	return nil
}

// send ships one control message (non-blocking; the QP queues).
func (mc *mchan) send(cm *ctlmsg.Msg) {
	// The QP copies into pooled staging inside PostSend, so the one
	// persistent staging buffer is free for reuse as soon as it returns.
	mc.qp.PostSend(0, cm.Marshal(mc.sbuf[:]))
	mc.inflight++
	for mc.inflight > mchanBufs/2 {
		if _, ok := mc.sendCQ.PollOne(); ok {
			mc.inflight--
		} else {
			break
		}
	}
}

// armWake registers a one-shot wake callback on the receive CQ so a
// parked monitor resumes when peer traffic arrives. Arming while a prior
// arm is still pending only updates the target function.
func (mc *mchan) armWake(fn func()) {
	mc.wakeFn = fn
	armed := mc.wakeArmed
	mc.wakeArmed = true
	cb := mc.wakeCb
	if !armed {
		mc.recvCQ.Arm(cb)
	}
}

// recv polls one incoming control message into mc.msg and re-posts its
// slot (decoding copies every field, so the bytes are dead by then). A
// completion that carries no message — a slot flushed by a dead QP, which
// refuses the re-post, or a garbled one — reports false.
func (mc *mchan) recv() (*ctlmsg.Msg, bool) {
	e, ok := mc.recvCQ.PollOne()
	if !ok {
		return nil, false
	}
	i := e.WRID &^ recvWRID
	if e.WRID&recvWRID == 0 || i >= mchanBufs {
		return nil, false
	}
	buf := mc.bufs[i][:]
	ok = e.Status == rdma.WCSuccess
	if ok {
		mc.msg, ok = ctlmsg.Unmarshal(buf[:e.Len])
	}
	mc.qp.PostRecv(e.WRID, buf)
	if !ok {
		return nil, false
	}
	return &mc.msg, true
}

// Peer directly splices two monitors' channels, bypassing the TCP probe —
// the configuration where both hosts are known SocksDirect-capable
// (tests and benches use it to skip the handshake).
func Peer(a, b *Monitor) {
	mca := newMchan(a.H, b.H.Name)
	mcb := newMchan(b.H, a.H.Name)
	if err := mca.connect(b.H.Name, mcb.qp.QPN()); err != nil {
		panic(err)
	}
	if err := mcb.connect(a.H.Name, mca.qp.QPN()); err != nil {
		panic(err)
	}
	a.adopt(mca)
	b.adopt(mcb)
}

// adopt installs a connected channel, which no probe of ours built, and
// puts its peer under liveness watch.
func (m *Monitor) adopt(mc *mchan) {
	p := m.peerOf(mc.peer)
	p.setChan(mc)
	p.own, p.tracked = 0, true
	m.wake()
}
