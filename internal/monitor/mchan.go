package monitor

import (
	"sync"

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

	mu       sync.Mutex
	nextWRID uint64
	bufs     map[uint64][]byte
	inflight int
	sbuf     [ctlmsg.Size]byte // send staging: PostSend copies at post time

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

const mchanBufs = 128

// newMchan creates the local half (QP in Reset until connected).
func newMchan(h *host.Host, peer string) *mchan {
	mc := &mchan{
		peer:   peer,
		sendCQ: rdma.NewCQ(),
		recvCQ: rdma.NewCQ(),
		bufs:   make(map[uint64][]byte),
	}
	mc.wakeCb = func() {
		mc.mu.Lock()
		mc.wakeArmed = false
		f := mc.wakeFn
		mc.mu.Unlock()
		if f != nil {
			f()
		}
	}
	pd := h.NIC.AllocPD()
	mc.qp = pd.CreateQP(mc.sendCQ, mc.recvCQ)
	return mc
}

// connect brings the channel up toward the peer monitor's QPN and posts
// receive buffers.
func (mc *mchan) connect(peerHost string, peerQPN uint32) error {
	if err := mc.qp.Connect(peerHost, peerQPN); err != nil {
		return err
	}
	mc.mu.Lock()
	defer mc.mu.Unlock()
	for i := 0; i < mchanBufs; i++ {
		mc.postRecvLocked()
	}
	return nil
}

func (mc *mchan) postRecvLocked() { mc.repostLocked(nil) }

// repostLocked turns a drained landing buffer back into a receive WQE
// (nil allocates a fresh one — only at channel bring-up). The buffer set
// is therefore fixed at mchanBufs for the channel's lifetime instead of
// allocating one per received control message.
func (mc *mchan) repostLocked(buf []byte) {
	if buf == nil {
		buf = make([]byte, ctlmsg.Size)
	}
	mc.nextWRID++
	mc.bufs[mc.nextWRID] = buf
	mc.qp.PostRecv(mc.nextWRID, buf)
}

// send ships one control message (non-blocking; the QP queues).
func (mc *mchan) send(cm *ctlmsg.Msg) {
	mc.mu.Lock()
	defer mc.mu.Unlock()
	mc.nextWRID++
	// The QP copies into pooled staging inside PostSend, so the one
	// persistent staging buffer is free for reuse as soon as it returns.
	mc.qp.PostSend(mc.nextWRID, cm.Marshal(mc.sbuf[:]))
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
	mc.mu.Lock()
	mc.wakeFn = fn
	armed := mc.wakeArmed
	mc.wakeArmed = true
	cb := mc.wakeCb
	mc.mu.Unlock()
	if !armed {
		mc.recvCQ.Arm(cb)
	}
}

// recv polls one incoming control message, recycling the landing buffer
// into a fresh receive WQE (Unmarshal copies every field, so the bytes
// are dead the moment it returns).
func (mc *mchan) recv() (*ctlmsg.Msg, bool) {
	e, ok := mc.recvCQ.PollOne()
	if !ok {
		return nil, false
	}
	mc.mu.Lock()
	buf := mc.bufs[e.WRID]
	delete(mc.bufs, e.WRID)
	var cm ctlmsg.Msg
	ok = e.Status == rdma.WCSuccess && buf != nil
	if ok {
		cm, ok = ctlmsg.Unmarshal(buf[:e.Len])
	}
	mc.repostLocked(buf)
	mc.mu.Unlock()
	if !ok {
		return nil, false
	}
	return &cm, true
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

// adopt installs a connected channel and puts its peer under liveness watch.
func (m *Monitor) adopt(mc *mchan) {
	m.mu.Lock()
	p := m.peerLocked(mc.peer)
	p.mc, p.tracked = mc, true
	m.mu.Unlock()
	m.wake()
}
