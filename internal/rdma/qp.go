package rdma

import (
	"fmt"
	"sync"
	"sync/atomic"

	"socksdirect/internal/bufpool"
	"socksdirect/internal/fabric"
	"socksdirect/internal/obs"
	"socksdirect/internal/telemetry"
)

// Package-wide metric handles (resolved once; see internal/telemetry).
var (
	mWQEsPosted  = telemetry.C(telemetry.RdmaWQEsPosted)
	mCompletions = telemetry.C(telemetry.RdmaCompletions)
	mRetransmits = telemetry.C(telemetry.RdmaRetransmits)
	mImmWrites   = telemetry.C(telemetry.RdmaImmWrites)
	mPacketsTx   = telemetry.C(telemetry.RdmaPacketsTx)
	mRNR         = telemetry.C(telemetry.RdmaRNR)
	mOutOfOrder  = telemetry.C(telemetry.RdmaOutOfOrder)
	mNotReady    = telemetry.C(telemetry.RdmaNotReadyDrops)
	mQPsCreated  = telemetry.C(telemetry.RdmaQPsCreated)
)

// QP states (the subset of the ibv state machine the system uses).
type QPState uint8

const (
	QPReset QPState = iota
	// QPRTR is connected and ready to receive: inbound packets are placed
	// and acked, but the QP's own posts wait in the send queue until the
	// first in-order packet from the peer proves the peer's QP is connected
	// too (InfiniBand's REP-sent state; the peer's packet is the RTU).
	QPRTR
	QPRTS // connected, ready to send
	QPErr
)

// DefaultRTO is the retransmission timeout. It is deliberately above the
// Real-mode timer resolution threshold so retransmit timers never fire
// inline with the posting call.
const DefaultRTO = 500_000 // 500 us

// DefaultWindow is the go-back-N window in packets.
const DefaultWindow = 64

// MaxRetry transitions the QP to error state after this many timeouts.
const MaxRetry = 16

// packet is what crosses the fabric between two NICs. Packets and their
// payload staging are pooled (Table 2: a malloc per message costs more
// than the whole per-message budget), which makes ownership explicit:
//
//   - post() creates the packet holding ONE reference — the send queue's
//     (inflight/pending). That reference is released by the cumulative
//     ack that covers the packet (onAck), by the error flush
//     (toError) or by Reset.
//   - every fabric transmit — first send and each go-back-N retransmit —
//     takes an ADDITIONAL reference that is transferred to the fabric.
//     The fabric releases it when the frame is dropped (loss/partition)
//     or after the delivery handler returns (fabric.Releasable).
//   - the receive path (onData/onAck) copies payload bytes out
//     synchronously and must not retain the packet or its payload past
//     return: the frame reference dies in the fabric immediately after.
//
// A packet can therefore be live on the wire in several copies after the
// sender has already dropped it (late duplicates after an ack, flushed
// QPs); the count keeps the staging buffer out of the pool until the
// last copy lands.
type packet struct {
	fromQPN uint32
	toQPN   uint32
	op      uint8
	seq     uint64
	last    bool
	rkey    uint64
	raddr   int64
	imm     uint32
	payload []byte
	ackSeq  uint64

	refs atomic.Int32
	pbuf *bufpool.Buf // backing store of payload, nil for empty payloads
}

var packetPool = sync.Pool{New: func() any { return new(packet) }}

// newPacket returns a zero-valued packet holding one reference.
func newPacket() *packet {
	p := packetPool.Get().(*packet)
	*p = packet{}
	p.refs.Store(1)
	return p
}

// ref adds an owner (one per fabric transmit, on top of the queue's).
func (p *packet) ref() {
	if p.refs.Add(1) <= 1 {
		panic("rdma: ref on a released packet")
	}
}

// release drops one owner; the last drop returns payload staging to the
// buffer pool and the packet to the packet pool.
func (p *packet) release() {
	n := p.refs.Add(-1)
	if n < 0 {
		panic("rdma: packet released more times than referenced")
	}
	if n != 0 {
		return
	}
	if p.pbuf != nil {
		p.pbuf.Release()
		p.pbuf = nil
	}
	p.payload = nil
	packetPool.Put(p)
}

// ReleaseFrame implements fabric.Releasable: the fabric calls it once per
// transmitted copy, on drop or after delivery.
func (p *packet) ReleaseFrame() { p.release() }

type wrComp struct {
	lastSeq uint64
	wrid    uint64
	op      uint8
	length  int
}

type recvWQE struct {
	wrid uint64
	buf  []byte
	fill int
}

// QP is a reliable-connection queue pair.
type QP struct {
	nic    *NIC
	pd     *PD
	qpn    uint32
	sendCQ *CQ
	recvCQ *CQ

	state      QPState
	remoteHost string
	remoteQPN  uint32
	port       *fabric.Endpoint // this host's transmitter toward remoteHost

	// transmit side
	sndSeq    uint64    // next sequence number to assign
	sndUna    uint64    // oldest unacknowledged
	inflight  []*packet // transmitted, unacked (seq order)
	pending   []*packet // waiting for window space
	comps     []wrComp  // WRs awaiting cumulative ack
	window    int
	rtoGen    uint64 // invalidates timers of a reset/closed QP
	rtoGenArm uint64 // rtoGen when the (single) outstanding timer was armed
	rtoArmed  bool
	rtoCb     func() // pre-bound onTimeout trampoline: arming allocates nothing
	progress  bool   // since arming: an ack advanced sndUna or the send queue (re)started
	retries   int

	// receive side
	rcvNext      uint64
	rxWriteAccum int
	recvQ        []recvWQE
}

// CreateQP makes a queue pair in Reset state. The two CQs may be shared
// with other QPs (libsd shares one CQ per thread).
func (pd *PD) CreateQP(sendCQ, recvCQ *CQ) *QP {
	n := pd.nic
	n.nextQPN++
	qp := &QP{
		nic:    n,
		pd:     pd,
		qpn:    n.nextQPN,
		sendCQ: sendCQ,
		recvCQ: recvCQ,
		window: DefaultWindow,
	}
	n.qps[qp.qpn] = qp
	qp.rtoCb = qp.onTimeout
	mQPsCreated.Inc()
	return qp
}

// QPN returns the queue pair number (exchanged out of band by monitors).
func (qp *QP) QPN() uint32 { return qp.qpn }

// State returns the current state.
func (qp *QP) State() QPState {
	return qp.state
}

// Peer returns the host and QPN the QP was last connected to.
func (qp *QP) Peer() (host string, qpn uint32) {
	return qp.remoteHost, qp.remoteQPN
}

// Connect transitions to RTS toward (remoteHost, remoteQPN). remoteHost
// must be this host or one the NIC's network reaches (NIC.Port). It is for
// the side that connects second, or for two sides an out-of-band exchange
// connects before either posts: whatever is posted next is transmitted at
// once, and a peer QP that is not connected yet drops it.
func (qp *QP) Connect(remoteHost string, remoteQPN uint32) error {
	return qp.connect(remoteHost, remoteQPN, QPRTS)
}

// ConnectPassive transitions to RTR toward (remoteHost, remoteQPN): for the
// side that learns its peer's QPN first, when the peer connects only after
// a further exchange. Posts are accepted and held in order; the first
// in-order packet from the peer moves the QP to RTS and releases them into
// the window. A peer that never shows up ends the QP as an unacknowledged
// transmission would: the retry clock runs over the held posts and the QP
// errors with WCRetryExceeded after MaxRetry timeouts.
func (qp *QP) ConnectPassive(remoteHost string, remoteQPN uint32) error {
	return qp.connect(remoteHost, remoteQPN, QPRTR)
}

func (qp *QP) connect(remoteHost string, remoteQPN uint32, to QPState) error {
	port := qp.nic.Port(remoteHost)
	if port == nil {
		return fmt.Errorf("rdma: no port toward host %q", remoteHost)
	}
	if qp.state != QPReset {
		return ErrQPState
	}
	qp.remoteHost, qp.remoteQPN = remoteHost, remoteQPN
	qp.port = port
	qp.state = to
	return nil
}

// Reset returns a connected QP to Reset so it can be connected to another
// peer, as ibv_modify_qp(IBV_QPS_RESET) does: queued and unacknowledged
// work and posted receives are discarded without completions, and both
// sequence spaces restart at zero. An errored QP stays errored.
func (qp *QP) Reset() {
	if !qp.connected() {
		return
	}
	qp.state = QPReset
	qp.dropSendQueue()
	qp.comps, qp.recvQ = nil, nil
	qp.sndSeq, qp.sndUna, qp.rcvNext, qp.rxWriteAccum = 0, 0, 0, 0
	// An armed timer stays armed (a second one could not be told from it);
	// it finds a restarted queue and keeps watching instead of counting.
	qp.retries, qp.progress = 0, true
}

// dropSendQueue drops the send queue's packet references. Copies
// still traveling the fabric hold their own references, so late deliveries
// read valid bytes; the staging returns to the pool when the last copy
// lands or is dropped.
func (qp *QP) dropSendQueue() {
	for _, p := range qp.inflight {
		p.release()
	}
	qp.inflight = nil
	for _, p := range qp.pending {
		p.release()
	}
	qp.pending = nil
}

// Close flushes outstanding work and removes the QP from the NIC.
func (qp *QP) Close() {
	pend := qp.toError(WCFlushErr)
	emit(pend)
	delete(qp.nic.qps, qp.qpn)
}

// ForceError moves the QP to error state as if the hardware had detected a
// fatal condition (fault injection / catastrophic NIC events). Outstanding
// send WRs flush with WCFlushErr; the QP stays registered on the NIC so
// late frames are still recognized (and ignored, state != RTS).
func (qp *QP) ForceError() {
	pend := qp.toError(WCFlushErr)
	emit(pend)
}

// pendCQE is a completion waiting to be pushed once the QP's transition is
// complete — CQ notify callbacks may re-enter the QP (the library's
// completion pump posts follow-up writes), so they must find it finished.
type pendCQE struct {
	cq *CQ
	e  CQE
}

func emit(pend []pendCQE) {
	for _, p := range pend {
		p.cq.push(p.e)
	}
}

// toError performs the full transition to QPErr: outstanding send
// WRs complete with compStatus (WCFlushErr for an administrative flush,
// WCRetryExceeded when the transport gave up), posted receive WQEs flush
// with WCFlushErr, the transmit window is discarded, and rtoGen advances
// so stale timers become no-ops. Caller must emit() the returned CQEs
// once the QP's own update is done.
func (qp *QP) toError(compStatus uint8) []pendCQE {
	if qp.state == QPErr {
		return nil
	}
	qp.state = QPErr
	var pend []pendCQE
	for _, c := range qp.comps {
		pend = append(pend, pendCQE{qp.sendCQ, CQE{WRID: c.wrid, QPN: qp.qpn, Op: c.op, Status: compStatus}})
	}
	qp.comps = nil
	qp.dropSendQueue()
	for _, w := range qp.recvQ {
		pend = append(pend, pendCQE{qp.recvCQ, CQE{WRID: w.wrid, QPN: qp.qpn, Op: OpSend, Status: WCFlushErr}})
	}
	qp.recvQ = nil
	qp.rtoGen++
	return pend
}

// SendPending reports unfinished send work (adaptive batching input).
func (qp *QP) SendPending() int {
	return len(qp.inflight) + len(qp.pending)
}

// PostWrite posts a one-sided RDMA WRITE (withImm=false) or
// WRITE-WITH-IMMEDIATE (withImm=true) of data into the remote MR
// identified by rkey at offset raddr. Completion appears on the send CQ
// when the NIC-level ack covers the last segment.
func (qp *QP) PostWrite(wrid uint64, data []byte, rkey uint64, raddr int64, imm uint32, withImm bool) error {
	op := OpWrite
	if withImm {
		op = OpWriteImm
	}
	return qp.post(wrid, op, data, rkey, raddr, imm)
}

// WriteWR describes one one-sided write in a doorbell-batched post list
// (the analogue of a chained ibv_send_wr).
type WriteWR struct {
	WRID    uint64
	Data    []byte
	RKey    uint64
	RAddr   int64
	Imm     uint32
	WithImm bool
}

// PostWriteBatch posts a list of one-sided writes with a single doorbell:
// one RTO arm, one state check for the whole chain.
// Ordering matches posting them individually; on a QP that is not
// connected nothing is posted and ErrQPState returns.
func (qp *QP) PostWriteBatch(wrs []WriteWR) error {
	if !qp.connected() {
		return ErrQPState
	}
	for i := range wrs {
		w := &wrs[i]
		op := OpWrite
		if w.WithImm {
			op = OpWriteImm
		}
		qp.postWR(w.WRID, op, w.Data, w.RKey, w.RAddr, w.Imm)
	}
	return nil
}

// PostSend posts a two-sided SEND consuming a receive WQE on the peer.
func (qp *QP) PostSend(wrid uint64, data []byte) error {
	return qp.post(wrid, OpSend, data, 0, 0, 0)
}

// PostRecv posts a receive buffer for incoming SENDs.
func (qp *QP) PostRecv(wrid uint64, buf []byte) error {
	if qp.state == QPErr {
		return ErrQPState
	}
	qp.recvQ = append(qp.recvQ, recvWQE{wrid: wrid, buf: buf})
	return nil
}

// connected reports a QP that takes posts and inbound packets: RTS,
// or RTR, where the posts are held.
func (qp *QP) connected() bool { return qp.state == QPRTR || qp.state == QPRTS }

func (qp *QP) post(wrid uint64, op uint8, data []byte, rkey uint64, raddr int64, imm uint32) error {
	if !qp.connected() {
		return ErrQPState
	}
	qp.postWR(wrid, op, data, rkey, raddr, imm)
	return nil
}

func (qp *QP) postWR(wrid uint64, op uint8, data []byte, rkey uint64, raddr int64, imm uint32) {
	mWQEsPosted.Inc()
	if op == OpWriteImm {
		mImmWrites.Inc()
	}
	// Segment to MTU. The payload is copied at post time: this models the
	// NIC DMA-reading the (pinned) source buffer, and keeps the semantics
	// that the app may not touch the buffer until completion while letting
	// the simulation tolerate it. Staging comes from the buffer pool — a
	// segment is at most one MTU, so it always fits a pooled class and the
	// steady state recycles instead of allocating (Table 2's malloc cost).
	remaining := data
	off := int64(0)
	for {
		n := len(remaining)
		if n > MTU {
			n = MTU
		}
		p := newPacket() // holds the send queue's reference
		if n > 0 {
			p.pbuf = bufpool.Get(n)
			p.payload = p.pbuf.B
			copy(p.payload, remaining[:n])
		}
		last := n == len(remaining)
		p.fromQPN = qp.qpn
		p.toQPN = qp.remoteQPN
		p.op = op
		p.seq = qp.sndSeq
		p.last = last
		p.rkey = rkey
		p.raddr = raddr + off
		p.imm = imm
		qp.sndSeq++
		if last {
			qp.comps = append(qp.comps, wrComp{lastSeq: p.seq, wrid: wrid, op: op, length: len(data)})
		}
		qp.enqueue(p)
		if last {
			break
		}
		remaining = remaining[n:]
		off += int64(n)
	}
}

func (qp *QP) enqueue(p *packet) {
	if qp.state == QPRTS && len(qp.inflight) < qp.window {
		qp.transmit(p)
		return
	}
	qp.pending = append(qp.pending, p)
	if qp.state == QPRTR {
		// Held, not transmitted: the timer only runs the retry clock that
		// bounds the wait for the peer (onTimeout).
		qp.armRTO()
	}
}

// fillWindow transmits pending packets, in order, while the window
// has room.
func (qp *QP) fillWindow() {
	for len(qp.pending) > 0 && len(qp.inflight) < qp.window {
		p := qp.pending[0]
		k := copy(qp.pending, qp.pending[1:])
		qp.pending[k] = nil
		qp.pending = qp.pending[:k]
		qp.transmit(p)
	}
}

func (qp *QP) transmit(p *packet) {
	qp.inflight = append(qp.inflight, p)
	p.ref() // transferred to the fabric: released on drop or post-delivery
	qp.port.Send(p, len(p.payload))
	mPacketsTx.Inc()
	qp.armRTO()
}

func (qp *QP) armRTO() {
	if qp.rtoArmed {
		return
	}
	qp.rtoArmed = true
	qp.progress = false
	// At most one timer is outstanding (the rtoArmed gate), so recording
	// the generation in a field instead of a closure capture is
	// equivalent — and lets arming reuse the pre-bound callback.
	qp.rtoGenArm = qp.rtoGen
	qp.nic.clk.After(DefaultRTO, qp.rtoCb)
}

func (qp *QP) onTimeout() {
	if qp.rtoGenArm != qp.rtoGen {
		return
	}
	qp.rtoArmed = false
	// Something is owed an ack (RTS), or is held for a peer that has not
	// shown up (RTR: nothing to retransmit, the clock alone runs).
	waiting := (qp.state == QPRTS && len(qp.inflight) > 0) || (qp.state == QPRTR && len(qp.pending) > 0)
	if !waiting {
		return
	}
	if qp.progress {
		// Progress since arming: not a stall, just keep watching.
		qp.armRTO()
		return
	}
	qp.retries++
	if qp.retries > MaxRetry {
		// Retry budget exhausted: full error transition. The timed-out
		// send WRs keep WCRetryExceeded; CQ notify callbacks may re-enter
		// the QP, so the CQEs go out only once it is in QPErr.
		pend := qp.toError(WCRetryExceeded)
		emit(pend)
		return
	}
	// go-back-N: retransmit everything unacked.
	if len(qp.inflight) > 0 {
		obs.Emit(qp.nic.host, 0, obs.EvRetransmit, 0, qp.nic.clk.Now(), int64(qp.qpn), int64(len(qp.inflight)))
	}
	for _, p := range qp.inflight {
		p.ref() // each retransmitted copy carries its own fabric reference
		qp.port.Send(p, len(p.payload))
		mRetransmits.Inc()
		mPacketsTx.Inc()
	}
	qp.armRTO()
}

// onAck processes a cumulative acknowledgment. The pending-CQE scratch
// is a stack array (emit does not retain it) so a steady-state ack
// completes WRs without allocating.
func (qp *QP) onAck(ack uint64) {
	var pendArr [4]pendCQE
	pend := pendArr[:0]
	if ack <= qp.sndUna {
		return
	}
	qp.sndUna = ack
	qp.retries, qp.progress = 0, true
	// Drop acked packets from the window, releasing the queue's reference
	// on each (an ack means the receiver is past the sequence number, so
	// even a late duplicate still in the fabric is discarded unread; its
	// own frame reference keeps the bytes valid until then).
	i := 0
	for i < len(qp.inflight) && qp.inflight[i].seq < ack {
		qp.inflight[i].release()
		i++
	}
	n := copy(qp.inflight, qp.inflight[i:])
	clear(qp.inflight[n:]) // drop stale pointers so pooled packets aren't pinned
	qp.inflight = qp.inflight[:n]
	// Complete covered WRs, in order (pushed once the window is refilled).
	j := 0
	for j < len(qp.comps) && qp.comps[j].lastSeq < ack {
		c := qp.comps[j]
		pend = append(pend, pendCQE{qp.sendCQ, CQE{WRID: c.wrid, QPN: qp.qpn, Op: c.op, Status: WCSuccess, Len: c.length}})
		j++
	}
	qp.comps = qp.comps[:copy(qp.comps, qp.comps[j:])]
	qp.fillWindow() // the ack opened the window
	emit(pend)
}

// onFrame is the NIC receive pipeline; it runs in timer context.
func (n *NIC) onFrame(frame any, _ int) {
	p, ok := frame.(*packet)
	if !ok {
		return
	}
	qp, ok := n.qps[p.toQPN]
	if !ok {
		// Stale packet for a destroyed QP. A late ack is routine; data means
		// a sender whose peer went away under it, and it will retransmit.
		if p.op != opAck {
			mNotReady.Inc()
		}
		return
	}
	if p.op == opAck {
		qp.onAck(p.ackSeq)
		return
	}
	qp.onData(p)
}

// sendAck ships a standalone cumulative ack. The pooled packet's single
// reference is transferred to the fabric with Send.
func sendAck(port *fabric.Endpoint, fromQPN, toQPN uint32, ack uint64) {
	ap := newPacket()
	ap.fromQPN = fromQPN
	ap.toQPN = toQPN
	ap.op = opAck
	ap.ackSeq = ack
	port.Send(ap, 0)
}

func (qp *QP) onData(p *packet) {
	var pendArr [2]pendCQE
	pend := pendArr[:0]
	if !qp.connected() {
		// A queue pair that is not ready does not receive (hardware
		// would RNR/ignore); dropping without acking makes the sender
		// retransmit until Connect completes, so no delivery — and no
		// completion — can predate the receiver being wired up. The sender
		// pays an RTO for it: whoever connects first must connect passive.
		mNotReady.Inc()
		return
	}
	if p.seq != qp.rcvNext {
		// Out of order (loss upstream) or duplicate: go-back-N discards,
		// re-acking what we actually have.
		mOutOfOrder.Inc()
		sendAck(qp.port, qp.qpn, p.fromQPN, qp.rcvNext)
		return
	}
	if qp.state == QPRTR {
		// The peer's first in-order packet (its RTU): its QP is connected,
		// so what was held may go, on a retry clock that starts over.
		qp.state = QPRTS
		qp.retries, qp.progress = 0, true
		qp.fillWindow()
	}

	accepted := true
	switch p.op {
	case OpWrite, OpWriteImm:
		mr := qp.lookupMR(p.rkey)
		if mr == nil {
			// Remote access violation: hardware would move the QP to
			// error; we mirror that.
			pend = qp.toError(WCFlushErr)
			emit(pend)
			return
		}
		if err := mr.writeAt(p.raddr, p.payload); err != nil {
			pend = qp.toError(WCFlushErr)
			emit(pend)
			return
		}
		qp.rxWriteAccum += len(p.payload)
		if p.last {
			if p.op == OpWriteImm {
				pend = append(pend, pendCQE{qp.recvCQ, CQE{QPN: qp.qpn, Op: OpWriteImm, Status: WCSuccess, Len: qp.rxWriteAccum, Imm: p.imm}})
			}
			qp.rxWriteAccum = 0
		}
	case OpSend:
		if len(qp.recvQ) == 0 {
			accepted = false // RNR: do not advance; sender will retry
			mRNR.Inc()
		} else {
			w := &qp.recvQ[0]
			if w.fill+len(p.payload) > len(w.buf) {
				// The message overruns the posted receive buffer. Real
				// hardware completes the WQE with a local length error and
				// moves the QP to error; a short successful Len would
				// silently truncate the message.
				cqe := CQE{WRID: w.wrid, QPN: qp.qpn, Op: OpSend, Status: WCLocalLenErr}
				qp.recvQ = qp.recvQ[:copy(qp.recvQ, qp.recvQ[1:])]
				pend = append(pend, pendCQE{qp.recvCQ, cqe})
				pend = append(pend, qp.toError(WCFlushErr)...)
				emit(pend)
				return // no ack: the sender's WR must not complete successfully
			}
			w.fill += copy(w.buf[w.fill:], p.payload)
			if p.last {
				cqe := CQE{WRID: w.wrid, QPN: qp.qpn, Op: OpSend, Status: WCSuccess, Len: w.fill, Imm: p.imm}
				qp.recvQ = qp.recvQ[:copy(qp.recvQ, qp.recvQ[1:])]
				pend = append(pend, pendCQE{qp.recvCQ, cqe})
			}
		}
	}
	if accepted {
		qp.rcvNext++
	}
	ack := qp.rcvNext
	port := qp.port // taken before emit, whose completions may reset or re-connect the QP
	emit(pend)
	sendAck(port, qp.qpn, p.fromQPN, ack)
}

func (qp *QP) lookupMR(rkey uint64) *MR {
	n := qp.nic
	mr, ok := n.mrs[rkey]
	if !ok || mr.pd.id != qp.pd.id {
		return nil
	}
	return mr
}
