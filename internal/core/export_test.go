package core

import (
	"socksdirect/internal/ctlmsg"
	"socksdirect/internal/exec"
	"socksdirect/internal/host"
	"socksdirect/internal/mem"
	"socksdirect/internal/shm"
)

// Test-only windows into connection-lifecycle state.

// HandleCtl runs m through the library's control handler outside any
// thread, as the SIGUSR1 handler does with what the monitor sent.
func (l *Libsd) HandleCtl(m ctlmsg.Msg) { l.handleCtl(exec.Context{}, &m) }

// Holder returns the GTID holding the socket's token in direction dir.
func (s *Socket) Holder(dir int) int64 { return s.side.Holder[dir].Load() }

// Rings returns the socket's TX and RX rings (nil once recycled).
func (s *Socket) Rings() (tx, rx *shm.Ring) { return s.side.TX, s.side.RX }

// Backed reports how many bytes of the socket's TX and RX ring copies are
// backed.
func (s *Socket) Backed() (tx, rx int) {
	return len(s.side.TX.Backing(0)), len(s.side.RX.Backing(0))
}

// WritePeerRing RDMA-writes b at offset off of the peer's receiver ring
// copy, without an immediate: bytes no tail the peer sees ever covers.
func (s *Socket) WritePeerRing(off int64, b []byte) error {
	ep := s.ep.(*rdmaEP)
	return ep.qp.PostWrite(wrCredit, b, ep.ringRKey, off, 0, false)
}

// FreeDials and FreeAccepts report the free lists of dial records and
// backlog entries.
func (l *Libsd) FreeDials() int   { return len(l.dialFree) }
func (l *Libsd) FreeAccepts() int { return len(l.acceptFree) }

// Side returns the side the socket points into: its segment's, or once a
// clean release detached it, the library's stand-in.
func (s *Socket) Side() *SideState { return s.side }

// NextIdleSide returns the side of the interSide the next inter-host dial
// or accepted connection builds on, or nil when the list is empty.
func (l *Libsd) NextIdleSide() *SideState {
	if n := len(l.sideIdle); n > 0 {
		return &l.sideIdle[n-1].side
	}
	return nil
}

// MaxIdleSides bounds IdleSides.
const MaxIdleSides = maxIdleSides

// IdleSockets counts the Sockets on the library's free list.
func (l *Libsd) IdleSockets() int { return len(l.sockIdle) }

// Pump handles the completions on the process's CQs, as a thread polling
// inside the library does.
func (l *Libsd) Pump(ctx exec.Context) {
	l.enter()
	l.pump(ctx)
	l.leave()
}

// DrainParkedQPs closes every parked QP, so that what a finished connection
// left on the NIC can be compared with what was there before it.
func (l *Libsd) DrainParkedQPs() { l.closeParked("", 0) }

// MaxParkedQPs bounds ParkedQPs.
const MaxParkedQPs = maxParkedQPs

// FailQP kills the socket's QP as a fatal NIC event would and tells the
// endpoint, as the NIC's asynchronous error event does: an idle QP has no
// work request to complete in error.
func (s *Socket) FailQP() {
	s.ErrorQPSilently()
	s.ep.(*rdmaEP).markFailed()
}

// ErrorParkedQPs moves every parked QP to the error state, as a NIC event
// between two connections would.
func (l *Libsd) ErrorParkedQPs() {
	for _, p := range l.parked {
		p.qp.ForceError()
	}
}

// ErrorQPSilently moves the socket's QP to the error state and tells
// nobody. The QP is idle, so no work request completes in error and no CQE
// will ever report it: the endpoint can only learn of it from its next
// post.
func (s *Socket) ErrorQPSilently() { s.ep.(*rdmaEP).qp.ForceError() }

// QPFailed reports whether the socket's inter-host endpoint has seen its
// QP die and not yet spliced a new one.
func (s *Socket) QPFailed() bool {
	ep, ok := s.ep.(*rdmaEP)
	return ok && ep.failed
}

// RecoveryAttemptTimeout is how long one splice attempt waits for its
// answer.
const RecoveryAttemptTimeout = recoveryAttemptTimeout

// BusyInside keeps the calling thread inside the library for ns without
// polling its control queues, as a long operation would: the monitor
// defers its notifications to the library exit.
func (l *Libsd) BusyInside(ctx exec.Context, ns int64) {
	l.enter()
	ctx.Sleep(ns)
	l.leave()
}

// SendZCHead sends, intra-host, the zero-copy descriptor of the whole pages
// at addr, announcing tail bytes more than they hold, and sends none of
// them: what a sender that stops mid-message leaves its receiver waiting
// for. (SendVA sends a remainder as a message of its own.)
func (s *Socket) SendZCHead(ctx exec.Context, t *host.Thread, addr mem.VAddr, whole, tail int) error {
	if err := s.begin(ctx, t, DirSend); err != nil {
		return err
	}
	defer s.end(DirSend)
	ids, err := s.lib.P.AS.PagesForSend(&ctx, addr, whole)
	if err != nil {
		return err
	}
	desc := s.lib.H.Mem.AppendObfuscated(appendZCHeader(nil, zcIntra, whole+tail, len(ids)), ids)
	return s.sendMsg(ctx, MZC, desc, nil)
}

// The zero-copy descriptor codec, for tests that forge descriptors.
var (
	AppendZCHeader = appendZCHeader
	AppendZCSlots  = appendSlots
	AppendZCReturn = appendZCReturn
)

// The two kinds of MZC descriptor.
const (
	ZCIntra = zcIntra
	ZCInter = zcInter
)

// SendZCRaw sends payload as an MZC descriptor, as a peer that writes its
// ring by hand would.
func (s *Socket) SendZCRaw(ctx exec.Context, t *host.Thread, payload []byte) error {
	if err := s.begin(ctx, t, DirSend); err != nil {
		return err
	}
	defer s.end(DirSend)
	return s.sendMsg(ctx, MZC, payload, nil)
}

// ReturnZC hands the socket payload as a received MZCRet message and
// returns the sender's free-slot list of the peer's pool afterwards.
func (s *Socket) ReturnZC(payload []byte) []int32 {
	s.handleZCReturn(payload)
	return append([]int32(nil), s.side.PoolFree...)
}

// ZCArrival is one queued zero-copy arrival: the bytes it announces and the
// frames a RecvVA of it would map.
type ZCArrival struct {
	Total  int
	Frames []mem.PageID
}

// FeedZC hands the socket each payload in turn as a received MZC (ret
// false) or MZCRet (ret true) message, returns the arrivals that queued, and
// puts the receive queue, the held pool slots and the sender's slot list
// back as they were.
func (s *Socket) FeedZC(ret bool, payloads ...[]byte) []ZCArrival {
	if ret {
		n := len(s.side.PoolFree)
		for _, p := range payloads {
			s.handleZCReturn(p)
		}
		for _, slot := range s.side.PoolFree[n:] {
			s.side.poolLent[slot>>6] |= 1 << (slot & 63)
		}
		s.side.PoolFree = s.side.PoolFree[:n]
		return nil
	}
	for _, p := range payloads {
		s.queueZC(p)
	}
	var out []ZCArrival
	for s.zcQueued() {
		r := s.popZC()
		out = append(out, ZCArrival{r.total, append([]mem.PageID(nil), r.ids...)})
		s.zc.spent(r)
	}
	return out
}

// CtlQueued reports the control messages waiting in the library for room on
// a full control ring.
func (l *Libsd) CtlQueued() (n int) {
	for _, q := range l.ctlOut {
		n += len(q)
	}
	return n
}

// The control waits' periods, for sweeping a predicate across them.
const CtlPingEvery, CtlDeadAfter, TokenAskAgain = ctlPingEvery, ctlDeadAfter, tokenAskAgain

// Lib returns the library s belongs to.
func (s *Socket) Lib() *Libsd { return s.lib }

// WaitIdlers returns the predicate of every kind of wait, each armed at now
// as its wait arms it, with deadline (0: none) for those that have one: a
// receive on s, a send on s with its ring full, a zero-copy send short of a
// pool slot, a takeover of s's receive token, a dial's two waits (for the
// monitor's answer, then for the peer's ack on s), lst's Accept, and an
// Epoll watching s for input.
func (s *Socket) WaitIdlers(now, deadline int64, lst *Listener) map[string]exec.Idler {
	l := s.lib
	for s.side.TX.TrySend(0, 0, make([]byte, 64)) {
	}
	s.side.PoolWant = len(s.side.PoolFree) + 1
	s.deadline = [2]int64{deadline, deadline}
	s.side.Poller = [2]int64{s.Holder(DirRecv), s.Holder(DirSend)} // waits by the token holder
	lst.bl, lst.deadline, lst.hint.epoch = l.backlogOf(lst.port, lst.t.TID), deadline, l.monEpoch.Load()
	take := l.awaitCtl(&ctlmsg.Msg{Kind: ctlmsg.KTakeover}, EAGAIN)
	take.sock, take.token, take.dir, take.every, take.held = s, true, DirRecv, tokenAskAgain, s.Holder(DirRecv)
	dial := l.awaitCtl(&ctlmsg.Msg{Kind: ctlmsg.KConnect}, ETIMEDOUT)
	dial.deadline, dial.sock = deadline, s
	take.seen, dial.seen = l.ctlSeen, l.ctlSeen
	return map[string]exec.Idler{
		"recv": (*recvWaiter)(s), "send": (*sendWaiter)(s), "zc pool": (*zcWaiter)(s),
		"takeover": take, "dial": dial, "dial ack": (*ackWaiter)(dial),
		"accept": (*acceptWaiter)(lst), "epoll": (*epollWaiter)(&Epoll{lib: l, ifd: map[int]uint32{s.fd: EPOLLIN}}),
	}
}
