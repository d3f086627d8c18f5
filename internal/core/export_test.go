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

// Endpoints reports registered RDMA endpoints (the CQ dispatch table).
func (l *Libsd) Endpoints() int {
	return len(l.eps)
}

// Closing reports inter-host sides closed here and awaiting their peer.
func (l *Libsd) Closing() int {
	return len(l.closing)
}

// PendingDials reports dials on record for their KConnectRes.
func (l *Libsd) PendingDials() int {
	return len(l.pending)
}

// FreeDials and FreeAccepts report the free lists of dial records and
// backlog entries.
func (l *Libsd) FreeDials() int   { return len(l.dialFree) }
func (l *Libsd) FreeAccepts() int { return len(l.acceptFree) }

// IdleZCPools reports the zero-copy pool recycle list's length.
func (l *Libsd) IdleZCPools() int {
	return len(l.zcIdle)
}

// ParkedQPs reports how many QPs of finished connections are parked.
func (l *Libsd) ParkedQPs() int {
	return len(l.parked)
}

// DrainParkedQPs closes every parked QP, so that what a finished connection
// left on the NIC can be compared with what was there before it.
func (l *Libsd) DrainParkedQPs() { l.closeParked("", 0) }

// MaxParkedQPs bounds ParkedQPs.
const MaxParkedQPs = maxParkedQPs

// ZCPoolPages is the size of one pinned zero-copy pool.
const ZCPoolPages = zcPoolPages

// FailQP kills the socket's QP as a fatal NIC event would and tells the
// endpoint, as the NIC's asynchronous error event does: an idle QP has no
// work request to complete in error.
func (s *Socket) FailQP() {
	s.ErrorQPSilently()
	s.ep.(*rdmaEP).markFailed()
}

// Degraded reports whether the socket fell back to kernel TCP.
func (s *Socket) Degraded() bool { return s.side.is(degraded) }

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

// SendZCHead sends, intra-host, the zero-copy descriptor of the whole pages
// at addr, announcing tail bytes more than they hold, and sends none of
// them: what a sender that stops mid-message leaves its receiver waiting
// for. (SendVA sends a remainder as a message of its own.)
func (s *Socket) SendZCHead(ctx exec.Context, t *host.Thread, addr mem.VAddr, whole, tail int) error {
	if err := s.begin(ctx, t, DirSend); err != nil {
		return err
	}
	defer s.end(ctx, DirSend)
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
	defer s.end(ctx, DirSend)
	return s.sendMsg(ctx, MZC, payload, nil)
}

// ZCArrival is one queued zero-copy arrival: the bytes it announces and the
// pages a RecvVA of it would map.
type ZCArrival struct{ Total, Pages int }

// FeedZC hands the socket payload as a received MZC (ret false) or MZCRet
// (ret true) message, returns the arrivals that queued, and puts the
// receive queue and the sender's slot list back as they were.
func (s *Socket) FeedZC(ret bool, payload []byte) []ZCArrival {
	if ret {
		n := len(s.side.PoolFree)
		s.handleZCReturn(payload)
		s.side.PoolFree = s.side.PoolFree[:n]
		return nil
	}
	s.queueZC(payload)
	var out []ZCArrival
	for s.zcQueued() {
		r := s.zc.pop()
		out = append(out, ZCArrival{r.total, len(r.ids)})
		s.zc.spent(r)
	}
	return out
}
