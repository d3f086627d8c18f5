package core

import (
	"socksdirect/internal/exec"
	"socksdirect/internal/host"
	"socksdirect/internal/mem"
	"socksdirect/internal/shm"
)

// Test-only windows into connection-lifecycle state.

// Rings returns the socket's TX and RX rings (nil once recycled).
func (s *Socket) Rings() (tx, rx *shm.Ring) { return s.side.TX, s.side.RX }

// Endpoints reports registered RDMA endpoints (the CQ dispatch table).
func (l *Libsd) Endpoints() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.eps)
}

// Closing reports inter-host sides closed here and awaiting their peer.
func (l *Libsd) Closing() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.closing)
}

// IdleZCPools reports the zero-copy pool recycle list's length.
func (l *Libsd) IdleZCPools() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.zcIdle)
}

// ParkedQPs reports how many QPs of finished connections are parked.
func (l *Libsd) ParkedQPs() int {
	l.mu.Lock()
	defer l.mu.Unlock()
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

// ErrorParkedQPs moves every parked QP to the error state, as a NIC event
// between two connections would.
func (l *Libsd) ErrorParkedQPs() {
	l.mu.Lock()
	defer l.mu.Unlock()
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
	s.lib.enter()
	defer s.lib.leave()
	if err := s.acquireToken(ctx, t, DirSend); err != nil {
		return err
	}
	ids, err := s.lib.P.AS.PagesForSend(ctx, addr, whole)
	if err != nil {
		return err
	}
	obf := make([]mem.ObfPageID, len(ids))
	for i, id := range ids {
		obf[i] = s.lib.H.Mem.Obfuscate(id)
	}
	return s.sendMsg(ctx, MZC, encodeZCIntra(whole+tail, obf), nil)
}
