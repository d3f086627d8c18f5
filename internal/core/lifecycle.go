package core

import (
	"socksdirect/internal/exec"
	"socksdirect/internal/rdma"
	"socksdirect/internal/shm"
	"socksdirect/internal/telemetry"
)

// Connection lifecycle: what a closed connection gives back, and when.
//
// The paper's close is a reference-counted handshake that frees the queue
// (§4.5.4), and its RDMA zero copy runs on a managed pinned page pool
// (§4.3). A connection is finished once the last FD reference on BOTH
// sides has closed: each side latches SideState.Closed after its MShut went
// out, and whoever observes the second latch releases what the connection
// owns —
//
//   - intra-host: the two processes share one IntraSock, so the second
//     closer sees the first one's latch directly. It removes the
//     intra-<id> segment and hands both rings back to the host's recycle
//     list (shm.Registry.PutRing scrubs them).
//   - inter-host: each host releases its own half — rings, the rx/credit/
//     tail MRs, every QP spliced to the side, the Libsd.eps entries, the
//     sock-<id> segment and the pinned zero-copy pool — once its side is
//     closed, the peer's MShut has arrived (an application Recv saw it, or
//     reap found it in the RX ring after the application stopped reading)
//     and the QP's send queue has drained, so the peer NIC holds our MShut
//     too. Completions drive the check, so it needs no thread of its own.
//
// Release costs no simulated time and sends nothing. The monitor learns of
// it through ConnClosed, a note it applies to its records off the dispatch
// path.
//
// Only clean endpoints are recycled: a ring or pool that saw a crashed
// peer, a failed or recovering QP, a TCP-degraded stream, a second process
// (fork, migration) or a rebuilt accept is dropped to the garbage
// collector instead — some actor may still hold a stale view of it.
//
// The QP of a clean inter-host side is not closed but parked, still
// connected to its twin, which the peer process parks when its side is
// released. The next dial between the two processes takes it instead of
// creating one (parkQP, takeParked; ARCHITECTURE.md "Connection lifecycle"
// has the offer in the SYN and why nothing stale can arrive on the pair).

var (
	mConnReclaims = telemetry.C(telemetry.CoreConnReclaims)
	mParkHits     = telemetry.C(telemetry.CoreQPParkHits)
	mParkMisses   = telemetry.C(telemetry.CoreQPParkMisses)
	mQPsParked    = telemetry.G(telemetry.CoreQPsParked)
)

// maxIdleZCPools bounds the per-process list of recycled zero-copy pools,
// maxParkedQPs that of parked QPs.
const (
	maxIdleZCPools = 8
	maxParkedQPs   = 8
)

// parkedQP is a QP in RTS with nothing unacknowledged, and the process that
// holds the QP it is connected to, as the monitors named it when the pair
// was formed.
type parkedQP struct {
	qp      *rdma.QP
	peerPID int64
}

// parkQP keeps the QP of a clean side for a later connection to the same
// process. Everything it posted has been acknowledged, which on a reliable
// connection means placed, so once both twins are parked the pair is silent.
// A full list closes its oldest QP: its twin may have gone to another peer
// long ago. It reports false for a QP that has to be closed instead.
func (l *Libsd) parkQP(ep *rdmaEP) bool {
	if l.P.Dead() || ep.qp.State() != rdma.QPRTS || ep.qp.SendPending() != 0 {
		return false
	}
	var oldest *rdma.QP
	l.mu.Lock()
	if len(l.parked) == maxParkedQPs {
		oldest = l.parked[0].qp
		l.parked = l.parked[:copy(l.parked, l.parked[1:])]
	}
	l.parked = append(l.parked, parkedQP{ep.qp, ep.peerPID})
	l.mu.Unlock()
	if oldest != nil {
		oldest.Close()
	} else {
		mQPsParked.Add(1)
	}
	return true
}

// takeParked hands out the newest parked QP connected to host — and, where
// given, to that process there, or with that QPN to exactly that QPN there.
// A parked QP may have been errored since (fault injection, a NIC event): it
// is closed, never handed out.
func (l *Libsd) takeParked(host string, pid int64, qpn, peerQPN uint32) (got *rdma.QP) {
	var errored []*rdma.QP
	l.mu.Lock()
	for i := len(l.parked) - 1; i >= 0 && got == nil; i-- {
		p := l.parked[i]
		h, q := p.qp.Peer()
		if host != "" && h != host || pid != 0 && p.peerPID != pid ||
			qpn != 0 && (p.qp.QPN() != qpn || q != peerQPN) {
			continue
		}
		l.parked = append(l.parked[:i], l.parked[i+1:]...)
		mQPsParked.Add(-1)
		if p.qp.State() == rdma.QPRTS {
			got = p.qp
		} else {
			errored = append(errored, p.qp)
		}
	}
	l.mu.Unlock()
	for _, qp := range errored {
		qp.Close() // outside mu: a flush completion would pump the CQs
	}
	return got
}

// closeParked closes the parked QPs whose twin is on host ("": any) and, if
// pid is given, in that process: it died, and the twins with it.
func (l *Libsd) closeParked(host string, pid int64) {
	for qp := l.takeParked(host, pid, 0, 0); qp != nil; qp = l.takeParked(host, pid, 0, 0) {
		qp.Close()
	}
}

// closedEP is what a closed Socket points at: every operation finds nothing
// to do, so a use-after-close can never reach rings that were re-issued to
// another connection.
type closedEP struct{}

func (closedEP) trySend(exec.Context, uint8, []byte, []byte) bool { return false }
func (closedEP) tryRecv(exec.Context) (shm.Msg, bool)             { return shm.Msg{}, false }
func (closedEP) canRecv() bool                                    { return false }
func (closedEP) kick(exec.Context)                                {}
func (closedEP) peerAlive() bool                                  { return true }
func (closedEP) progress(exec.Context)                            {}

// connNoter is the monitor's intake for released connections (structural,
// like registrar, to avoid an import cycle).
type connNoter interface{ ConnClosed(qid uint64) }

func (l *Libsd) noteClosed(qid uint64) {
	if n, ok := l.H.Mon.(connNoter); ok {
		n.ConnClosed(qid)
	}
}

// sideClosed runs when the last FD reference on s's side has closed and
// its MShut is out: latch the side and release the connection if this was
// the second latch, or if the peer can never produce one.
func (l *Libsd) sideClosed(s *Socket) {
	side := s.side
	// The sdstat row outlives the rings its probe reads.
	s.flow.Freeze(int64(side.TX.OccHW()), l.monEpoch.Load())
	crashed := s.peerGone()
	s.ep = closedEP{}
	side.Closed.Store(true)
	if is := s.intra; is != nil {
		if is.Peer(side).Closed.Load() || crashed {
			l.releaseIntra(is, s.shmTok, !crashed)
		}
		return
	}
	l.mu.Lock()
	l.closing[side.QID] = side
	l.mu.Unlock()
	l.tryReleaseInter(side)
}

// releaseIntra gives back an intra-host connection: the segment always,
// the rings only when both sides closed in good order.
func (l *Libsd) releaseIntra(is *IntraSock, tok uint64, clean bool) {
	if !is.released.CompareAndSwap(false, true) {
		return
	}
	l.H.SHM.Remove(shm.Token(tok))
	if clean {
		l.H.SHM.PutRing(is.D.AtoB)
		l.H.SHM.PutRing(is.D.BtoA)
		// A stray user faults instead of sharing a ring.
		is.D.AtoB, is.D.BtoA = nil, nil
		is.A.TX, is.A.RX, is.B.TX, is.B.RX = nil, nil, nil, nil
	}
	l.noteClosed(is.QID)
	mConnReclaims.Inc()
}

// ReclaimIfClosed is crash cleanup's half of the release handshake: the
// peer of side idx (0 = connecting side) died. If that side had already
// closed, its process will never look at the connection again, so the
// monitor must reclaim the segment; true hands it that job, exactly once.
func (is *IntraSock) ReclaimIfClosed(idx int) bool {
	side := is.A
	if idx != 0 {
		side = is.B
	}
	return side.Closed.Load() && is.released.CompareAndSwap(false, true)
}

// reap consumes what the peer sent to a side the application has stopped
// reading, looking for the peer's MShut. Bulk credits keep flowing, so a
// peer still pushing data at a closed socket drains into the void and
// reaches its own close instead of blocking on a full ring; the empty-ring
// credit flush is never reached (CanRecv first), so a close adds no packet
// to the wire. Caller holds resMu.
func reap(side *SideState) {
	for !side.PeerShut.Load() && side.RX.CanRecv() {
		if msg, ok := side.RX.TryRecv(); ok && msg.Type == MShut {
			side.PeerShut.Store(true)
		}
	}
}

// tryReleaseInter releases a closed inter-host side once nothing can still
// need it. It is called wherever one of the conditions may have turned: the
// close itself, every completion on the side's QPs, and the monitor's death
// notice for its peer.
func (l *Libsd) tryReleaseInter(side *SideState) {
	side.resMu.Lock()
	if side.released.Load() {
		side.resMu.Unlock()
		return
	}
	var cur *rdmaEP
	if n := len(side.eps); n > 0 {
		cur = side.eps[n-1]
	}
	// A side whose transport is gone cannot finish the handshake; neither
	// can one whose peer died. Both release at once, and drop.
	broken := cur == nil || cur.failed.Load() || side.Degraded.Load() || side.PeerReset.Load()
	done := false
	if !broken {
		reap(side)
		done = side.PeerShut.Load() &&
			side.TxFlushed.Load() == side.TX.WriteCursor() && cur.qp.SendPending() == 0
	}
	clean := done && len(side.eps) == 1 && cur.lib == l
	side.resMu.Unlock()
	if broken || done {
		if l.releaseInter(side, clean) {
			l.noteClosed(side.QID)
		}
	}
}

// releaseInter gives back everything an inter-host side owns on this host.
// Clean sides recycle their rings and pinned pool; the rest is dropped. It
// reports whether this call did the release (false: someone else had).
func (l *Libsd) releaseInter(side *SideState, clean bool) bool {
	if !side.released.CompareAndSwap(false, true) {
		return false
	}
	side.resMu.Lock()
	eps, mrs := side.eps, side.mrs
	side.eps, side.mrs = nil, nil
	side.resMu.Unlock()
	// Out of the dispatch tables first: closing a QP flushes its work
	// requests, and those completions must find no endpoint.
	for _, ep := range eps {
		ep.lib.unregisterEP(ep)
	}
	l.mu.Lock()
	delete(l.closing, side.QID)
	l.mu.Unlock()
	for _, ep := range eps {
		if clean && l.parkQP(ep) {
			continue // clean: the side's only endpoint, healthy, built here
		}
		ep.qp.Close()
		ep.rec.mu.Lock()
		if ep.rec.qp != nil { // a recovery attempt's replacement, not yet spliced
			ep.rec.qp.Close()
			ep.rec.qp = nil
		}
		ep.rec.mu.Unlock()
	}
	for _, mr := range mrs {
		mr.Deregister()
	}
	l.H.SHM.Remove(side.segTok)
	side.creditEP.Store(nil)
	pool := side.LocalPool
	side.LocalPool = nil
	switch {
	case clean:
		l.H.SHM.PutRing(side.TX)
		l.H.SHM.PutRing(side.RX)
		side.TX, side.RX = nil, nil // a stray user faults instead of sharing a ring
		if pool != nil {
			l.putZCPool(pool) // clean implies this process built the side, so the pool is its own
		}
	case pool != nil:
		pool.drop(l)
	}
	mConnReclaims.Inc()
	return true
}

// getZCPool takes a pinned pool off the process's recycle list, building a
// fresh one (frames, pin, MR) only when the list is empty. A recycled
// pool's frames never stopped being pinned, so handing it out costs nothing.
func (l *Libsd) getZCPool(ctx exec.Context) (*zcPool, error) {
	l.mu.Lock()
	if n := len(l.zcIdle); n > 0 {
		p := l.zcIdle[n-1]
		l.zcIdle[n-1] = nil
		l.zcIdle = l.zcIdle[:n-1]
		l.mu.Unlock()
		return p, nil
	}
	l.mu.Unlock()
	return newZCPool(ctx, l.P, l.pd)
}

func (l *Libsd) putZCPool(p *zcPool) {
	l.mu.Lock()
	keep := len(l.zcIdle) < maxIdleZCPools
	if keep {
		l.zcIdle = append(l.zcIdle, p)
	}
	l.mu.Unlock()
	if !keep {
		p.drop(l)
	}
}

// drop retires a pool for good: the MR goes, the frames are unpinned and
// returned to their address space.
func (p *zcPool) drop(l *Libsd) {
	p.mr.Deregister()
	l.H.Mem.Unpin(p.ids)
	l.H.Mem.Unref(p.ids)
}
