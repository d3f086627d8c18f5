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
// sides has closed: each side reaches the closed fact after its MShut went
// out, and whoever observes the second one releases what the connection
// owns —
//
//   - intra-host: the two processes share one IntraSock, so the second
//     closer sees the first one's latch directly. It removes the segment
//     and hands the IntraSock, rings and all, to the monitor's free list.
//   - inter-host: each host releases its own half — the rx and credit MRs,
//     every QP spliced to the side, the Libsd.eps entries, the segment, and
//     the interSide with its rings and pinned zero-copy pool, which goes to
//     its library's free list — once its side is
//     closed, the peer's MShut has arrived (an application Recv saw it, or
//     reap found it in the RX ring after the application stopped reading)
//     and the QP's send queue has drained, so the peer NIC holds our MShut
//     too. Completions drive the check, so it needs no thread of its own.
//
// Release costs no simulated time and sends nothing. The monitor learns of
// it through ConnClosed, a note it applies to its records off the dispatch
// path.
//
// Only clean endpoints are recycled: a socket that saw a crashed peer, a
// failed or recovering QP, a second process (fork, exec, migration), an
// abandoned dial that had reached the wire or a rebuilt accept is dropped
// to the garbage collector instead, its pool unpinned — some actor may
// still hold a stale view of it. A reused
// segment's Sockets move to their library's stand-in side and free list
// (detach), its rings are scrubbed at once, and its next builder scrubs the
// rest.
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
	mRingHits     = telemetry.C(telemetry.ShmRingPoolHits)
	mRingMisses   = telemetry.C(telemetry.ShmRingPoolMisses)
)

// maxParkedQPs bounds the per-process list of parked QPs, maxIdleSides that
// of interSides, maxIdleSocks that of Sockets.
const (
	maxParkedQPs = 8
	maxIdleSides = 8
	maxIdleSocks = 8
)

// reuseRings returns the rings a recycled socket carries, or two fresh ones
// when it carries none of capacity n.
func reuseRings(tx, rx *shm.Ring, n int) (*shm.Ring, *shm.Ring) {
	if tx == nil || tx.Cap() != n {
		mRingMisses.Add(2)
		return shm.NewRing(n), shm.NewRing(n)
	}
	mRingHits.Add(2)
	return tx, rx
}

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
	if len(l.parked) == maxParkedQPs {
		oldest = l.parked[0].qp
		l.parked = l.parked[:copy(l.parked, l.parked[1:])]
	}
	l.parked = append(l.parked, parkedQP{ep.qp, ep.peerPID})
	if oldest != nil {
		oldest.Close()
	} else {
		mQPsParked.Add(1)
	}
	return true
}

// takeParked hands out the newest parked QP connected to a host that isHost
// accepts — and, where given, to that process there, or with that QPN to
// exactly that QPN there. A parked QP may have been errored since (fault
// injection, a NIC event): it is closed, never handed out.
func (l *Libsd) takeParked(isHost func(string) bool, pid int64, qpn, peerQPN uint32) (got *rdma.QP) {
	var errored []*rdma.QP
	for i := len(l.parked) - 1; i >= 0 && got == nil; i-- {
		p := l.parked[i]
		h, q := p.qp.Peer()
		if !isHost(h) || pid != 0 && p.peerPID != pid ||
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
	for _, qp := range errored {
		qp.Close()
	}
	return got
}

// closeParked closes the parked QPs whose twin is on host ("": any) and, if
// pid is given, in that process: it died, and the twins with it.
func (l *Libsd) closeParked(host string, pid int64) {
	on := func(h string) bool { return host == "" || h == host }
	for qp := l.takeParked(on, pid, 0, 0); qp != nil; qp = l.takeParked(on, pid, 0, 0) {
		qp.Close()
	}
}

// Holdings is what a library holds for the census (internal/monitor):
// registered RDMA endpoints, closed inter-host sides awaiting their peer and
// dials awaiting their KConnectRes, then its recycle lists. Each idle side
// holds its pinned pool: ZCPoolPages frames and their MR.
type Holdings struct {
	Endpoints, Closing, Dials int
	IdleSides, ParkedQPs      int
}

// Holdings reports what l holds.
func (l *Libsd) Holdings() Holdings {
	return Holdings{len(l.eps), len(l.closing), len(l.pending), len(l.sideIdle), len(l.parked)}
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

// dropEP points s at closedEP and drops the bytes of a message no Recv
// finished, as close discards a receive queue. An inherited endpoint that
// has no QP yet is on no side's list (registerEP), so releaseInter never
// sees it: the QP of its splice attempt in flight is closed here.
func (s *Socket) dropEP() {
	if ep, ok := s.ep.(*rdmaEP); ok && ep.qp == nil && ep.rec.qp != nil {
		ep.rec.qp.Close()
		s.lib.dropReQP(s.side.QID, ep.rec.nonce)
	}
	s.ep, s.rxPending = closedEP{}, nil
}

// detach moves a closed Socket onto its library's stand-in side and, when
// no thread is inside an operation on it (a sibling of the closer may still
// wait in Recv, or for a token), onto its free list (newSocket): nothing
// else in the library reaches it any more. A Socket still in use is left to
// its threads, which find the stand-in's exits. Only a clean release
// detaches, and only the Socket its side names: a side a second process
// shares names none.
func (s *Socket) detach() {
	s.side, s.intra, s.intraEP = &s.lib.gone, nil, shmEP{}
	if s.inside == 0 {
		s.lib.sockIdle.Keep(s, maxIdleSocks)
	}
}

// connNoter is the monitor's intake for released connections and clean
// IntraSocks (structural, like registrar, to avoid an import cycle).
type connNoter interface {
	ConnClosed(qid uint64)
	KeepIntraSock(is *IntraSock)
}

func (l *Libsd) noteClosed(qid uint64) {
	if n, ok := l.H.Mon.(connNoter); ok {
		n.ConnClosed(qid)
	}
}

// sideClosed runs when the last FD reference on s's side has closed and
// its MShut is out: the side reaches closed, and the connection is released
// if the peer's side is closed too, or if it never can be.
func (l *Libsd) sideClosed(s *Socket) {
	side := s.side
	crashed := s.peerGone()
	s.dropEP()
	side.reach(closed)
	// The sdstat row outlives the rings its probe reads.
	s.freezeFlow()
	if is := s.intra; is != nil {
		if is.Peer(side).is(closed) || crashed {
			l.releaseIntra(is, !crashed)
		}
		return
	}
	l.closing[side.QID] = side
	l.tryReleaseInter(side)
}

// releaseIntra gives back an intra-host connection: the segment always,
// the IntraSock and its rings only when both sides closed in good order. The
// connection is released as one unit, so side A's released fact is its
// latch, for the last closer and the monitor's crash cleanup alike.
func (l *Libsd) releaseIntra(is *IntraSock, clean bool) {
	if !is.A.reach(released) {
		return
	}
	l.H.SHM.Remove(is.Tok)
	l.noteClosed(is.QID)
	if n, ok := l.H.Mon.(connNoter); ok && clean && is.A.sock != nil && is.B.sock != nil {
		is.A.sock.detach()
		is.B.sock.detach()
		is.A.TX.Reset()
		is.A.RX.Reset()
		n.KeepIntraSock(is)
	}
	mConnReclaims.Inc()
}

// ReclaimIfClosed is crash cleanup's half of the release handshake: the
// peer of side idx (0 = connecting side) died. If that side had already
// closed, its process will never look at the connection again, so the
// monitor must reclaim the segment; true hands it that job, exactly once.
func (is *IntraSock) ReclaimIfClosed(idx int) bool {
	side := &is.A
	if idx != 0 {
		side = &is.B
	}
	return side.is(closed) && is.A.reach(released)
}

// reap consumes what the peer sent to a side the application has stopped
// reading, looking for the peer's MShut. Bulk credits keep flowing, so a
// peer still pushing data at a closed socket drains into the void and
// reaches its own close instead of blocking on a full ring; the empty-ring
// credit flush is never reached (CanRecv first), so a close adds no packet
// to the wire.
func reap(side *SideState) {
	for !side.is(peerShut) && side.RX.CanRecv() {
		if msg, ok := side.RX.TryRecv(); ok && msg.Type == MShut {
			side.reach(peerShut)
		}
	}
}

// tryReleaseInter releases a closed inter-host side once nothing can still
// need it. It is called wherever one of the conditions may have turned: the
// close itself, every completion on the side's QPs, and the monitor's death
// notice for its peer.
func (l *Libsd) tryReleaseInter(side *SideState) {
	if side.is(released) {
		return
	}
	var cur *rdmaEP
	if n := len(side.eps); n > 0 {
		cur = side.eps[n-1]
	}
	// A side whose transport is gone cannot finish the handshake; neither
	// can one whose peer died. Both release at once, and drop.
	broken := cur == nil || cur.failed || side.is(peerReset)
	done := false
	if !broken {
		reap(side)
		done = side.is(peerShut) &&
			side.TxFlushed.Load() == side.TX.WriteCursor() && cur.qp.SendPending() == 0
	}
	clean := done && len(side.eps) == 1 && cur.lib == l
	if broken || done {
		if l.releaseInter(side, clean) {
			l.noteClosed(side.QID)
		}
	}
}

// releaseInter gives back everything an inter-host side owns on this host.
// A clean side goes back on the free list, rings and pinned pool with it;
// the rest is dropped. It reports whether this call did the release (false:
// someone else had).
func (l *Libsd) releaseInter(side *SideState, clean bool) bool {
	if !side.reach(released) {
		return false
	}
	eps, mrs := side.eps, side.mrs
	side.eps, side.mrs = nil, nil
	// Out of the dispatch tables first: closing a QP flushes its work
	// requests, and those completions must find no endpoint. The side is
	// off every closing table too: the process that closed it last need not
	// be the one whose completion releases it.
	for _, ep := range eps {
		ep.lib.unregisterEP(ep)
		delete(ep.lib.closing, side.QID)
	}
	delete(l.closing, side.QID)
	for _, ep := range eps {
		if clean && l.parkQP(ep) {
			continue // clean: the side's only endpoint, healthy, built here
		}
		ep.qp.Close()
		if ep.rec.qp != nil { // a recovery attempt's replacement, not yet spliced
			ep.rec.qp.Close()
			ep.rec.qp = nil
		}
	}
	for _, mr := range mrs {
		mr.Deregister()
	}
	l.H.SHM.Remove(side.segTok)
	side.creditEP = nil
	pool := side.LocalPool
	side.LocalPool = nil
	if clean && side.sock != nil {
		side.sock.detach()
	}
	// Clean implies this process built the side, so the pool is its own. A
	// side without a Socket is kept only if it never had an endpoint (an
	// abandoned dial): otherwise a second process inherited it and may
	// still hold it.
	if clean && (side.sock != nil || len(eps) == 0) && l.sideIdle.Keep(side.home, maxIdleSides) {
		side.TX.Reset()
		side.RX.Reset()
	} else if pool != nil {
		pool.drop()
	}
	mConnReclaims.Inc()
	return true
}

// drop retires a pool for good: the MR goes, the frames are unpinned and
// returned to their address space — on the host that built the pool, which a
// migrated socket's is not.
func (p *zcPool) drop() {
	p.mr.Deregister()
	p.pm.Unpin(p.ids)
	p.pm.Unref(p.ids)
}
