package core

import (
	"sort"

	"socksdirect/internal/ctlmsg"
)

// Re-registration: the libsd half of monitor state resurrection. A
// restarted monitor adopts this process's control queue and sends one
// KReRegister; the process answers with a replay of everything the dead
// incarnation knew about it — live listeners, established connections,
// inter-host sides closed here and awaiting their peer, in-flight
// connects — as a stream of KReRegistered records closed by a
// ReRegDone. The report describes only durable state the process itself
// owns (SHM-resident rings, FD tables), so it can be regenerated on every
// restart, and every record is idempotent at the monitor. Tokens are not
// reported: who holds one is in the SHM holder words, and the arbitration
// queues refill from the waiters' own re-sent requests.
func (l *Libsd) reRegisterReport() {
	type listenRec struct {
		port uint16
		tid  int
	}
	type connRec struct {
		qid     uint64
		sideIdx uint16
		peer    string
		shmTok  uint64
	}
	listens := make([]listenRec, 0, len(l.backlogs))
	for key, bl := range l.backlogs {
		if bl.bindStatus == 1 {
			listens = append(listens, listenRec{port: key.port, tid: key.tid})
		}
	}
	conns := make([]connRec, 0, len(l.socks))
	for qid, s := range l.socks { // one socket per queue describes the whole registration
		cr := connRec{qid: qid, sideIdx: s.sideIdx, peer: s.side.PeerHost}
		if s.intra != nil {
			cr.shmTok = uint64(s.intra.Tok)
		}
		conns = append(conns, cr)
	}
	for qid, side := range l.closing { // its peer's death notice must still find it
		conns = append(conns, connRec{qid: qid, peer: side.PeerHost})
	}
	pends := make([]uint64, 0, len(l.pending))
	for connID, pc := range l.pending {
		if pc.status == 0 {
			pends = append(pends, connID)
		}
	}
	// Deterministic replay order (maps iterate randomly).
	sort.Slice(listens, func(i, j int) bool {
		if listens[i].port != listens[j].port {
			return listens[i].port < listens[j].port
		}
		return listens[i].tid < listens[j].tid
	})
	sort.Slice(conns, func(i, j int) bool { return conns[i].qid < conns[j].qid })
	sort.Slice(pends, func(i, j int) bool { return pends[i] < pends[j] })

	pid := int64(l.P.PID)
	for _, lr := range listens {
		r := ctlmsg.Msg{Kind: ctlmsg.KReRegistered, Aux: ctlmsg.ReRegListen,
			Port: lr.port, PID: pid, TID: int64(lr.tid)}
		l.sendCtl(&r)
	}
	for _, cr := range conns {
		r := ctlmsg.Msg{Kind: ctlmsg.KReRegistered, Aux: ctlmsg.ReRegConn,
			QID: cr.qid, PID: pid, Dir: uint8(cr.sideIdx), ShmToken: cr.shmTok}
		r.SetHost(cr.peer) // "" for intra-host
		l.sendCtl(&r)
	}
	for _, connID := range pends {
		r := ctlmsg.Msg{Kind: ctlmsg.KReRegistered, Aux: ctlmsg.ReRegPend,
			ConnID: connID, PID: pid}
		l.sendCtl(&r)
	}
	done := ctlmsg.Msg{Kind: ctlmsg.KReRegistered, Aux: ctlmsg.ReRegDone, PID: pid}
	l.sendCtl(&done)
}
