package monitor

import (
	"fmt"
	"slices"
	"sort"

	"socksdirect/internal/ctlmsg"
	"socksdirect/internal/exec"
	"socksdirect/internal/monitor/shard"
	"socksdirect/internal/obs"
	"socksdirect/internal/shm"
	"socksdirect/internal/telemetry"
)

// The monitor's dispatch plane is sharded (see internal/monitor/shard for
// the partitioning function and its rationale). Each shard owns a slice of
// the control-plane state — one record per port, one per connection, steals
// in flight — keyed so that every message's handler touches
// only records belonging to the shard the message routed to, and runs its
// own dispatch loop over its own per-process SHM duplex. A thin router
// thread keeps the work that is global by nature: monitor-to-monitor
// channels (whose arrivals it forwards to the owning shard's inbox), kernel
// listeners, probe resolution, crash cleanup, restart re-registration, and
// heartbeats.
//
// The shards take no lock: every loop runs inside its host's Sim, which
// runs one thread at a time. Sharding parallelizes the loops in virtual
// time (ring drain, message decode, handler execution, reply enqueue all
// overlap across the shards' cores), while the rare cross-shard reads — a
// connect on one shard picking a listener whose port lives on another —
// stay as cheap as they were in the single-loop design.
//
// The shards earn their keep on virtual time (EXPERIMENTS.md "One loop or
// four"): with one loop `sdbench connscale` falls from 1 554 164 to 429 184
// conn/s. A loop parks after its first empty pass (run), so four cost a dial
// no more host time than one.

// mshard is one shard of the monitor's control plane: a partition of the
// records plus the dispatch loop that serves it.
type mshard struct {
	m   *Monitor
	idx int

	// Partitioned state. Which shard a key lands in is decided by
	// shard.Of/OfPort/OfPID of that key, so one key's entire history is
	// served by one loop (per-key FIFO, as §4.1.1's token queue needs).
	ports    map[uint16]*portRec // port -> listeners, their backlogs, the cursor
	conns    map[uint64]*connRec // qid -> everything known about the connection
	freeRecs []*connRec          // dropped records, blank, for conn to reuse
	steals   map[uint64]stealReq // in-flight work-steal requests
	stealSeq uint64

	// closed lists connections libsd released (Monitor.ConnClosed) whose
	// records this shard has yet to drop.
	closed []uint64

	// inbox carries router-routed work: mchan arrivals owned by this
	// shard, and host-death sweep events (one per shard per confirmed
	// death, so each shard resets exactly its own connections).
	inbox []shardEvent

	// hostDeadSweeps counts executed host-death sweep events; the
	// exactly-once-per-shard fan-out invariant is asserted against it.
	hostDeadSweeps int

	thread exec.Thread

	dDispatch  *telemetry.Distribution // MonShardDispatch(idx)
	cEvents    *telemetry.Counter      // MonShardEvents(idx)
	cInboxShed *telemetry.Counter      // MonShardInboxShed(idx)
}

// portRec is everything the port's shard knows about one port: the listener
// threads registered on it and the round-robin cursor of §4.5.2. It outlives
// its last listener — the cursor carries over to the next one.
type portRec struct {
	refs []listenerSlot
	rr   int
}

// listenerSlot is one registered listener thread and its backlog occupancy:
// the connections dispatched to it but not yet accepted. When the host's
// Limits.Backlog > 0, pickListener skips listeners at the cap and refuses
// the SYN with StatusBacklogFull once every listener for the port is full.
// The count goes with the registration.
type listenerSlot struct {
	listenerRef
	used int
}

func (p *portRec) slot(ref listenerRef) *listenerSlot {
	if p != nil {
		for i := range p.refs {
			if p.refs[i].listenerRef == ref {
				return &p.refs[i]
			}
		}
	}
	return nil
}

// connRec is everything the connection's shard knows about one connection
// ID. The record is made at the first mention of the ID — a SYN, a connect,
// a takeover, a re-registration record, a migrated socket's splice — and
// lives until the last local endpoint ends: mshard.dropConn is the one place
// it is removed. Word of a remote death (KPeerDead) clears peerHost and
// leaves the record to its local owner's close or death.
type connRec struct {
	// pids are the endpoints: both for an intra-host socket, one local pid
	// plus the remote host for an inter-host one. In a dial phase pids[0] is
	// the dialer; a takeover puts no endpoint on record.
	pids     [2]int // [client, listener]; 0 = not local
	peerHost string // "" = intra-host, or the remote end was reported dead
	shmTok   shm.Token

	// Backlog accounting (overload admission): which listener the dispatch
	// landed on; it occupies a slot of that backlog while the record is
	// queued. A steal moves lref to the thief.
	lref  listenerRef
	lport uint16
	phase phase

	// tok are the token arbitration queues (§4.1.1), by tokKey.idx: only a
	// contested connection needs them, so they are made on first use and
	// kept, blank, with the record. In it, every record would be 232 B, not 72.
	tok *[4]tokState
}

// phase is where a record is in its life on this host, written only by
// advance. From pending on, the record's endpoints are in pids; from
// dialing on, a re-sent connect or SYN for the ID is a duplicate. A peer's
// death is not a phase: it can land in any of them, and clears peerHost.
type phase uint8

const (
	bare     phase = iota // just made, or a takeover's token queues only
	pending               // a dial a restarted monitor heard of (ReRegPend): pids[0] awaits KConnectRes
	dialing               // connectRemote: pids[0] awaits KConnectRes, relayed from peerHost's KMSynAck
	refused               // KMRefused: the dialer was told, and holds the socket until it gives it up
	queued                // dispatched (intra, or KMSyn): the connection holds a slot of lref's backlog
	accepted              // KAcceptDone: out of the backlog, its slot given back
	adopted               // heard of after its set-up: a re-registration report, a migrated socket's splice
)

// phaseNext is the table of legal moves: the phases each phase may advance
// to, as 1<<phase bits.
var phaseNext = [adopted + 1]uint8{
	bare:    1<<pending | 1<<dialing | 1<<queued | 1<<adopted,
	pending: 1<<dialing | 1<<refused | 1<<queued,
	dialing: 1<<dialing | 1<<refused,
	queued:  1 << accepted,
}

// advance moves the record to phase to. It is the phase's one writer; a
// move phaseNext does not allow is a monitor bug, and the record is left as
// it was.
func (c *connRec) advance(to phase) {
	if phaseNext[c.phase]&(1<<to) == 0 {
		panic(fmt.Sprintf("monitor: connection record cannot move from phase %d to %d", c.phase, to))
	}
	c.phase = to
}

// dialer is the pid awaiting the answer to the record's dial: 0 if none.
func (c *connRec) dialer() int {
	if c != nil && (c.phase == pending || c.phase == dialing) {
		return c.pids[0]
	}
	return 0
}

// owner is the local pid that peer deaths, QP splices and rescues go to:
// the local endpoint of an inter-host connection whose remote end lives.
// 0 = none, or no record.
func (c *connRec) owner() int {
	if c == nil || c.peerHost == "" {
		return 0
	}
	return max(c.pids[0], c.pids[1])
}

// awaited lists the pids that wait for something through the record: the
// answer to a dial, a token grant, a revoked token's return.
func (c *connRec) awaited() (pids []int) {
	if d := c.dialer(); d != 0 {
		pids = append(pids, d)
	}
	if c.tok != nil {
		for _, ts := range c.tok {
			for _, w := range ts.waiters {
				pids = append(pids, w.pid)
			}
			if ts.revokeSent {
				pids = append(pids, ts.revokeTo)
			}
		}
	}
	return pids
}

// forget strips a dead pid from the token waiting lists (a dead dialer is an
// endpoint, whose record cleanupProcess drops). A revoke outstanding to the
// corpse is answered on its behalf: the token is appended to regrant if
// somebody waits for it.
func (c *connRec) forget(pid int, qid uint64, regrant []tokKey) []tokKey {
	if c.tok == nil {
		return regrant
	}
	for i := range c.tok {
		ts := &c.tok[i]
		ts.waiters = slices.DeleteFunc(ts.waiters, func(w waiterRef) bool { return w.pid == pid })
		if ts.revokeSent && ts.revokeTo == pid {
			ts.revokeSent, ts.revokeTo = false, 0
			if len(ts.waiters) > 0 {
				regrant = append(regrant, tokKey{qid: qid, dir: uint8(i / 2), side: uint16(i % 2)})
			}
		}
	}
	return regrant
}

// tok returns one token's arbitration queue, nil if the shard holds none
// for it.
func (sh *mshard) tok(key tokKey) *tokState {
	if c := sh.conns[key.qid]; c != nil && c.tok != nil {
		return &c.tok[key.idx()]
	}
	return nil
}

// shardEvent is one unit of router->shard work. Exactly one of the two
// forms is set: a routed control message (cm, with mc naming the channel
// it arrived on), or a host-death sweep (deadHost != "").
type shardEvent struct {
	cm       ctlmsg.Msg
	mc       *mchan
	deadHost string
}

func newShard(m *Monitor, idx int) *mshard {
	return &mshard{
		m:          m,
		idx:        idx,
		ports:      make(map[uint16]*portRec),
		conns:      make(map[uint64]*connRec),
		steals:     make(map[uint64]stealReq),
		dDispatch:  telemetry.D(telemetry.MonShardDispatch(idx)),
		cEvents:    telemetry.C(telemetry.MonShardEvents(idx)),
		cInboxShed: telemetry.C(telemetry.MonShardInboxShed(idx)),
	}
}

// conn returns the record of connection qid, making it at this first
// mention: a record dropConn kept if there is one.
func (sh *mshard) conn(qid uint64) *connRec {
	c := sh.conns[qid]
	if c == nil {
		if n := len(sh.freeRecs); n > 0 {
			c = sh.freeRecs[n-1]
			sh.freeRecs = sh.freeRecs[:n-1]
		} else {
			c = &connRec{}
		}
		sh.conns[qid] = c
	}
	return c
}

// maxFreeRecs bounds a shard's list of dropped records: a crash cleanup
// that drops thousands keeps only this many for the dials after it.
const maxFreeRecs = 64

// dropConn removes everything the shard knows about connection qid; every
// path that ends the connection's last local endpoint comes here. A
// connection still counted against a listener's backlog (it ended before its
// KAcceptDone was handled) gives the slot back; the late KAcceptDone then
// finds no record. The record itself is blanked and kept for the next
// connection; no handler holds one across a drop.
func (sh *mshard) dropConn(qid uint64) {
	c := sh.conns[qid]
	if c == nil {
		return
	}
	if c.phase == queued {
		sh.m.releaseBacklogSlot(c.lport, c.lref)
	}
	delete(sh.conns, qid)
	if len(sh.freeRecs) < maxFreeRecs {
		if c.tok != nil {
			*c.tok = [4]tokState{}
		}
		*c = connRec{tok: c.tok}
		sh.freeRecs = append(sh.freeRecs, c)
	}
}

// shardOf returns the shard owning a 64-bit connection/queue ID.
func (m *Monitor) shardOf(key uint64) *mshard {
	return m.shards[shard.Of(key, len(m.shards))]
}

// shardOfPort returns the shard owning a port's listener state.
func (m *Monitor) shardOfPort(port uint16) *mshard {
	return m.shards[shard.OfPort(port, len(m.shards))]
}

// shardFor returns the shard a control message routes to.
func (m *Monitor) shardFor(cm *ctlmsg.Msg) *mshard {
	return m.shards[shard.ForMsg(cm, len(m.shards))]
}

func (sh *mshard) wake() {
	if sh.thread != (exec.Thread{}) {
		sh.thread.Unpark()
	}
}

// run is one shard's dispatch loop: drain the inbox the router feeds, the
// closed list, and this shard's plane of every process's control duplex,
// and park as soon as one full pass finds nothing (its empty TryRecvs have
// already taken back the rings' credit). Every producer of shard work rings
// the doorbell after queueing it — libsd's sendCtl, the router's inbox and
// host-death fan-out, ConnClosed, wakeAll — and an Unpark that lands while
// the loop runs leaves a permit, so no work waits for the next doorbell.
// The router loop (Monitor.run) parks the same way.
func (sh *mshard) run(ctx exec.Context) {
	m := sh.m
	// Snapshot scratch, reused across iterations (see Monitor.run).
	var chans []*procChan
	var events []shardEvent
	for {
		if m.stopped {
			return
		}
		// procList, not the procs map: PID order keeps the duplex service
		// order — and with it every virtual timestamp — reproducible.
		chans = append(chans[:0], m.procList...)
		events = append(events[:0], sh.inbox...)
		sh.inbox = sh.inbox[:0]
		sh.reclaimClosed()

		progress := false
		for i := range events {
			ev := &events[i]
			progress = true
			if ev.deadHost != "" {
				sh.sweepHostDead(ctx, ev.deadHost)
				continue
			}
			cm := ev.cm
			// Routing hop: router enqueue (cm.TS) to this shard's dequeue.
			cm.SpanID = obs.RecordHop(m.H.Name, 0, obs.HopShardDispatch,
				uint8(cm.Kind), cm.TraceID, cm.SpanID, cm.TS, ctx.Now())
			m.handle(ctx, sh, nil, ev.mc, &cm)
		}
		for _, pc := range chans {
			rx := pc.link.Ds[sh.idx].B().RX
			for i := 0; i < 64; i++ {
				msg, ok := rx.TryRecv()
				if !ok {
					break
				}
				ctx.Charge(m.H.Costs.RingOp)
				progress = true
				cm, ok2 := ctlmsg.Unmarshal(msg.Payload)
				if !ok2 {
					mBadCtlmsg.Inc()
					continue
				}
				if cm.Epoch != m.epoch {
					// Stamped against a previous incarnation: whatever it
					// asked for, it asked a daemon that no longer exists;
					// the sender re-stamps and re-sends on its bounded wait.
					mStaleDropped.Inc()
					continue
				}
				// Queue hop: sender enqueue (cm.TS) to this dequeue.
				cm.SpanID = obs.RecordHop(m.H.Name, 0, obs.HopProcRing,
					uint8(cm.Kind), cm.TraceID, cm.SpanID, cm.TS, ctx.Now())
				m.handle(ctx, sh, pc, nil, &cm)
			}
		}
		if progress {
			// Everything a shard handles is real control traffic
			// (heartbeats never leave the router), so it re-opens the
			// traffic-gated heartbeat window.
			m.lastActivity = ctx.Now()
			continue
		}
		ctx.Park()
	}
}

// reclaimClosed drops the records of the connections queued by
// ConnClosed.
func (sh *mshard) reclaimClosed() {
	for _, qid := range sh.closed {
		sh.dropConn(qid)
	}
	sh.closed = sh.closed[:0]
}

// sweepHostDead resets this shard's connections toward a confirmed-dead
// host: the shard-local half of hostDead's fan-out. Each shard drops
// only records it owns and notifies only their owners, so across shards
// every affected connection is reset exactly once.
func (sh *mshard) sweepHostDead(ctx exec.Context, peer string) {
	type note struct {
		qid   uint64
		owner int
	}
	m := sh.m
	sh.hostDeadSweeps++
	var notes []note
	for qid, c := range sh.conns {
		if c.peerHost != peer {
			continue
		}
		if owner := c.owner(); owner != 0 {
			notes = append(notes, note{qid: qid, owner: owner})
		}
		sh.dropConn(qid)
	}
	sort.Slice(notes, func(i, j int) bool { return notes[i].qid < notes[j].qid })
	sh.cEvents.Inc()
	obs.Emit(m.H.Name, 0, obs.EvHostDeadSweep, 0, ctx.Now(), int64(len(notes)), 0)
	for _, n := range notes {
		pd := ctlmsg.Msg{Kind: ctlmsg.KPeerDead, QID: n.qid}
		pd.SetHost(peer)
		m.sendTo(ctx, n.owner, &pd, true)
	}
}
