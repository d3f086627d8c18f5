package monitor

import (
	"sort"

	"socksdirect/internal/core"
	"socksdirect/internal/ctlmsg"
	"socksdirect/internal/exec"
	"socksdirect/internal/monitor/shard"
	"socksdirect/internal/obs"
	"socksdirect/internal/telemetry"
)

// The monitor's dispatch plane is sharded (see internal/monitor/shard for
// the partitioning function and its rationale). Each shard owns a slice of
// the control-plane state — bind tables, token queues, connection records,
// sleep notes — keyed so that every message's handler touches only maps
// belonging to the shard the message routed to, and runs its own dispatch
// loop over its own per-process SHM duplex. A thin router thread keeps the
// work that is global by nature: monitor-to-monitor channels (whose
// arrivals it forwards to the owning shard's inbox), kernel listeners,
// probe resolution, crash cleanup, restart re-registration, and
// heartbeats.
//
// All shards share the one monitor mutex. That is deliberate: the
// original single-threaded daemon held m.mu only for map access and never
// yielded under it, so the lock was never the bottleneck — the serial
// dispatch loop was. Sharding parallelizes the loops (ring drain, message
// decode, handler execution, reply enqueue all overlap across shards)
// while the shared mutex keeps the rare cross-shard reads — a connect on
// one shard picking a listener whose port lives on another — as cheap and
// race-free as they were in the single-loop design.

// mshard is one shard of the monitor's control plane: a partition of the
// state maps plus the dispatch loop that serves it. All state fields are
// guarded by the owning Monitor's mu.
type mshard struct {
	m   *Monitor
	idx int

	// Partitioned state. Which map a key lands in is decided by
	// shard.Of/OfPort/OfPID of that key, so one key's entire history is
	// served by one loop (per-key FIFO, as §4.1.1's token queue needs).
	listeners  map[uint16][]listenerRef   // port -> registered listener threads
	rrIdx      map[uint16]int             // port -> round-robin cursor (§4.5.2)
	tokens     map[tokKey]*tokState       // token arbitration queues (§4.1.1)
	connOwner  map[uint64]int             // qid -> local owner pid
	remotePend map[uint64]remotePendEntry // connID -> inter-host setup routing
	reqpRoute  map[uint64]string          // qid -> requester host for KReQPRes
	sleepers   map[int]map[int]struct{}   // pid -> tids parked in interrupt mode
	steals     map[uint64]stealReq        // in-flight work-steal requests
	stealSeq   uint64
	conns      map[uint64]*connRec // qid -> endpoints, for crash cleanup

	// blUsed counts dispatched-but-not-yet-accepted connections per
	// listener (the monitor-side backlog occupancy, lives on the port's
	// shard like the listener table). When ListenerBacklogCap > 0,
	// pickListener skips listeners at the cap and refuses the SYN with
	// StatusBacklogFull once every listener for the port is full.
	blUsed map[blKey]int

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

// blKey identifies one listener's backlog occupancy row: the port plus
// the registered (pid, tid) of the listening thread.
type blKey struct {
	port uint16
	pid  int
	tid  int
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
		listeners:  make(map[uint16][]listenerRef),
		rrIdx:      make(map[uint16]int),
		tokens:     make(map[tokKey]*tokState),
		connOwner:  make(map[uint64]int),
		remotePend: make(map[uint64]remotePendEntry),
		reqpRoute:  make(map[uint64]string),
		sleepers:   make(map[int]map[int]struct{}),
		steals:     make(map[uint64]stealReq),
		conns:      make(map[uint64]*connRec),
		blUsed:     make(map[blKey]int),
		dDispatch:  telemetry.D(telemetry.MonShardDispatch(idx)),
		cEvents:    telemetry.C(telemetry.MonShardEvents(idx)),
		cInboxShed: telemetry.C(telemetry.MonShardInboxShed(idx)),
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

// shardOfPID returns the shard owning a process's PID-keyed state.
func (m *Monitor) shardOfPID(pid int) *mshard {
	return m.shards[shard.OfPID(int64(pid), len(m.shards))]
}

// shardFor returns the shard a control message routes to.
func (m *Monitor) shardFor(cm *ctlmsg.Msg) *mshard {
	return m.shards[shard.ForMsg(cm, len(m.shards))]
}

func (sh *mshard) wake() {
	if sh.thread != nil {
		sh.thread.Unpark()
	}
}

// run is one shard's dispatch loop: drain the inbox the router feeds,
// then drain this shard's plane of every process's control duplex. The
// spin/park protocol mirrors the router's — hot-spin briefly after real
// traffic, then park until a control-plane sender (libsd's per-shard
// doorbell) or the router nudges this shard awake.
func (sh *mshard) run(ctx exec.Context) {
	m := sh.m
	idle := 0
	// Snapshot scratch, reused across iterations (see Monitor.run).
	var chans []*procChan
	var events []shardEvent
	for {
		m.mu.Lock()
		if m.stopped {
			m.mu.Unlock()
			return
		}
		// procList, not the procs map: PID order keeps the duplex service
		// order — and with it every virtual timestamp — reproducible.
		chans = append(chans[:0], m.procList...)
		events = append(events[:0], sh.inbox...)
		sh.inbox = sh.inbox[:0]
		sh.reclaimClosedLocked()
		m.mu.Unlock()

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
			m.handleRemote(ctx, sh, ev.mc, &cm)
		}
		for _, pc := range chans {
			rx := pc.ds[sh.idx].B().RX
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
				m.handle(ctx, sh, pc, &cm)
			}
		}
		if progress {
			// Everything a shard handles is real control traffic
			// (heartbeats never leave the router), so it re-opens the
			// traffic-gated heartbeat window.
			m.mu.Lock()
			m.lastActivity = ctx.Now()
			m.mu.Unlock()
			idle = 0
			continue
		}
		idle++
		if idle < 256 {
			ctx.Charge(m.H.Costs.RingOp)
			idle += ctx.Spin(m.H.Costs.RingOp, 0, 255-idle, (*shardIdler)(sh))
			continue
		}
		ctx.Park() // woken by libsd's per-shard doorbell or the router
		idle = 255
	}
}

// shardIdler is the shard as idle predicate of its loop: the daemon runs,
// inbox and closed list are empty, and no process has a message (or a
// credit to take back) on this shard's plane.
type shardIdler mshard

func (i *shardIdler) Idle(int64) bool {
	sh := (*mshard)(i)
	m := sh.m
	if !m.mu.TryLock() {
		return false
	}
	defer m.mu.Unlock()
	if m.stopped || len(sh.inbox)+len(sh.closed) > 0 {
		return false
	}
	for _, pc := range m.procList {
		if !pc.ds[sh.idx].B().RX.RecvIdle() {
			return false
		}
	}
	return true
}

// reclaimClosedLocked drops every record of the connections queued by
// ConnClosed. A connection still counted against a listener's backlog (it
// was closed before its KAcceptDone was handled) gives the slot back here;
// the late KAcceptDone then finds no record and does nothing. Caller holds
// m.mu.
func (sh *mshard) reclaimClosedLocked() {
	for _, qid := range sh.closed {
		if c := sh.conns[qid]; c != nil && c.queued {
			sh.m.releaseBacklogSlotLocked(c.lport, c.lref)
		}
		delete(sh.conns, qid)
		delete(sh.connOwner, qid)
		delete(sh.remotePend, qid)
		delete(sh.reqpRoute, qid)
		for _, dir := range [2]uint8{core.DirSend, core.DirRecv} {
			delete(sh.tokens, tokKey{qid: qid, dir: dir, side: 0})
			delete(sh.tokens, tokKey{qid: qid, dir: dir, side: 1})
		}
	}
	sh.closed = sh.closed[:0]
}

// sweepHostDead resets this shard's connections toward a confirmed-dead
// host: the shard-local half of hostDead's fan-out. Each shard deletes
// only records it owns and notifies only their owners, so across shards
// every affected connection is reset exactly once.
func (sh *mshard) sweepHostDead(ctx exec.Context, peer string) {
	type note struct {
		qid   uint64
		owner int
	}
	m := sh.m
	m.mu.Lock()
	sh.hostDeadSweeps++
	var notes []note
	for qid, c := range sh.conns {
		if c.peerHost != peer {
			continue
		}
		owner := sh.connOwner[qid]
		delete(sh.conns, qid)
		delete(sh.connOwner, qid)
		delete(sh.remotePend, qid)
		if owner != 0 {
			notes = append(notes, note{qid: qid, owner: owner})
		}
	}
	m.mu.Unlock()
	sort.Slice(notes, func(i, j int) bool { return notes[i].qid < notes[j].qid })
	sh.cEvents.Inc()
	if telemetry.Trace.Enabled() {
		telemetry.Trace.Emit(ctx.Now(), "monitor", "host_dead_sweep",
			telemetry.A("conns_reset", int64(len(notes))))
	}
	for _, n := range notes {
		pd := ctlmsg.Msg{Kind: ctlmsg.KPeerDead, QID: n.qid}
		pd.SetHost(peer)
		m.sendTo(ctx, n.owner, &pd, true)
		m.wakeSleepers(n.owner)
	}
}
