package monitor

import (
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
// the control-plane state — one record per port, one per connection, sleep
// notes, steals in flight — keyed so that every message's handler touches
// only records belonging to the shard the message routed to, and runs its
// own dispatch loop over its own per-process SHM duplex. A thin router
// thread keeps the work that is global by nature: monitor-to-monitor
// channels (whose arrivals it forwards to the owning shard's inbox), kernel
// listeners, probe resolution, crash cleanup, restart re-registration, and
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
//
// The verdict on the shards (ROADMAP 1(d), EXPERIMENTS.md "One loop or
// four"): with shard.DefaultCount = 1 and nothing else changed, `sdbench
// connscale` falls 1 554 164 -> 429 184 conn/s (one loop saturates at three
// events of ~780 sim-ns per connection) and cluster_dial's sim_p50_ns /
// sim_tail_ns rise 1.8 % / 2.7 %, while the host cost of a dial halves. They
// earn their keep on virtual time and stay; the mutex is synchronisation and
// stays. Why four mostly idle loops doubled a dial's host cost: each spun
// 255 polls after every message, so on connect_churn they never parked and
// their played polls were most of a dial's scheduler events. A loop now
// parks after its first empty pass (run), and four loops cost a dial no
// more host time than one did.

// mshard is one shard of the monitor's control plane: a partition of the
// records plus the dispatch loop that serves it. All state fields are
// guarded by the owning Monitor's mu.
type mshard struct {
	m   *Monitor
	idx int

	// Partitioned state. Which shard a key lands in is decided by
	// shard.Of/OfPort/OfPID of that key, so one key's entire history is
	// served by one loop (per-key FIFO, as §4.1.1's token queue needs).
	ports    map[uint16]*portRec      // port -> listeners, their backlogs, the cursor
	conns    map[uint64]*connRec      // qid -> everything known about the connection
	sleepers map[int]map[int]struct{} // pid -> tids parked in interrupt mode
	steals   map[uint64]stealReq      // in-flight work-steal requests
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
// the connections dispatched to it but not yet accepted. When
// ListenerBacklogCap > 0, pickListener skips listeners at the cap and
// refuses the SYN with StatusBacklogFull once every listener for the port
// is full. The count goes with the registration.
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
// a takeover, a re-registration record — and lives until the last local
// endpoint ends: mshard.dropConn is the one place it is removed. Word of a
// remote death (KPeerDead, KMRefused) clears the fields that died and leaves
// the record to its local owner's close or death.
type connRec struct {
	// pids are the endpoints: both for an intra-host socket, one local pid
	// plus the remote host for an inter-host one. Dispatch and re-registration
	// put them on record; a takeover or a reported pending dial does not.
	pids     [2]int // [client, listener]; 0 = not local
	owner    int    // local pid that peer deaths, QP splices and rescues go to; 0 = none
	peerHost string // "" = intra-host, or the remote end was reported dead
	shmTok   shm.Token

	// Backlog accounting (overload admission): which listener the dispatch
	// landed on, and whether it still occupies a slot of its backlog. queued
	// flips false on KAcceptDone; a steal moves lref to the thief.
	lref   listenerRef
	lport  uint16
	queued bool

	// x is what only an inter-host or a contested connection needs, made on
	// first use: a record is allocated per dial, and with these fields in it
	// would be 272 B, not 80.
	x *connExt
}

// connExt is the lazily made part of a connRec.
type connExt struct {
	synAckTo string      // inter-host set-up, server side: the client's host
	resTo    int         // inter-host set-up, client side: the pid awaiting KConnectRes
	reqpFrom string      // QP splice: the host whose KReQPPeer awaits our KReQPRes
	tok      [4]tokState // token arbitration queues (§4.1.1), by tokKey.idx
}

// dispatched reports whether an endpoint is on record.
func (c *connRec) dispatched() bool { return c.pids != [2]int{} }

func (c *connRec) ext() *connExt {
	if c.x == nil {
		c.x = &connExt{}
	}
	return c.x
}

// awaited lists the pids that wait for something through the record: the
// answer to a dial, a token grant, a revoked token's return.
func (c *connRec) awaited() (pids []int) {
	if x := c.x; x != nil {
		if x.resTo != 0 {
			pids = append(pids, x.resTo)
		}
		for _, ts := range x.tok {
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

// forget strips a dead pid from what the record routes to it: ownership,
// the answer to its pending dial, the token waiting lists. A revoke that
// was outstanding to the corpse is answered on its behalf: the token is
// appended to regrant if somebody waits for it.
func (c *connRec) forget(pid int, qid uint64, regrant []tokKey) []tokKey {
	if c.owner == pid {
		c.owner = 0
	}
	x := c.x
	if x == nil {
		return regrant
	}
	if x.resTo == pid {
		x.resTo = 0
	}
	for i := range x.tok {
		ts := &x.tok[i]
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

// ext returns the lazily made part of qid's record, nil if there is none.
// Caller holds m.mu.
func (sh *mshard) ext(qid uint64) *connExt {
	if c := sh.conns[qid]; c != nil {
		return c.x
	}
	return nil
}

// tok returns one token's arbitration queue, nil if the shard holds none
// for it. Caller holds m.mu.
func (sh *mshard) tok(key tokKey) *tokState {
	if x := sh.ext(key.qid); x != nil {
		return &x.tok[key.idx()]
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
		sleepers:   make(map[int]map[int]struct{}),
		steals:     make(map[uint64]stealReq),
		dDispatch:  telemetry.D(telemetry.MonShardDispatch(idx)),
		cEvents:    telemetry.C(telemetry.MonShardEvents(idx)),
		cInboxShed: telemetry.C(telemetry.MonShardInboxShed(idx)),
	}
}

// conn returns the record of connection qid, making it at this first
// mention. Caller holds m.mu.
func (sh *mshard) conn(qid uint64) *connRec {
	c := sh.conns[qid]
	if c == nil {
		c = &connRec{}
		sh.conns[qid] = c
	}
	return c
}

// dropConn removes everything the shard knows about connection qid; every
// path that ends the connection's last local endpoint comes here. A
// connection still counted against a listener's backlog (it ended before its
// KAcceptDone was handled) gives the slot back; the late KAcceptDone then
// finds no record. Caller holds m.mu.
func (sh *mshard) dropConn(qid uint64) {
	if c := sh.conns[qid]; c != nil && c.queued {
		sh.m.releaseBacklogSlotLocked(c.lport, c.lref)
	}
	delete(sh.conns, qid)
}

// owner returns the local pid that answers for connection qid, 0 if none.
// Caller holds m.mu.
func (sh *mshard) owner(qid uint64) int {
	if c := sh.conns[qid]; c != nil {
		return c.owner
	}
	return 0
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

// run is one shard's dispatch loop: drain the inbox the router feeds, the
// closed list, and this shard's plane of every process's control duplex,
// and park as soon as one full pass finds nothing (its empty TryRecvs have
// already taken back the rings' credit). Every producer of shard work rings
// the doorbell after queueing it — libsd's sendCtl, the router's inbox and
// host-death fan-out, ConnClosed, wakeAll — and an Unpark that lands while
// the loop runs leaves a permit, so no work waits for the next doorbell.
// (The router keeps its spin; ROADMAP 1(a) says why.)
func (sh *mshard) run(ctx exec.Context) {
	m := sh.m
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
			m.handle(ctx, sh, nil, ev.mc, &cm)
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
				m.handle(ctx, sh, pc, nil, &cm)
			}
		}
		if progress {
			// Everything a shard handles is real control traffic
			// (heartbeats never leave the router), so it re-opens the
			// traffic-gated heartbeat window.
			m.mu.Lock()
			m.lastActivity = ctx.Now()
			m.mu.Unlock()
			continue
		}
		ctx.Park()
	}
}

// reclaimClosedLocked drops the records of the connections queued by
// ConnClosed. Caller holds m.mu.
func (sh *mshard) reclaimClosedLocked() {
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
	m.mu.Lock()
	sh.hostDeadSweeps++
	var notes []note
	for qid, c := range sh.conns {
		if c.peerHost != peer {
			continue
		}
		if c.owner != 0 {
			notes = append(notes, note{qid: qid, owner: c.owner})
		}
		sh.dropConn(qid)
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
