// Package monitor implements the per-host trusted daemon of §3/§4.5: the
// control plane of SocksDirect. It owns the address/port space, enforces
// access-control policy, dispatches new connections to listener backlogs
// (round-robin with work stealing), arbitrates queue tokens with FIFO
// waiting lists, pairs forked children by secret, probes remote hosts for
// SocksDirect capability with special-option TCP handshakes (falling back
// to repaired kernel TCP connections), and relays inter-host control
// traffic over a monitor-to-monitor RDMA channel.
//
// The paper's daemon is a single thread that polls SHM queues; this one
// shards that dispatch plane by control-plane key so connection setup
// scales with cores instead of serializing on one loop (see
// internal/monitor/shard and shards.go). Each shard polls its own
// per-process SHM duplexes; a thin router thread owns the work that is
// global by nature (monitor channels, kernel listeners, probes, crash
// cleanup, heartbeats) and forwards keyed arrivals to the owning shard.
// When everything is idle every loop parks, and control-plane senders
// nudge the one shard they wrote to (observably identical to busy
// polling, see core.ProcLink).
//
// What it knows is one record per connection (connRec) and one per port
// (portRec) on the owning shard, and one per remote host (peer) on the
// router; ARCHITECTURE.md "Monitor state" has who makes and who removes
// each. A connection's record is removed in one place, mshard.dropConn.
package monitor

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"

	"socksdirect/internal/bufpool"
	"socksdirect/internal/core"
	"socksdirect/internal/ctlmsg"
	"socksdirect/internal/exec"
	"socksdirect/internal/host"
	"socksdirect/internal/ksocket"
	"socksdirect/internal/monitor/shard"
	"socksdirect/internal/obs"
	"socksdirect/internal/rdma"
	"socksdirect/internal/shm"
)

// ctlRingCap sizes each process's per-shard control duplex: 51 messages
// each way, above the 4 800 B the busiest drill (mrestart) has in flight on
// one ring. A send that finds its ring full waits in its sender's queue
// (sendTo, core.Libsd.sendCtl) and counts sd/monitor/ctl_ring_full.
const ctlRingCap = 8 * 1024

// Policy decides whether a local process owned by uid may connect to
// (dstHost, dstPort). The default allows everything.
type Policy func(uid int, dstHost string, dstPort uint16) bool

// Monitor is the per-host control-plane daemon.
type Monitor struct {
	H  *host.Host
	KS *ksocket.Stack // kernel sockets for the fallback path (may be nil)

	procs    map[int]*procChan
	procList []*procChan // procs sorted by PID; shard loops poll in this order
	shards   []*mshard   // fixed at shard.DefaultCount for the incarnation's life
	kernLs   []kernL     // dual kernel listeners sorted by port; the router polls in this order
	policy   Policy
	secrets  map[uint64]int // fork secret -> parent pid

	// peers holds one record per remote host; peerList is the same records
	// sorted by name: the order the router polls the channels and ticks the
	// heartbeats in.
	peers    map[string]*peer
	peerList []*peer

	probeSeq  uint32 // low bits of the next probe's ID (probe.go), and its raw port
	probeDone []probeResult
	deaths    []int            // pids awaiting crash cleanup (lifeline queue)
	deadPIDs  map[int]struct{} // pids already cleaned up (idempotence)

	// Restart survivability: each incarnation carries a monotonically
	// increasing epoch; messages stamped by a previous incarnation are
	// stale and dropped (they may describe state the restart invalidated).
	epoch     uint32
	needReReg []int // pids owed a KReRegister after a restart
	// reregOwed holds the adopted pids whose re-registration report has
	// not finished: until it is empty, a connection missing from the
	// records may still be rebuilt, so a splice for it is not refused.
	reregOwed map[int]bool

	// Inter-host liveness (heartbeat.go): the tick clock and the traffic gate.
	hbLastTick   int64
	hbArmed      bool     // a clock-driven tick wake is pending
	hbTimerCb    func()   // cached timer callback (one allocation per monitor)
	lastActivity int64    // last real (non-heartbeat) control-plane traffic
	beacon       []string // tickHeartbeats' scratch: the peers a tick beacons

	thread    exec.Thread // the router loop; shard loops live on their mshard
	stopped   bool
	intraIdle bufpool.FreeList[core.IntraSock] // for dispatchIntra, from KeepIntraSock

	// Stats for §6-style accounting.
	ConnsDispatched int
	TokensGranted   int
}

// procChan is the monitor's half of one process's registration: the link
// it handed out, whose control duplexes it holds side B of (index = shard
// number) and whose in-library count decides whether a message is worth a
// signal (notify).
type procChan struct {
	p    *host.Process
	link *core.ProcLink

	// out holds, per shard, the messages sendTo found no room for on the
	// process's ring, in order; the shard writes them as the process drains
	// (flushOut). The shard reads no request from a process whose queue on
	// its plane is not empty, and a reply travels on its request's plane,
	// so replies add at most one pass (ctlBatch) to it. Every other message
	// is a notice about what the process holds — a connection dispatched
	// to its listener, a token it holds or waits for, a peer's death, a
	// splice, a re-registration — at most one outstanding of each kind per
	// record, so the queue is bounded by the records naming the process
	// plus one pass. It dies with the incarnation, as the records do.
	out [][]queuedCtl
}

// queuedCtl is a message in procChan.out, and whether it asked to be
// noticed (sendTo's signal).
type queuedCtl struct {
	cm     ctlmsg.Msg
	signal bool
}

// kernL is one dual kernel listener with the port it serves.
type kernL struct {
	port uint16
	kl   *ksocket.Listener
}

// peer is everything the router knows about one remote host: two states and
// one queue. The record is made at the first mention of the host and
// outlives its channel: the dead verdict and deadEpoch must survive the
// channel they condemned.
type peer struct {
	name string

	// The channel (probe.go). mc is set while ch is chanUp; queue holds what
	// waits for one, in arrival order: connects (KConnect) and control
	// messages.
	ch    chanState
	mc    *mchan
	queue []ctlmsg.Msg
	own   uint64 // ID of our latest probe, 0 once a pair of the peer's replaced it
	seen  uint64 // the newest of the peer's probe IDs we answered

	// Liveness (heartbeat.go).
	live      MemberState // memberUnwatched until first heard from
	lastHeard int64       // virtual time of the last receipt (0 = never)
	missed    int         // consecutive ticks without a receipt
	deadEpoch uint32      // highest incarnation already fanned dead
	epoch     uint32      // highest incarnation heard
	lastSent  int64       // virtual time of our last beacon/echo
}

// chanState is where a peer's monitor channel stands: absent → probing →
// up, and back to absent when its QP dies.
type chanState uint8

const (
	chanAbsent  chanState = iota // none: the next send probes
	chanProbing                  // our probe is in flight
	chanUp                       // mc is installed
)

// setChan makes mc the channel toward p, or with nil drops p's channel (a
// probe in flight stays in flight), and closes the QP of the one it
// replaces: an end holds one channel's QP.
func (p *peer) setChan(mc *mchan) {
	if p.mc != nil && p.mc != mc {
		p.mc.qp.Close()
	}
	p.mc = mc
	if mc != nil {
		p.ch = chanUp
	} else if p.ch == chanUp {
		p.ch = chanAbsent
	}
}

type listenerRef struct {
	pid int
	tid int
}

// tokKey names one token: a connection's send or receive side of one end.
type tokKey struct {
	qid  uint64
	dir  uint8
	side uint16
}

// valid reports whether a key read off a process's control ring can index
// a record's queues: a connection has two directions and two ends.
func (k tokKey) valid() bool { return k.dir <= 1 && k.side <= 1 }

func (k tokKey) idx() int { return int(k.dir)*2 + int(k.side) }

type tokState struct {
	waiters    []waiterRef
	revokeSent bool
	revokeTo   int // pid the outstanding KTokenReturn was sent to
}

type waiterRef struct{ pid, tid int }

// stealReq is a work steal in flight: on success the connection and its
// backlog slot move from the victim listener to the thief.
type stealReq struct{ thief, victim listenerRef }

// Start creates the monitor, attaches it to the host, and spawns the
// daemon thread. ks enables the TCP fallback and dual kernel listeners.
func Start(h *host.Host, ks *ksocket.Stack) *Monitor {
	return startEpoch(h, ks, 1)
}

// startEpoch is Start with an explicit incarnation number; Restart uses it
// to bring up incarnation N+1 over the previous one's process links.
func startEpoch(h *host.Host, ks *ksocket.Stack, epoch uint32) *Monitor {
	m := &Monitor{
		H:        h,
		KS:       ks,
		epoch:    epoch,
		procs:    make(map[int]*procChan),
		policy:   func(int, string, uint16) bool { return true },
		secrets:  make(map[uint64]int),
		peers:    make(map[string]*peer),
		deadPIDs: make(map[int]struct{}),
		probeSeq: 9000,
		// Never ticked: the first tick is due at once, and a pause.
		hbLastTick: -hbQuietAfter,
	}
	m.shards = make([]*mshard, shard.DefaultCount)
	for i := range m.shards {
		m.shards[i] = newShard(m, i)
	}
	// Heartbeat timer callback, created once: armHeartbeat runs on every
	// park cycle and a fresh closure per arm would show up in steady-state
	// allocation profiles.
	m.hbTimerCb = func() {
		m.hbArmed = false
		stopped := m.stopped
		if !stopped {
			m.wake()
		}
	}
	h.Mon = m
	mEpoch.Set(int64(epoch))
	// Per-process lifeline: the kernel teardown reports every death; the
	// daemon runs the actual reclamation on its own thread. The stopped
	// guard keeps a dead incarnation's hook (they accumulate across
	// restarts) from double-queueing deaths the live one already owns.
	h.OnProcessDeath(func(pid int) {
		if m.stopped {
			return
		}
		m.deaths = append(m.deaths, pid)
		m.wake()
	})
	if ks != nil {
		ks.TCP().SetSynFilter(m.synFilter)
	}
	m.spawnLoops()
	return m
}

// spawnLoops starts the router and every shard loop: at start, and when
// EndWorld runs a world again whose Run has unwound them.
func (m *Monitor) spawnLoops() {
	h := m.H
	m.thread = h.RT.SpawnOn(h.NextCore(), h.Name+"/monitor", m.run)
	for _, sh := range m.shards {
		sh.thread = h.RT.SpawnOn(h.NextCore(),
			fmt.Sprintf("%s/monitor/shard%d", h.Name, sh.idx), sh.run)
	}
}

// SetPolicy installs the access-control policy.
func (m *Monitor) SetPolicy(p Policy) {
	m.policy = p
}

// Stop terminates the router and every shard loop. It is idempotent (a
// second Stop is a no-op) and draining: kernel listeners are closed so
// the ports are free for a successor incarnation.
// It wakes no libsd thread: a receiver parked in interrupt mode waits for
// its data, its deadline or a successor's re-registration (Restart), which
// wakes every thread of every process it adopts.
func (m *Monitor) Stop() {
	if m.stopped {
		return
	}
	m.stopped = true
	m.intraIdle = nil
	kls := m.kernLs
	m.kernLs = nil
	for _, k := range kls {
		k.kl.Close()
	}
	m.wakeAll()
}

// Epoch returns this incarnation's number (immutable once started).
func (m *Monitor) Epoch() uint32 { return m.epoch }

// Shards returns the number of control-plane shards this monitor runs.
func (m *Monitor) Shards() int { return len(m.shards) }

func (m *Monitor) wake() {
	if m.thread != (exec.Thread{}) {
		m.thread.Unpark()
	}
}

// wakeShard nudges one shard's dispatch loop (libsd's per-shard doorbell
// lands here via ProcLink.WakeMonitor).
func (m *Monitor) wakeShard(i int) {
	if i >= 0 && i < len(m.shards) {
		m.shards[i].wake()
	}
}

// wakeAll unparks the router and every shard loop.
func (m *Monitor) wakeAll() {
	m.wake()
	for _, sh := range m.shards {
		sh.wake()
	}
}

// rebuildProcList refreshes the PID-sorted snapshot the shard loops poll
// from. Map iteration order would serve the duplexes in a different order
// every run, and with it shift every virtual timestamp downstream — the
// bench suite diffs those numbers run against run, so polling order must
// be a function of state, not of Go's map hash.
func (m *Monitor) rebuildProcList() {
	m.procList = m.procList[:0]
	for _, pc := range m.procs {
		m.procList = append(m.procList, pc)
	}
	sort.Slice(m.procList, func(i, j int) bool { return m.procList[i].p.PID < m.procList[j].p.PID })
}

// peerOf returns the record of remote host name, making it at this first
// mention and filing it in peerList by name: the order the channels are
// drained in shifts every virtual timestamp downstream, so, as with
// procList, it must not be Go's map order.
func (m *Monitor) peerOf(name string) *peer {
	p := m.peers[name]
	if p == nil {
		p = &peer{name: name}
		m.peers[name] = p
		m.peerList = append(m.peerList, p)
		slices.SortFunc(m.peerList, func(a, b *peer) int { return strings.Compare(a.name, b.name) })
	}
	return p
}

// chanTo returns the usable channel toward p, nil if it has none. It is the
// one place a channel whose QP died (partition, injected fault) is noticed,
// by the send path and by the router's drain, and dropped, so the next send
// probes for a new one.
func (m *Monitor) chanTo(p *peer) *mchan {
	if p.mc != nil && p.mc.qp.State() == rdma.QPErr {
		p.setChan(nil)
		mMchanHeals.Inc()
	}
	return p.mc
}

// RegisterProcess gives a process its exclusive control queues (§3: "all
// the applications loading libsd must establish a SHM queue with the
// host's monitor daemon") — one duplex per shard, so each shard loop has
// a private SPSC plane to this process.
func (m *Monitor) RegisterProcess(p *host.Process) *core.ProcLink {
	ds := make([]*shm.Duplex, len(m.shards))
	for i := range ds {
		ds[i] = shm.NewDuplex(ctlRingCap)
	}
	// The doorbell resolves through h.Mon at ring time, not through this
	// incarnation: after a restart the successor adopts the duplexes, and
	// the process's nudges must reach the live daemon, not the dead one.
	h := m.H
	link := &core.ProcLink{Ds: ds, WakeMonitor: func(s int) {
		if cur, ok := h.Mon.(*Monitor); ok {
			cur.wakeShard(s)
		}
	}, MonitorHost: m.H.Name, Epoch: m.epoch}
	m.procs[p.PID] = &procChan{p: p, link: link}
	m.rebuildProcList()
	m.wakeAll()
	return link
}

// RegisterChild pairs a forked child using the secret its parent deposited
// before forking (§4.1.2 "Security"). An unknown secret is rejected.
func (m *Monitor) RegisterChild(p *host.Process, secret uint64) *core.ProcLink {
	parent, ok := m.secrets[secret]
	if ok {
		delete(m.secrets, secret)
	}
	if !ok || p.Parent == nil || p.Parent.PID != parent {
		return nil
	}
	return m.RegisterProcess(p)
}

// run is the router loop: the one thread that owns globally-keyed work.
// It drains monitor channels (forwarding keyed messages to the owning
// shard's inbox), kernel listeners, probe results, crash
// cleanup and restart re-registration, and ticks heartbeats. Everything
// keyed by port/connection/PID runs on the shard loops (shards.go). Like a
// shard loop it parks after a pass that found no real work: every input
// rings m.wake as it arrives — a death, a restart's re-registrations, a
// probe result, a kernel connection, a channel's armed receive
// CQ, the heartbeat timer — and an Unpark that lands mid-pass leaves a
// permit.
func (m *Monitor) run(ctx exec.Context) {
	// Snapshot scratch, reused across passes: per-pass slice churn would
	// show in the process's allocation profile.
	var mchs []*mchan
	var kls []kernL
	// One wake closure for the whole run: taking m.wake as a method value
	// at every park would allocate per park cycle.
	wakeFn := m.wake
	for !m.stopped {
		mchs = mchs[:0]
		for _, p := range m.peerList {
			if p.mc != nil {
				mchs = append(mchs, p.mc)
			}
		}
		kls = append(kls[:0], m.kernLs...)

		// real: non-heartbeat work. Heartbeat receipts alone must not count
		// as activity, or two idle peered monitors would keep each other's
		// beacons alive forever and the run would never quiesce; a pass
		// that only booked liveness parks like an empty one.
		real := len(m.deaths)+len(m.needReReg)+len(m.probeDone) > 0
		deaths := m.deaths
		m.deaths = nil
		rereg := m.needReReg
		m.needReReg = nil
		for _, pid := range deaths {
			m.cleanupProcess(ctx, pid)
		}
		for _, pid := range rereg {
			m.reRegister(ctx, pid)
		}
		probes := m.probeDone
		m.probeDone = nil
		for _, pr := range probes {
			m.finishProbes(ctx, pr)
		}
		for _, mc := range mchs {
			real = m.drain(ctx, mc) || real
		}
		for _, k := range kls {
			if k.kl.PendingHint() > 0 {
				m.acceptFallback(ctx, k.port, k.kl)
				real = true
			}
		}
		if real {
			m.lastActivity = ctx.Now()
		}
		m.tickHeartbeats(ctx)
		if real {
			continue
		}
		for _, mc := range mchs {
			mc.armWake(wakeFn) // fires at once if traffic raced in
		}
		m.armHeartbeat(ctx)
		ctx.Park()
	}
}

// drain routes the messages waiting on mc, up to the first completion that
// carries none: if that one was flushed by a dead QP, the channel is dropped
// in this pass. It reports whether any of them was more than a heartbeat.
func (m *Monitor) drain(ctx exec.Context, mc *mchan) (real bool) {
	for {
		cm, ok := mc.recv()
		if !ok {
			if p := m.peers[mc.peer]; p != nil {
				m.chanTo(p)
			}
			return real
		}
		ctx.Charge(m.H.Costs.RDMAPost)
		if cm.Kind != ctlmsg.KMHeartbeat {
			real = true
		}
		if !m.heard(mc.peer, cm.Epoch) {
			mStaleDropped.Inc()
			continue
		}
		// Flight hop: peer monitor's mchan post (cm.TS) to here.
		cm.SpanID = obs.RecordHop(m.H.Name, 0, obs.HopMchanFlight,
			uint8(cm.Kind), cm.TraceID, cm.SpanID, cm.TS, ctx.Now())
		m.routeRemote(ctx, mc, cm)
	}
}

// routeRemote hands an mchan arrival to the shard owning its key.
// Heartbeats never leave the router: they carry no state key and their
// handler (the rate-limited echo) touches only the router-owned peer
// record. cm is the channel's own message (mchan.recv): whatever outlives
// this call is copied out of it.
func (m *Monitor) routeRemote(ctx exec.Context, mc *mchan, cm *ctlmsg.Msg) {
	if cm.Kind == ctlmsg.KMHeartbeat {
		// Liveness beacon; heard already refreshed the peer's clock. Echo so
		// a quiet monitor still proves liveness (rate-limited).
		m.hbSend(ctx, mc.peer, true)
		return
	}
	if cm.Kind == ctlmsg.KMHostDead {
		// Membership gossip: like heartbeats, it carries no state key and
		// touches only router-owned peer records (plus the shard inboxes
		// the fan-out always goes through), so it never leaves the router.
		countCtl(cm.Kind)
		m.onHostDeadGossip(ctx, cm)
		return
	}
	sh := m.shardFor(cm)
	ev := shardEvent{cm: *cm, mc: mc}
	if ev.cm.TraceID != 0 {
		ev.cm.TS = ctx.Now() // routing-hop start for the shard's span
	}
	if capN := m.H.Limits.Inbox; capN > 0 && len(sh.inbox) >= capN &&
		cm.Kind == ctlmsg.KMSyn {
		// Shard saturated: shed the one kind that is safely refusable. A
		// SYN turned away here costs the dialer a retryable ECONNREFUSED;
		// every other kind is a step of an in-flight protocol (acks, death
		// notices, QP recovery) whose loss would wedge it, so those always
		// append — the cap bounds admission, not correctness.
		sh.cInboxShed.Inc()
		obs.Trigger(obs.TrigOverloadShed, ctx.Now(),
			"monitor shard inbox full: SYN shed with backlog-full refusal")
		r := ctlmsg.Msg{Kind: ctlmsg.KMRefused, ConnID: cm.ConnID,
			Status: ctlmsg.StatusBacklogFull, Epoch: m.epoch,
			TS: ctx.Now(), TraceID: cm.TraceID, SpanID: cm.SpanID}
		mc.send(&r)
		return
	}
	sh.inbox = append(sh.inbox, ev)
	sh.wake()
}

// sendTo queues a control message to a local process, and when signal is
// set makes sure the process looks at it (notify). The message travels on
// the plane its key routes to, so a request and its reply share a shard and
// per-key ordering holds end to end. It never waits on the process: a
// message that finds the ring full, or others queued before it, joins the
// process's queue for that plane (procChan.out), and the plane is marked
// for pollCtl to ring the shard once it has drained it.
func (m *Monitor) sendTo(ctx exec.Context, pid int, cm *ctlmsg.Msg, signal bool) {
	pc := m.procs[pid]
	if pc == nil {
		return
	}
	cm.Epoch = m.epoch // everything we say is stamped with our incarnation
	if cm.TraceID != 0 {
		cm.TS = ctx.Now() // queue-hop start for the receiver's span
	}
	s := shard.ForMsg(cm, len(m.shards))
	cm.Shard = uint8(s)
	if !pc.queued(s) && pc.trySend(s, cm) {
		if signal {
			m.notify(ctx, pc)
		}
		return
	}
	if pc.p.Dead() {
		return // a corpse never drains its ring
	}
	if pc.out == nil {
		pc.out = make([][]queuedCtl, len(m.shards))
	}
	pc.out[s] = append(pc.out[s], queuedCtl{cm: *cm, signal: signal})
	pc.link.MonQueued.Or(1 << s)
	mCtlRingFull.Inc()
	if signal {
		m.notify(ctx, pc) // the process drains the full ring, and its pollCtl rings the shard
	}
}

func (pc *procChan) queued(s int) bool { return s < len(pc.out) && len(pc.out[s]) > 0 }

func (pc *procChan) trySend(s int, cm *ctlmsg.Msg) bool {
	var buf [ctlmsg.Size]byte
	return pc.link.Ds[s].B().TX.TrySend(0, 0, cm.Marshal(buf[:]))
}

// flushOut writes what sendTo queued for pc on shard s, in order, as far as
// the ring has room, and notifies the process if a message written asked for
// it. It reports whether it wrote any; what is left stays marked.
func (m *Monitor) flushOut(ctx exec.Context, pc *procChan, s int) bool {
	q := pc.out[s]
	n, signal := 0, false
	for n < len(q) && pc.trySend(s, &q[n].cm) {
		signal = signal || q[n].signal
		n++
	}
	if pc.out[s] = append(q[:0], q[n:]...); len(pc.out[s]) > 0 {
		pc.link.MonQueued.Or(1 << s)
	}
	if signal {
		m.notify(ctx, pc)
	}
	return n > 0
}

// notify makes sure a process looks at its control queues (§4.4): it marks
// them pending, then signals the process only if no thread of it is inside
// libsd — the handler drains the queues. A thread inside polls them before
// it returns to the application (core.Libsd.leave), so the 2 µs signal
// would buy nothing; it is counted as deferred.
func (m *Monitor) notify(ctx exec.Context, pc *procChan) {
	if pc.p.Dead() {
		return
	}
	// Mark, then read the count; libsd drops the count, then reads the mark:
	// one of the two sees the other.
	pc.link.Pending.Store(true)
	if pc.link.InLibsd.Load() > 0 {
		mSignalsDeferred.Inc()
		return
	}
	pc.p.Signal(ctx, host.SIGUSR1)
}

// pidDead reports whether a local pid no longer has a live process behind
// it (unknown pids count as dead: the process was reaped).
func (m *Monitor) pidDead(pid int) bool {
	p := m.H.Process(pid)
	return p == nil || p.Dead()
}

// cleanupProcess is the monitor half of the crash path (§3.1: the monitor
// is the trusted party that must reclaim whatever an untrusted process
// held). It runs on the router thread, sweeping every shard's partition
// of the corpse's state; no shard loop runs while it does, so one pass is
// serialized against all shard dispatch, exactly as the single-loop
// design was. In order: forget the corpse's control queues, listener
// registrations, fork secrets and pending routing state; unstick token
// arbitration (a revoke sent to the corpse is answered on its behalf, so
// fork/thread sharers resume via the normal §4.1 takeover path); then
// notify every peer — KPeerDead to local survivors, whose library wakes
// their parked receivers, and over the monitor channel for inter-host
// sockets — and remove SHM segments of sockets with no surviving
// endpoint.
func (m *Monitor) cleanupProcess(ctx exec.Context, pid int) {
	if _, done := m.deadPIDs[pid]; done {
		return
	}
	m.deadPIDs[pid] = struct{}{}
	delete(m.procs, pid)
	delete(m.reregOwed, pid)
	m.rebuildProcList()
	maps.DeleteFunc(m.secrets, func(_ uint64, owner int) bool { return owner == pid })
	// Token arbitration: drop the corpse from waiting lists, and if an
	// outstanding revoke was addressed to it, answer on its behalf.
	var regrant []tokKey
	// Connections: collect the peers to notify.
	type peerNote struct {
		qid    uint64
		local  int    // surviving local pid (0 = none)
		remote string // surviving remote host ("" = none)
	}
	var notes []peerNote
	for _, sh := range m.shards {
		// Listener registrations go, and the backlog occupancy charged to
		// them: a record still queued there finds no slot to release later.
		for _, pr := range sh.ports {
			pr.refs = slices.DeleteFunc(pr.refs, func(r listenerSlot) bool { return r.pid == pid })
		}
		maps.DeleteFunc(sh.steals, func(_ uint64, sr stealReq) bool { return sr.thief.pid == pid })
		for qid, c := range sh.conns {
			regrant = c.forget(pid, qid, regrant)
			if c.phase == bare {
				// A takeover's queues: with nobody left waiting on them there
				// is no local party.
				if len(c.awaited()) == 0 {
					sh.dropConn(qid)
				}
				continue
			}
			if c.pids[0] != pid && c.pids[1] != pid {
				continue
			}
			n := peerNote{qid: qid, remote: c.peerHost}
			if other := c.pids[0] + c.pids[1] - pid; other != pid && other != 0 && !m.pidDead(other) {
				n.local = other
			}
			if n.local != 0 && c.peerHost == "" && m.survivorClosed(c, n.local) {
				// The survivor closed its end before the peer died: it will
				// never look at the connection again (lifecycle.go).
				n.local = 0
			}
			if n.local == 0 && c.peerHost == "" {
				// No endpoint left alive on this host and none remote: the
				// socket's SHM segment is unreachable garbage now.
				if c.shmTok != 0 {
					m.H.SHM.Remove(c.shmTok)
				}
				sh.dropConn(qid)
				continue
			}
			if c.peerHost != "" {
				// The record covered the (single) local endpoint; the remote
				// monitor owns the rest of the teardown.
				sh.dropConn(qid)
			}
			notes = append(notes, n)
		}
	}
	// Ascending IDs, not map order: the re-grants and resets go out 2 000
	// sim-ns apart, and a schedule that differs run to run cannot be shrunk.
	slices.SortFunc(regrant, func(a, b tokKey) int {
		return cmp.Or(cmp.Compare(a.qid, b.qid), cmp.Compare(a.dir, b.dir), cmp.Compare(a.side, b.side))
	})
	slices.SortFunc(notes, func(a, b peerNote) int { return cmp.Compare(a.qid, b.qid) })

	mCrashCleanups.Inc()
	obs.Emit(m.H.Name, 0, obs.EvCrashCleanup, 0, ctx.Now(), int64(pid), 0)
	for _, key := range regrant {
		m.grantNext(ctx, key)
	}
	for _, n := range notes {
		pd := ctlmsg.Msg{Kind: ctlmsg.KPeerDead, QID: n.qid, PID: int64(pid)}
		if n.remote != "" {
			pd.SetHost(m.H.Name)
			m.mchanSend(ctx, n.remote, &pd, true)
			continue
		}
		m.sendTo(ctx, n.local, &pd, true)
	}
}

// survivorClosed reports whether the surviving endpoint (pid) of an
// intra-host connection whose other process just died had already closed
// its end, claiming the connection's release for crash cleanup if so: the
// close path and this one race for the connection's released fact, so the
// segment is released once and the rings — a corpse was attached — never
// re-issued.
func (m *Monitor) survivorClosed(c *connRec, pid int) bool {
	seg, err := m.H.SHM.Attach(c.shmTok)
	if err != nil {
		return false
	}
	is, ok := seg.Obj.(*core.IntraSock)
	if !ok {
		return false
	}
	idx := 0
	if c.pids[1] == pid {
		idx = 1
	}
	return is.ReclaimIfClosed(idx)
}

// ConnClosed is libsd's note that the last endpoint of connection qid on
// this host released it (core/lifecycle.go). It stands for a closed-QID
// list in state shared with the monitor: the call queues the ID and rings
// the owning shard, which applies it at the top of its next pass, outside
// any dispatch and without charging simulated time — a close must never
// delay the SYN queued behind it. Without the ring a parked shard would
// keep the record, and any backlog slot it holds, until unrelated traffic.
func (m *Monitor) ConnClosed(qid uint64) {
	sh := m.shardOf(qid)
	sh.closed = append(sh.closed, qid)
	sh.wake()
}

// MaxIdleIntraSocks bounds the IntraSocks a monitor keeps for reuse.
const MaxIdleIntraSocks = 32

// KeepIntraSock takes back an IntraSock libsd released cleanly.
func (m *Monitor) KeepIntraSock(is *core.IntraSock) { m.intraIdle.Keep(is, MaxIdleIntraSocks) }

// IdleIntraSocks reports how many IntraSocks wait for reuse.
func (m *Monitor) IdleIntraSocks() int { return len(m.intraIdle) }

// LiveConnRecords reports how many connection records the monitor holds
// over all shards after applying every queued ConnClosed note: the figure
// that must return to its baseline when connections are closed, and when
// the processes that held them die.
func (m *Monitor) LiveConnRecords() int {
	n := 0
	for _, sh := range m.shards {
		sh.reclaimClosed()
		n += len(sh.conns)
	}
	return n
}

// DetachProcess takes pid off its connection records without the crash
// fan-out. Container live migration (§4.1.3) moves the sockets — ring
// memory, QIDs and all — to another host and then kills the husk left
// at the source; treating that kill as a crash would reset perfectly
// healthy connections (the destination's records are made by each socket's
// first splice, onReQP). A record whose other endpoint lives here stays
// with that endpoint. An inter-host record goes, but its connection is
// marked departed: the peer's recovery may still splice here before the
// container's first splice redirects it, and must find silence, not a
// refusal. The lifeline still runs afterwards and reclaims everything else
// the pid held.
func (m *Monitor) DetachProcess(pid int) {
	for _, sh := range m.shards {
		for qid, c := range sh.conns {
			i := slices.Index(c.pids[:], pid)
			if i < 0 {
				continue
			}
			if other := c.pids[1-i]; other == 0 || other == pid || m.pidDead(other) {
				if c.owner() != 0 {
					if sh.departed == nil {
						sh.departed = make(map[uint64]struct{})
					}
					sh.departed[qid] = struct{}{}
				}
				sh.dropConn(qid)
				continue
			}
			c.pids[i] = 0
		}
	}
}

// CrashConverged verifies that no monitor state still refers to a dead
// process — the post-drill invariant the crash experiment asserts.
func (m *Monitor) CrashConverged() error {
	for pid := range m.procs {
		if m.pidDead(pid) {
			return fmt.Errorf("monitor: dead pid %d still registered", pid)
		}
	}
	gone := func(pid int) bool { return pid == 0 || m.pidDead(pid) }
	for _, sh := range m.shards {
		for port, pr := range sh.ports {
			for _, r := range pr.refs {
				if m.pidDead(r.pid) {
					return fmt.Errorf("monitor: dead pid %d still listed on port %d", r.pid, port)
				}
			}
		}
		for qid, c := range sh.conns {
			// Intra- and inter-host alike: a record is its local endpoints'.
			if c.phase != bare && gone(c.pids[0]) && gone(c.pids[1]) {
				return fmt.Errorf("monitor: conn %d has no live endpoint but was not reclaimed", qid)
			}
			for _, pid := range append(c.awaited(), c.owner()) {
				if pid != 0 && m.pidDead(pid) {
					return fmt.Errorf("monitor: conn %d still owned or awaited (dial answer, token) by dead pid %d", qid, pid)
				}
			}
		}
	}
	return nil
}

// handle processes one message on shard sh, the shard its key routes to:
// off a process control ring (pc; libsd picked the plane with the same
// function), or off the monitor channel mc, routed here by the router.
func (m *Monitor) handle(ctx exec.Context, sh *mshard, pc *procChan, mc *mchan, cm *ctlmsg.Msg) {
	countCtl(cm.Kind)
	sh.cEvents.Inc()
	ev, arg, hop, hist := obs.EvCtl, cm.PID, obs.HopMonDispatch, mDispatchIntra
	if mc != nil {
		ev, arg, hop, hist = obs.EvRemote, int64(cm.Port), obs.HopPeerDispatch, mDispatchInter
	}
	start := ctx.Now()
	obs.Emit(m.H.Name, 0, ev, uint8(cm.Kind), start, arg, 0)
	trace, parent := cm.TraceID, cm.SpanID
	var sid uint64
	if trace != 0 && obs.Enabled() {
		// Allocate the dispatch span up front so messages sent from inside
		// the handler parent to it, then record it once the duration is known.
		sid = obs.NextSpan()
		cm.SpanID = sid
	}
	kind := uint8(cm.Kind)
	// The paper's monitor spends real CPU per dispatched message (§6:
	// 5.3 M conns/s); handlers that only mutate Go maps would otherwise
	// take zero virtual time and make the shard latency numbers vacuous.
	ctx.Charge(m.H.Costs.MonDispatch)
	if mc != nil {
		m.dispatchRemote(ctx, mc, cm)
	} else {
		m.dispatch(ctx, pc, cm)
	}
	end := ctx.Now()
	hist.Observe(end - start)
	sh.dDispatch.Observe(end - start)
	if sid != 0 {
		obs.Record(obs.Span{
			Trace: trace, Span: sid, Parent: parent, Start: start, End: end,
			Host: m.H.Name, Hop: hop, Kind: kind,
		})
	}
}

// dispatch is handle's routing switch, split out so handle can time it.
// Handlers reach partitioned state through the shard owning the message's
// key (shardOf*), which for every case below is the shard whose loop is
// executing — the wire routing and the state partitioning use the same
// function.
func (m *Monitor) dispatch(ctx exec.Context, pc *procChan, cm *ctlmsg.Msg) {
	switch cm.Kind {
	case ctlmsg.KListen:
		m.onListen(ctx, pc, cm)
	case ctlmsg.KConnect:
		m.onConnect(ctx, pc, cm)
	case ctlmsg.KTakeover:
		m.onTakeover(ctx, pc, cm)
	case ctlmsg.KTokenReturn:
		m.onTokenReturned(ctx, cm)
	case ctlmsg.KForkSecret:
		m.secrets[cm.Secret] = int(cm.PID)
		// Ack so the parent knows the deposit landed before it forks. The
		// PID keeps the reply on the request's shard plane.
		ack := ctlmsg.Msg{Kind: ctlmsg.KForkSecret, Secret: cm.Secret,
			PID: cm.PID, Status: ctlmsg.StatusOK}
		m.sendTo(ctx, int(cm.PID), &ack, false)
	case ctlmsg.KWake:
		m.wakeThread(int(cm.PID), int(cm.TID))
	case ctlmsg.KPing:
		// Liveness probe from a bounded control-plane wait: any answer —
		// stamped with the current epoch — proves this shard's loop is
		// alive. The echoed Shard field keeps the pong on the pinged plane
		// (KPong has no state key; the stamp IS its address).
		pong := ctlmsg.Msg{Kind: ctlmsg.KPong, PID: cm.PID, Shard: cm.Shard}
		m.sendTo(ctx, int(cm.PID), &pong, false)
	case ctlmsg.KReRegistered:
		m.onReRegistered(ctx, pc, cm)
	case ctlmsg.KAcceptHint:
		m.onAcceptHint(ctx, pc, cm)
	case ctlmsg.KStealRes:
		m.onStealRes(ctx, pc, cm)
	case ctlmsg.KAcceptDone:
		// A listener drained the dispatched connection from its backlog:
		// free the admission slot pickListener claimed for it. Unknown,
		// already-accepted or adopted records no-op (a restarted monitor's
		// occupancy died with the incarnation).
		if c := m.shardOf(cm.ConnID).conns[cm.ConnID]; c != nil && c.phase == queued {
			c.advance(accepted)
			m.releaseBacklogSlot(c.lport, c.lref)
		}
	case ctlmsg.KMSynAck:
		// Server libsd finished building its endpoint: relay to the
		// client's monitor, the peer of a record KMSyn made.
		c := m.shardOf(cm.ConnID).conns[cm.ConnID]
		if c != nil && (c.phase == queued || c.phase == accepted) && c.peerHost != "" {
			m.mchanSend(ctx, c.peerHost, cm, true)
		}
	case ctlmsg.KReQP:
		m.onReQP(ctx, pc, cm)
	case ctlmsg.KReQPRes:
		// Peer libsd built the extra QP; route back to the requester's
		// host monitor, which KReQPPeer made the record's peer.
		if c := m.shardOf(cm.QID).conns[cm.QID]; c != nil && c.peerHost != "" {
			// Not queued on a dead channel: the requester re-sends KReQP on
			// its recovery deadline, regenerating this response.
			m.mchanSend(ctx, c.peerHost, cm, false)
		}
	}
}

// mchanSend delivers cm to dst's monitor over the monitor channel. With
// queue set, a message that finds no usable channel parks until a probe
// brings one up; otherwise it is dropped — used for messages the far end
// regenerates on retry — but the probe is still launched so the retry
// finds a working channel.
func (m *Monitor) mchanSend(ctx exec.Context, dst string, cm *ctlmsg.Msg, queue bool) {
	keep := cm
	if !queue {
		keep = nil
	}
	m.sendOrPark(ctx, m.peerOf(dst), cm, keep)
}

// sendOrPark is the one way out to a peer monitor: cm goes over p's channel,
// or, without a usable one, keep (nil: nothing) joins p's queue and a probe
// is launched unless one is in flight. finishProbes flushes or resolves the
// queue.
func (m *Monitor) sendOrPark(ctx exec.Context, p *peer, cm, keep *ctlmsg.Msg) {
	cm.Epoch = m.epoch
	if cm.TraceID != 0 {
		cm.TS = ctx.Now() // flight-hop start for the peer monitor's span
	}
	if mc := m.chanTo(p); mc != nil {
		mc.send(cm)
		return
	}
	if keep != nil {
		p.queue = append(p.queue, *keep)
	}
	if p.ch == chanAbsent {
		m.probe(p)
	}
}

// dispatchRemote is handle's routing switch for monitor-channel arrivals.
func (m *Monitor) dispatchRemote(ctx exec.Context, mc *mchan, cm *ctlmsg.Msg) {
	switch cm.Kind {
	case ctlmsg.KMSyn:
		sh := m.shardOf(cm.ConnID)
		if c := sh.conns[cm.ConnID]; c != nil && c.phase >= dialing {
			// A re-sent SYN (the client's monitor restarted and replayed
			// it); the original dispatch stands.
			return
		}
		ref, st := m.pickListener(cm.Port)
		if st != ctlmsg.StatusOK {
			r := ctlmsg.Msg{Kind: ctlmsg.KMRefused, ConnID: cm.ConnID, Status: st,
				Epoch: m.epoch, TS: ctx.Now(), TraceID: cm.TraceID, SpanID: cm.SpanID}
			mc.send(&r)
			return
		}
		c := sh.conn(cm.ConnID)
		c.advance(queued)
		c.pids, c.peerHost = [2]int{0, ref.pid}, mc.peer
		c.lport, c.lref = cm.Port, ref
		m.ConnsDispatched++
		mDispatches.Inc()
		nc := *cm
		nc.Kind = ctlmsg.KNewConn
		nc.Transport = ctlmsg.TransportRDMA
		nc.Port = cm.Port
		nc.TID = int64(ref.tid)
		nc.SetHost(mc.peer) // client host, for qp.Connect on the server
		m.sendTo(ctx, ref.pid, &nc, true)
	case ctlmsg.KMSynAck:
		client := m.shardOf(cm.ConnID).conns[cm.ConnID].dialer()
		res := *cm
		res.Kind = ctlmsg.KConnectRes
		res.Status = ctlmsg.StatusOK
		res.Transport = ctlmsg.TransportRDMA
		res.SetHost(mc.peer) // server host
		m.sendTo(ctx, client, &res, false)
	case ctlmsg.KMRefused:
		// The dial is over; its record stays until the dialer gives the
		// connection up (ConnClosed) or dies.
		c := m.shardOf(cm.ConnID).conns[cm.ConnID]
		client := c.dialer()
		if client != 0 {
			c.advance(refused)
		}
		st := cm.Status
		if st == ctlmsg.StatusOK {
			// Older refusals carried no status; no-listener is the only
			// thing they could have meant.
			st = ctlmsg.StatusNoListener
		}
		m.fail(ctx, client, cm, st)
	case ctlmsg.KReQPPeer:
		sh := m.shardOf(cm.QID)
		if c := sh.conns[cm.QID]; c.owner() != 0 {
			// The remote end now lives where the splice came from (a
			// migrated container's new host): its answer, a death and a
			// host-death sweep go there.
			c.peerHost = mc.peer
			m.sendTo(ctx, c.owner(), cm, true)
		} else if _, left := sh.departed[cm.QID]; !left && len(m.reregOwed) == 0 {
			// No longer on record here (an abandoned dial, a closed or dead
			// endpoint), not gone with a migrated container, and no
			// re-registration owed could rebuild it: the requester's peer
			// is gone. Refuse on the channel the request came in on, and
			// leave no route behind.
			r := ctlmsg.Msg{Kind: ctlmsg.KReQPRes, QID: cm.QID, Aux: cm.Aux, ConnID: cm.ConnID,
				Status: ctlmsg.StatusNoListener, Epoch: m.epoch, TS: ctx.Now(),
				TraceID: cm.TraceID, SpanID: cm.SpanID}
			mc.send(&r)
		}
	case ctlmsg.KReQPRes:
		// Back at the requester's host: deliver to the requester.
		m.sendTo(ctx, int(cm.Aux), cm, true)
	case ctlmsg.KPeerDead:
		// The remote monitor reclaimed a crashed process; tell the local
		// endpoint of the socket. The record loses its remote end and its
		// routing — nothing more can arrive for it, nor is the owner's death
		// the remote monitor's business now — and stays for the owner to end.
		if c := m.shardOf(cm.QID).conns[cm.QID]; c.owner() != 0 {
			owner := c.owner()
			c.peerHost = ""
			m.sendTo(ctx, owner, cm, true)
		}
	}
}

func (m *Monitor) wakeThread(pid, tid int) {
	p := m.H.Process(pid)
	if p == nil {
		return
	}
	t := p.ThreadByTID(tid)
	if t == nil {
		return
	}
	// Waking a sleeping process costs the kernel wakeup latency (§2.1.2).
	mWakes.Inc()
	m.H.Clk.After(m.H.Costs.ProcessWakeup, t.H.Unpark)
}

// --- listen / bind ---

func (m *Monitor) onListen(ctx exec.Context, pc *procChan, cm *ctlmsg.Msg) {
	if cm.Status == 1 { // remove
		gone := listenerRef{pid: int(cm.PID), tid: int(cm.TID)}
		if pr := m.shardOfPort(cm.Port).ports[cm.Port]; pr != nil {
			pr.refs = slices.DeleteFunc(pr.refs, func(r listenerSlot) bool { return r.listenerRef == gone })
		}
		return
	}
	res := ctlmsg.Msg{Kind: ctlmsg.KBindRes, Port: cm.Port, TID: cm.TID}
	// Privileged ports require root, like the kernel would enforce.
	if cm.Port < 1024 && pc.p.UID != 0 {
		res.Status = ctlmsg.StatusDenied
		m.sendTo(ctx, pc.p.PID, &res, false)
		return
	}
	m.addListener(cm.Port, int(cm.PID), int(cm.TID))
	res.Status = ctlmsg.StatusOK
	m.sendTo(ctx, pc.p.PID, &res, false)
}

// addListener records a (port, thread) listener registration and dual-
// listens on the kernel stack so regular TCP/IP peers can still reach the
// service (§4.5.3). Shared by the bind path and restart resurrection; a
// duplicate registration (re-sent bind, replayed report) is a no-op.
func (m *Monitor) addListener(port uint16, pid, tid int) {
	sh := m.shardOfPort(port)
	ref := listenerRef{pid: pid, tid: tid}
	pr := sh.ports[port]
	if pr == nil {
		pr = &portRec{}
		sh.ports[port] = pr
	}
	if pr.slot(ref) != nil {
		return
	}
	pr.refs = append(pr.refs, listenerSlot{listenerRef: ref})
	needKern := m.KS != nil && !slices.ContainsFunc(m.kernLs, func(k kernL) bool { return k.port == port })
	if needKern {
		if kl, err := m.KS.Listen(port); err == nil {
			kl.SetNotify(m.wake)
			m.kernLs = append(m.kernLs, kernL{port, kl})
			sort.Slice(m.kernLs, func(i, j int) bool { return m.kernLs[i].port < m.kernLs[j].port })
		}
	}
}

// pickListener round-robins over a port's listeners (§4.5.2), skipping
// listeners whose backlog occupancy sits at the host's Limits.Backlog. On
// success it claims one backlog slot for the chosen listener (the caller
// must advance the record to queued, so that KAcceptDone, a steal or
// dropConn gives it back). The status return distinguishes a port nobody
// listens on (StatusNoListener) from a port where every backlog is full
// (StatusBacklogFull → ECONNREFUSED at the dialer, retryable). Callable
// from any loop: a connect's shard (keyed by connection ID) is usually
// not the port's shard, and this cross-shard read is the deliberate thin
// path between partitions (one Sim runs one loop at a time).
func (m *Monitor) pickListener(port uint16) (listenerRef, uint8) {
	capN := m.H.Limits.Backlog
	pr := m.shardOfPort(port).ports[port]
	if pr == nil || len(pr.refs) == 0 {
		return listenerRef{}, ctlmsg.StatusNoListener
	}
	for k := range pr.refs {
		i := (pr.rr + k) % len(pr.refs)
		r := &pr.refs[i]
		if capN > 0 && r.used >= capN {
			continue
		}
		pr.rr = i + 1
		r.used++
		return r.listenerRef, ctlmsg.StatusOK
	}
	return listenerRef{}, ctlmsg.StatusBacklogFull
}

// releaseBacklogSlot returns one claimed backlog slot (accept drained
// the connection, the dispatch was abandoned, or a steal moved it). A
// listener that has unregistered or died since took its count with it.
func (m *Monitor) releaseBacklogSlot(port uint16, ref listenerRef) {
	if r := m.shardOfPort(port).ports[port].slot(ref); r != nil && r.used > 0 {
		r.used--
	}
}

// --- connect dispatch ---

func (m *Monitor) onConnect(ctx exec.Context, pc *procChan, cm *ctlmsg.Msg) {
	dst := m.hostName(cm)
	if !m.policy(pc.p.UID, dst, cm.Port) {
		m.fail(ctx, pc.p.PID, cm, ctlmsg.StatusDenied)
		return
	}
	if c := m.shardOf(cm.ConnID).conns[cm.ConnID]; c != nil && c.phase >= dialing {
		// A bounded wait re-sent this connect; the first copy was already
		// dispatched and its KConnectRes is in (or on its way to) the
		// client's ring. Dispatching twice would orphan an endpoint.
		return
	}
	if dst == m.H.Name {
		m.dispatchIntra(ctx, pc, cm)
		return
	}
	m.connectRemote(ctx, cm)
}

// hostName returns the host cm names, without building a string when that
// is this host or a peer on record.
func (m *Monitor) hostName(cm *ctlmsg.Msg) string {
	if cm.HostIs(m.H.Name) {
		return m.H.Name
	}
	if p := m.peers[string(cm.HostBytes())]; p != nil {
		return p.name
	}
	return cm.HostStr()
}

// connectRemote forwards a connect toward a remote host as a KMSyn, or parks
// the connect itself until a probe resolves. finishProbes re-drives parked
// connects through here directly: by then the conn record already exists
// (created below on the first pass), and onConnect's duplicate check — which
// guards against bounded-wait re-sends, not probe re-drives — would drop them.
func (m *Monitor) connectRemote(ctx exec.Context, cm *ctlmsg.Msg) {
	dst := m.hostName(cm)
	c := m.shardOf(cm.ConnID).conn(cm.ConnID)
	c.advance(dialing)
	c.pids, c.peerHost = [2]int{int(cm.PID), 0}, dst
	fwd := *cm
	fwd.Kind = ctlmsg.KMSyn
	fwd.SetHost(m.H.Name) // origin (unused by the peer; it trusts the channel)
	m.sendOrPark(ctx, m.peerOf(dst), &fwd, cm)
}

func (m *Monitor) fail(ctx exec.Context, pid int, cm *ctlmsg.Msg, status uint8) {
	res := ctlmsg.Msg{Kind: ctlmsg.KConnectRes, ConnID: cm.ConnID, Status: status,
		TraceID: cm.TraceID, SpanID: cm.SpanID}
	m.sendTo(ctx, pid, &res, false)
}

func (m *Monitor) dispatchIntra(ctx exec.Context, pc *procChan, cm *ctlmsg.Msg) {
	ref, st := m.pickListener(cm.Port)
	if st != ctlmsg.StatusOK {
		m.fail(ctx, pc.p.PID, cm, st)
		return
	}
	ringCap := m.H.Limits.RingCap
	if ringCap == 0 {
		ringCap = core.RingCap
	}
	is := core.NewIntraSock(m.H.SHM, &m.intraIdle, cm.ConnID, ringCap)
	sh := m.shardOf(cm.ConnID)
	c := sh.conn(cm.ConnID)
	c.advance(queued)
	c.pids, c.shmTok = [2]int{pc.p.PID, ref.pid}, is.Tok
	c.lport, c.lref = cm.Port, ref
	m.ConnsDispatched++
	mDispatches.Inc()

	nc := ctlmsg.Msg{
		Kind: ctlmsg.KNewConn, ConnID: cm.ConnID, Port: cm.Port,
		Transport: ctlmsg.TransportSHM, ShmToken: uint64(is.Tok),
		PID: cm.PID, TID: int64(ref.tid),
		TraceID: cm.TraceID, SpanID: cm.SpanID,
	}
	m.sendTo(ctx, ref.pid, &nc, true)

	res := ctlmsg.Msg{
		Kind: ctlmsg.KConnectRes, ConnID: cm.ConnID, Status: ctlmsg.StatusOK,
		Transport: ctlmsg.TransportSHM, ShmToken: uint64(is.Tok),
		PID:     int64(ref.pid),
		TraceID: cm.TraceID, SpanID: cm.SpanID,
	}
	m.sendTo(ctx, pc.p.PID, &res, false)
}

// --- token arbitration (§4.1.1) ---

func (m *Monitor) onTakeover(ctx exec.Context, pc *procChan, cm *ctlmsg.Msg) {
	key := tokKey{qid: cm.QID, dir: cm.Dir, side: cm.SrcPort}
	if !key.valid() {
		mBadCtlmsg.Inc()
		return
	}
	c := m.shardOf(key.qid).conn(key.qid)
	if c.tok == nil {
		c.tok = new([4]tokState)
	}
	ts := &c.tok[key.idx()]
	me := waiterRef{pid: int(cm.PID), tid: int(cm.TID)}
	dup := slices.Contains(ts.waiters, me)
	if !dup {
		ts.waiters = append(ts.waiters, me)
	}
	first, revoking := len(ts.waiters) == 1 && !dup, ts.revokeSent
	holder := core.GTID(cm.Aux)
	if holder != 0 && m.pidDead(holder.PID()) {
		// The recorded holder is a corpse: nothing will ever return the
		// token, so the monitor reclaims it and grants directly (the
		// waiter's grant handler overwrites the holder word in SHM).
		holder = 0
	}
	switch {
	case !first:
		if dup && !revoking && holder != 0 {
			// Re-request after a snatched grant: restart the revoke chain.
			m.revoke(ctx, key, holder.PID())
		}
		// Otherwise already revoking; the FIFO queue holds this waiter.
	case holder == 0:
		m.grantNext(ctx, key)
	default:
		m.revoke(ctx, key, holder.PID())
	}
}

// revoke asks pid, the token's holder, to give it back — a signal
// interrupts a process that is outside libsd — and marks the revoke
// outstanding; crash cleanup answers it if pid dies before returning the
// token.
func (m *Monitor) revoke(ctx exec.Context, key tokKey, pid int) {
	if ts := m.shardOf(key.qid).tok(key); ts != nil {
		ts.revokeSent, ts.revokeTo = true, pid
	}
	rev := ctlmsg.Msg{Kind: ctlmsg.KTokenReturn, QID: key.qid, Dir: key.dir, SrcPort: key.side}
	m.sendTo(ctx, pid, &rev, true)
}

func (m *Monitor) onTokenReturned(ctx exec.Context, cm *ctlmsg.Msg) {
	key := tokKey{qid: cm.QID, dir: cm.Dir, side: cm.SrcPort}
	if !key.valid() {
		mBadCtlmsg.Inc()
		return
	}
	ts := m.shardOf(key.qid).tok(key)
	if ts != nil {
		ts.revokeSent = false
		ts.revokeTo = 0
	}
	pending := ts != nil && len(ts.waiters) > 0
	if pending {
		m.grantNext(ctx, key)
	}
}

func (m *Monitor) grantNext(ctx exec.Context, key tokKey) {
	ts := m.shardOf(key.qid).tok(key)
	if ts == nil || len(ts.waiters) == 0 {
		return
	}
	w := ts.waiters[0]
	ts.waiters = ts.waiters[1:]
	more := len(ts.waiters) > 0
	m.TokensGranted++
	mTokensGranted.Inc()

	grant := ctlmsg.Msg{
		Kind: ctlmsg.KTokenGrant, QID: key.qid, Dir: key.dir,
		PID: int64(w.pid), TID: int64(w.tid),
	}
	m.sendTo(ctx, w.pid, &grant, false)
	if more {
		// The new holder immediately owes the token to the next waiter.
		m.revoke(ctx, key, w.pid)
	}
}

// --- work stealing (§4.5.2) ---

func (m *Monitor) onAcceptHint(ctx exec.Context, pc *procChan, cm *ctlmsg.Msg) {
	sh := m.shardOfPort(cm.Port)
	// Pick a victim: any other listener on the port.
	thief := listenerRef{pid: int(cm.PID), tid: int(cm.TID)}
	var victim listenerRef
	if pr := sh.ports[cm.Port]; pr != nil {
		for _, r := range pr.refs {
			if r.listenerRef != thief {
				victim = r.listenerRef
				break
			}
		}
	}
	if victim == (listenerRef{}) {
		return
	}
	sh.stealSeq++
	id := sh.stealSeq
	sh.steals[id] = stealReq{thief: thief, victim: victim}
	req := ctlmsg.Msg{Kind: ctlmsg.KStealReq, Port: cm.Port, TID: int64(victim.tid), Aux: id}
	m.sendTo(ctx, victim.pid, &req, true)
}

func (m *Monitor) onStealRes(ctx exec.Context, pc *procChan, cm *ctlmsg.Msg) {
	sh := m.shardOfPort(cm.Port)
	sr, ok := sh.steals[cm.Aux]
	delete(sh.steals, cm.Aux)
	if !ok || cm.Status != ctlmsg.StatusOK {
		return
	}
	mWorkSteals.Inc()
	// Re-dispatch the stolen descriptor to the thief.
	nc := *cm
	nc.Kind = ctlmsg.KNewConn
	nc.Status = 0
	nc.TID = int64(sr.thief.tid)
	// The stolen connection's record lives on the connection's shard,
	// which is generally not this (port-keyed) one.
	if c := m.shardOf(cm.ConnID).conns[cm.ConnID]; c != nil {
		c.pids[1] = sr.thief.pid // the stolen conn now terminates at the thief
		if c.phase == queued {
			// The admission slot moves with the descriptor: the victim's
			// backlog shrank, the thief's grew. Its KAcceptDone (sent when
			// the thief finishes the accept) must release the thief's slot.
			m.releaseBacklogSlot(cm.Port, sr.victim)
			c.lref = sr.thief
			if r := sh.ports[cm.Port].slot(c.lref); r != nil {
				r.used++
			}
		}
	}
	m.sendTo(ctx, sr.thief.pid, &nc, true)
}

// --- QP splice: an inherited socket's first QP (§4.1.2) or a recovery ---

func (m *Monitor) onReQP(ctx exec.Context, pc *procChan, cm *ctlmsg.Msg) {
	peerHost := cm.HostStr()
	fwd := *cm
	fwd.Kind = ctlmsg.KReQPPeer
	fwd.Aux = uint64(cm.PID) // requester pid rides along for reply routing
	fwd.SetHost(m.H.Name)    // the child's host, for qp.Connect on the peer
	if peerHost == "" || peerHost == m.H.Name {
		// Intra-host RDMA does not exist; nothing to do.
		return
	}
	if cm.Dir == ctlmsg.ReQPFork {
		sh := m.shardOf(cm.QID)
		if c := sh.conn(cm.QID); c.phase == bare {
			// An inherited socket's first splice, and this host never heard
			// of the connection: it came with a migrated container (§4.1.3).
			// The requester is its endpoint here now, so its death reaches
			// the peer.
			delete(sh.departed, cm.QID)
			c.advance(adopted)
			c.pids[0], c.peerHost = int(cm.PID), peerHost
		}
	}
	// Queued if the channel is dead or not yet probed (a restarted monitor
	// starts with no channels at all), so the request reaches the peer as
	// soon as a channel does. The requester also re-sends on its attempt
	// deadline, with a new nonce, and tolerates the duplicate.
	m.mchanSend(ctx, peerHost, &fwd, true)
}
