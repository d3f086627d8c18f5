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
	"sync"
	"sync/atomic"

	"socksdirect/internal/core"
	"socksdirect/internal/ctlmsg"
	"socksdirect/internal/exec"
	"socksdirect/internal/host"
	"socksdirect/internal/ksocket"
	"socksdirect/internal/monitor/shard"
	"socksdirect/internal/obs"
	"socksdirect/internal/rdma"
	"socksdirect/internal/shm"
	"socksdirect/internal/telemetry"
)

// ctlRingCap sizes each process's per-shard control duplex.
const ctlRingCap = 64 * 1024

// Policy decides whether a local process owned by uid may connect to
// (dstHost, dstPort). The default allows everything.
type Policy func(uid int, dstHost string, dstPort uint16) bool

// Monitor is the per-host control-plane daemon.
type Monitor struct {
	H  *host.Host
	KS *ksocket.Stack // kernel sockets for the fallback path (may be nil)

	mu       sync.Mutex
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

	probeSeq  uint16
	probeDone []probeResult
	rescueL   *ksocket.Listener // TCP listener for mid-stream degradation (§4.5.3)
	deaths    []int             // pids awaiting crash cleanup (lifeline queue)
	deadPIDs  map[int]struct{}  // pids already cleaned up (idempotence)

	// Restart survivability: each incarnation carries a monotonically
	// increasing epoch; messages stamped by a previous incarnation are
	// stale and dropped (they may describe state the restart invalidated).
	epoch     uint32
	needReReg []int // pids owed a KReRegister after a restart

	// Inter-host liveness (heartbeat.go): the tick clock and the traffic gate.
	hbLastTick   int64
	hbArmed      bool   // a clock-driven tick wake is pending
	hbTimerCb    func() // cached timer callback (one allocation per monitor)
	lastActivity int64  // last real (non-heartbeat) control-plane traffic

	thread  exec.Thread // the router loop; shard loops live on their mshard
	stopped bool

	// Stats for §6-style accounting.
	ConnsDispatched int
	TokensGranted   int
}

// procChan is the monitor's half of one process's registration: one
// control duplex per shard (monitor holds side B; index = shard number).
type procChan struct {
	p  *host.Process
	ds []*shm.Duplex
}

// kernL is one dual kernel listener with the port it serves.
type kernL struct {
	port uint16
	kl   *ksocket.Listener
}

// peer is everything the router knows about one remote host. The record is
// made at the first mention of the host and outlives its channel: the dead
// latch and deadEpoch must survive the channel they condemned. Guarded by
// Monitor.mu.
type peer struct {
	name string
	mc   *mchan // monitor channel; nil = none, probe before sending

	// Liveness (heartbeat.go).
	tracked   bool   // under liveness watch
	lastHeard int64  // virtual time of the last receipt (0 = never)
	missed    int    // consecutive ticks without a receipt
	suspected bool   // crossed the suspect threshold this episode
	dead      bool   // confirmed dead; no re-fan until heard again
	deadEpoch uint32 // highest incarnation already fanned dead
	epoch     uint32 // highest incarnation heard
	lastSent  int64  // virtual time of our last beacon/echo

	// Probe (probe.go).
	probing bool          // a probe is in flight (dedup)
	probes  []*ctlmsg.Msg // connects awaiting it
	mqueue  []*ctlmsg.Msg // ctl msgs awaiting a healed channel
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
	}
	m.shards = make([]*mshard, shard.DefaultCount)
	for i := range m.shards {
		m.shards[i] = newShard(m, i)
	}
	// Heartbeat timer callback, created once: armHeartbeat runs on every
	// park cycle and a fresh closure per arm would show up in steady-state
	// allocation profiles.
	m.hbTimerCb = func() {
		m.mu.Lock()
		m.hbArmed = false
		stopped := m.stopped
		m.mu.Unlock()
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
		m.mu.Lock()
		if m.stopped {
			m.mu.Unlock()
			return
		}
		m.deaths = append(m.deaths, pid)
		m.mu.Unlock()
		m.wake()
	})
	if ks != nil {
		ks.TCP().SetSynFilter(m.synFilter)
		// Rescue listener: accepts the kernel TCP connections that replace
		// a failed RDMA path mid-stream (§4.5.3; see core/tcpep.go).
		if rl, err := ks.Listen(rescuePort); err == nil {
			rl.SetNotify(m.wake)
			m.rescueL = rl
		}
	}
	m.thread = h.RT.SpawnOn(h.NextCore(), h.Name+"/monitor", m.run)
	for _, sh := range m.shards {
		sh.thread = h.RT.SpawnOn(h.NextCore(),
			fmt.Sprintf("%s/monitor/shard%d", h.Name, sh.idx), sh.run)
	}
	return m
}

// SetPolicy installs the access-control policy.
func (m *Monitor) SetPolicy(p Policy) {
	m.mu.Lock()
	m.policy = p
	m.mu.Unlock()
}

// Stop terminates the router and every shard loop. It is idempotent (a
// second Stop is a no-op) and draining: kernel listeners and the rescue
// listener are closed so the ports are free for a successor incarnation,
// and every thread that parked itself against this monitor (KSleepNote)
// is woken once — a parked sleeper whose only doorbell was this daemon
// must not leak.
func (m *Monitor) Stop() {
	m.mu.Lock()
	if m.stopped {
		m.mu.Unlock()
		return
	}
	m.stopped = true
	kls := make([]*ksocket.Listener, 0, len(m.kernLs)+1)
	for _, k := range m.kernLs {
		kls = append(kls, k.kl)
	}
	m.kernLs = nil
	if m.rescueL != nil {
		kls = append(kls, m.rescueL)
		m.rescueL = nil
	}
	var asleep []int
	for _, sh := range m.shards {
		asleep = slices.AppendSeq(asleep, maps.Keys(sh.sleepers))
	}
	slices.Sort(asleep)
	m.mu.Unlock()
	for _, kl := range kls {
		kl.Close()
	}
	for _, pid := range asleep {
		m.wakeSleepers(pid)
	}
	m.wakeAll()
}

// Epoch returns this incarnation's number (immutable once started).
func (m *Monitor) Epoch() uint32 { return m.epoch }

// Shards returns the number of control-plane shards this monitor runs.
func (m *Monitor) Shards() int { return len(m.shards) }

func (m *Monitor) wake() {
	if m.thread != nil {
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
// be a function of state, not of Go's map hash. Caller holds m.mu.
func (m *Monitor) rebuildProcList() {
	m.procList = m.procList[:0]
	for _, pc := range m.procs {
		m.procList = append(m.procList, pc)
	}
	sort.Slice(m.procList, func(i, j int) bool { return m.procList[i].p.PID < m.procList[j].p.PID })
}

// peerLocked returns the record of remote host name, making it at this
// first mention and filing it in peerList by name: the order the channels
// are drained in shifts every virtual timestamp downstream, so, as with
// procList, it must not be Go's map order. Caller holds m.mu.
func (m *Monitor) peerLocked(name string) *peer {
	p := m.peers[name]
	if p == nil {
		p = &peer{name: name}
		m.peers[name] = p
		m.peerList = append(m.peerList, p)
		slices.SortFunc(m.peerList, func(a, b *peer) int { return strings.Compare(a.name, b.name) })
	}
	return p
}

// chanLocked returns the usable channel toward p, nil if it has none. One
// whose QP died (partition, injected fault) is dropped here, so the caller
// falls through to the probe that re-establishes it. Caller holds m.mu.
func (m *Monitor) chanLocked(p *peer) *mchan {
	if p.mc != nil && p.mc.qp.State() == rdma.QPErr {
		p.mc = nil
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
	m.mu.Lock()
	m.procs[p.PID] = &procChan{p: p, ds: ds}
	m.rebuildProcList()
	m.mu.Unlock()
	m.wakeAll()
	// The doorbell resolves through h.Mon at ring time, not through this
	// incarnation: after a restart the successor adopts the duplexes, and
	// the process's nudges must reach the live daemon, not the dead one.
	h := m.H
	return &core.ProcLink{Ds: ds, WakeMonitor: func(s int) {
		if cur, ok := h.Mon.(*Monitor); ok {
			cur.wakeShard(s)
		}
	}, MonitorHost: m.H.Name, Epoch: m.epoch}
}

// RegisterChild pairs a forked child using the secret its parent deposited
// before forking (§4.1.2 "Security"). An unknown secret is rejected.
func (m *Monitor) RegisterChild(p *host.Process, secret uint64) *core.ProcLink {
	m.mu.Lock()
	parent, ok := m.secrets[secret]
	if ok {
		delete(m.secrets, secret)
	}
	m.mu.Unlock()
	if !ok || p.Parent == nil || p.Parent.PID != parent {
		return nil
	}
	return m.RegisterProcess(p)
}

// run is the router loop: the one thread that owns globally-keyed work.
// It drains monitor channels (forwarding keyed messages to the owning
// shard's inbox), kernel and rescue listeners, probe results, crash
// cleanup and restart re-registration, and ticks heartbeats. Everything
// keyed by port/connection/PID runs on the shard loops (shards.go).
func (m *Monitor) run(ctx exec.Context) {
	idle := 0
	// Snapshot scratch, reused across iterations: the daemon spins hot
	// between parks, and per-iteration slice churn would dominate the
	// process's allocation profile.
	var mchs []*mchan
	var kls []kernL
	// One wake closure for the whole run: taking m.wake as a method value
	// at every park would allocate per park cycle.
	wakeFn := m.wake
	for {
		m.mu.Lock()
		if m.stopped {
			m.mu.Unlock()
			return
		}
		mchs = mchs[:0]
		for _, p := range m.peerList {
			if p.mc != nil {
				mchs = append(mchs, p.mc)
			}
		}
		kls = append(kls[:0], m.kernLs...)
		m.mu.Unlock()

		// progress: anything consumed this iteration (keep spinning).
		// real: non-heartbeat traffic — heartbeat receipts alone must not
		// count as activity, or two idle peered monitors would keep each
		// other's beacons alive forever and the run would never quiesce.
		progress, real := false, false
		m.mu.Lock()
		deaths := m.deaths
		m.deaths = nil
		rereg := m.needReReg
		m.needReReg = nil
		m.mu.Unlock()
		for _, pid := range deaths {
			m.cleanupProcess(ctx, pid)
			progress, real = true, true
		}
		for _, pid := range rereg {
			m.reRegister(ctx, pid)
			progress, real = true, true
		}
		m.mu.Lock()
		probes := m.probeDone
		m.probeDone = nil
		m.mu.Unlock()
		for _, pr := range probes {
			m.finishProbes(ctx, pr.dst, pr)
			progress, real = true, true
		}
		for _, mc := range mchs {
			for {
				cm, ok := mc.recv()
				if !ok {
					break
				}
				ctx.Charge(m.H.Costs.RDMAPost)
				progress = true
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
		for _, k := range kls {
			if k.kl.PendingHint() > 0 {
				m.acceptFallback(ctx, k.port, k.kl)
				progress, real = true, true
			}
		}
		if m.rescueL != nil && m.rescueL.PendingHint() > 0 {
			m.acceptRescue(ctx)
			progress, real = true, true
		}
		if real {
			m.mu.Lock()
			m.lastActivity = ctx.Now()
			m.mu.Unlock()
		}
		m.tickHeartbeats(ctx)

		if progress && real {
			idle = 0
			continue
		}
		// Heartbeat-only progress lands here too: liveness is booked and
		// the mchan drain loop already emptied the channel, so a beacon
		// does not earn the hot-spin window real traffic gets — otherwise
		// every 2 ms tick would burn a full spin budget on both monitors
		// for the whole quiet window.
		idle++
		if idle < 256 {
			ctx.Charge(m.H.Costs.RingOp)
			idle += ctx.Spin(m.H.Costs.RingOp, 0, 255-idle, (*routerIdler)(m))
			continue
		}
		for _, mc := range mchs {
			mc.armWake(wakeFn) // fire immediately if traffic raced in
		}
		m.armHeartbeat(ctx)
		ctx.Park() // woken by mchan arrivals / notifications / hb timer
		// Resume one step short of re-parking: the wake's cargo is drained
		// in the next iteration, and only *real* traffic (idle = 0 above)
		// buys back the hot-spin window. A timer or beacon wake re-parks
		// after a single pass instead of 256 idle spins.
		idle = 255
	}
}

// routerIdler is the Monitor as idle predicate of the router loop: the daemon
// runs, no crash, re-registration or probe result is queued, no monitor
// channel has a completion, no listener a connection, no heartbeat is due.
type routerIdler Monitor

func (r *routerIdler) Idle(now int64) bool {
	m := (*Monitor)(r)
	if !m.mu.TryLock() {
		return false
	}
	defer m.mu.Unlock()
	if m.stopped || len(m.deaths)+len(m.needReReg)+len(m.probeDone) > 0 || m.hbDueLocked(now) ||
		(m.rescueL != nil && m.rescueL.PendingHint() > 0) {
		return false
	}
	for _, p := range m.peerList {
		if p.mc != nil && p.mc.recvCQ.Len() > 0 {
			return false
		}
	}
	for _, k := range m.kernLs {
		if k.kl.PendingHint() > 0 {
			return false
		}
	}
	return true
}

// routeRemote hands an mchan arrival to the shard owning its key.
// Heartbeats never leave the router: they carry no state key and their
// handler (the rate-limited echo) touches only the router-owned peer
// record.
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
	m.mu.Lock()
	if capN := MonInboxCap(); capN > 0 && len(sh.inbox) >= capN &&
		cm.Kind == ctlmsg.KMSyn {
		// Shard saturated: shed the one kind that is safely refusable. A
		// SYN turned away here costs the dialer a retryable ECONNREFUSED;
		// every other kind is a step of an in-flight protocol (acks, death
		// notices, QP recovery) whose loss would wedge it, so those always
		// append — the cap bounds admission, not correctness.
		sh.cInboxShed.Inc()
		m.mu.Unlock()
		obs.Trigger(obs.TrigOverloadShed, ctx.Now(),
			"monitor shard inbox full: SYN shed with backlog-full refusal")
		r := ctlmsg.Msg{Kind: ctlmsg.KMRefused, ConnID: cm.ConnID,
			Status: ctlmsg.StatusBacklogFull, Epoch: m.epoch,
			TS: ctx.Now(), TraceID: cm.TraceID, SpanID: cm.SpanID}
		mc.send(&r)
		return
	}
	sh.inbox = append(sh.inbox, ev)
	m.mu.Unlock()
	sh.wake()
}

// sendTo queues a control message to a local process and pokes it with a
// signal if needed (the §4.4 interrupt path is the signal itself; the
// handler drains the queue when the process is busy outside libsd). The
// message travels on the plane its key routes to, so a request and its
// reply share a shard and per-key ordering holds end to end.
func (m *Monitor) sendTo(ctx exec.Context, pid int, cm *ctlmsg.Msg, signal bool) {
	m.mu.Lock()
	pc := m.procs[pid]
	m.mu.Unlock()
	if pc == nil {
		return
	}
	cm.Epoch = m.epoch // everything we say is stamped with our incarnation
	if cm.TraceID != 0 {
		cm.TS = ctx.Now() // queue-hop start for the receiver's span
	}
	s := shard.ForMsg(cm, len(m.shards))
	cm.Shard = uint8(s)
	var buf [ctlmsg.Size]byte
	b := cm.Marshal(buf[:])
	for !pc.ds[s].B().TX.TrySend(0, 0, b) {
		if pc.p.Dead() {
			// A corpse never drains its ring; spinning here would wedge
			// the whole control plane behind one dead process.
			return
		}
		ctx.Yield()
	}
	if signal && !pc.p.Dead() {
		pc.p.Signal(ctx, host.SIGUSR1)
	}
}

// pidDead reports whether a local pid no longer has a live process behind
// it (unknown pids count as dead: the process was reaped).
func (m *Monitor) pidDead(pid int) bool {
	p := m.H.Process(pid)
	return p == nil || p.Dead()
}

// cleanupProcess is the monitor half of the crash path (§3.1: the monitor
// is the trusted party that must reclaim whatever an untrusted process
// held). It runs on the router thread under the shared mutex, sweeping
// every shard's partition of the corpse's state — so one pass is
// serialized against all shard dispatch, exactly as the single-loop
// design was. In order: forget the corpse's control queues, listener
// registrations, sleep notes, fork secrets and pending routing state;
// unstick token arbitration (a revoke sent to the corpse is answered on
// its behalf, so fork/thread sharers resume via the normal §4.1 takeover
// path); then notify every peer — KPeerDead to local survivors (plus a
// wake, they may be parked) and over the monitor channel for inter-host
// sockets — and remove SHM segments of sockets with no surviving
// endpoint.
func (m *Monitor) cleanupProcess(ctx exec.Context, pid int) {
	m.mu.Lock()
	if _, done := m.deadPIDs[pid]; done {
		m.mu.Unlock()
		return
	}
	m.deadPIDs[pid] = struct{}{}
	delete(m.procs, pid)
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
		delete(sh.sleepers, pid)
		// Listener registrations go, and the backlog occupancy charged to
		// them: a record still queued there finds no slot to release later.
		for _, pr := range sh.ports {
			pr.refs = slices.DeleteFunc(pr.refs, func(r listenerSlot) bool { return r.pid == pid })
		}
		maps.DeleteFunc(sh.steals, func(_ uint64, sr stealReq) bool { return sr.thief.pid == pid })
		for qid, c := range sh.conns {
			regrant = c.forget(pid, qid, regrant)
			if !c.dispatched() {
				// A reported pending dial or a takeover's queues: with nobody
				// left waiting on them there is no local party.
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
	m.mu.Unlock()
	// Ascending IDs, not map order: the re-grants and resets go out 2 000
	// sim-ns apart, and a schedule that differs run to run cannot be shrunk.
	slices.SortFunc(regrant, func(a, b tokKey) int {
		return cmp.Or(cmp.Compare(a.qid, b.qid), cmp.Compare(a.dir, b.dir), cmp.Compare(a.side, b.side))
	})
	slices.SortFunc(notes, func(a, b peerNote) int { return cmp.Compare(a.qid, b.qid) })

	mCrashCleanups.Inc()
	if telemetry.Trace.Enabled() {
		telemetry.Trace.Emit(ctx.Now(), "monitor", "crash_cleanup",
			telemetry.A("pid", int64(pid)))
	}
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
		m.wakeSleepers(n.local)
	}
}

// survivorClosed reports whether the surviving endpoint (pid) of an
// intra-host connection whose other process just died had already closed
// its end, claiming the connection's release for crash cleanup if so: the
// close path and this one race for IntraSock.released, so the segment is
// released once and the rings — a corpse was attached — never re-issued.
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
	m.mu.Lock()
	sh.closed = append(sh.closed, qid)
	m.mu.Unlock()
	sh.wake()
}

// LiveConnRecords reports how many connection records the monitor holds
// over all shards after applying every queued ConnClosed note: the figure
// that must return to its baseline when connections are closed, and when
// the processes that held them die.
func (m *Monitor) LiveConnRecords() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := 0
	for _, sh := range m.shards {
		sh.reclaimClosedLocked()
		n += len(sh.conns)
	}
	return n
}

// DetachProcess takes pid off its connection records without the crash
// fan-out. Container live migration (§4.1.3) moves the sockets — ring
// memory, QIDs and all — to another host and then kills the husk left
// at the source; treating that kill as a crash would reset perfectly
// healthy connections (and drop the peer monitor's routing entry the
// migrated process needs for its QP re-splice). A record whose other
// endpoint lives here stays with that endpoint. The lifeline still runs
// afterwards and reclaims everything else the pid held.
func (m *Monitor) DetachProcess(pid int) {
	m.mu.Lock()
	for _, sh := range m.shards {
		for qid, c := range sh.conns {
			i := slices.Index(c.pids[:], pid)
			if i < 0 {
				continue
			}
			if other := c.pids[1-i]; other == 0 || other == pid || m.pidDead(other) {
				sh.dropConn(qid)
				continue
			}
			c.pids[i] = 0
			if c.owner == pid {
				c.owner = 0
			}
		}
	}
	m.mu.Unlock()
}

// CrashConverged verifies that no monitor state still refers to a dead
// process — the post-drill invariant the crash experiment asserts.
func (m *Monitor) CrashConverged() error {
	m.mu.Lock()
	defer m.mu.Unlock()
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
		for pid := range sh.sleepers {
			if m.pidDead(pid) {
				return fmt.Errorf("monitor: dead pid %d still has sleep notes", pid)
			}
		}
		for qid, c := range sh.conns {
			// Intra- and inter-host alike: a record is its local endpoints'.
			if c.dispatched() && gone(c.pids[0]) && gone(c.pids[1]) {
				return fmt.Errorf("monitor: conn %d has no live endpoint but was not reclaimed", qid)
			}
			for _, pid := range append(c.awaited(), c.owner) {
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
	name, arg, hop, hist := "ctl/", telemetry.A("pid", cm.PID), obs.HopMonDispatch, mDispatchIntra
	if mc != nil {
		name, arg, hop, hist = "remote/", telemetry.A("port", int64(cm.Port)), obs.HopPeerDispatch, mDispatchInter
	}
	if telemetry.Trace.Enabled() {
		telemetry.Trace.Emit(ctx.Now(), "monitor", name+cm.Kind.String(), arg)
	}
	start := ctx.Now()
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
	if slo := obs.SLO(); slo > 0 && end-start > slo {
		obs.Trigger(obs.TrigSLOBreach, end, "monitor dispatch over SLO: "+ctlmsg.Kind(kind).String())
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
		m.mu.Lock()
		m.secrets[cm.Secret] = int(cm.PID)
		m.mu.Unlock()
		// Ack so the parent knows the deposit landed before it forks. The
		// PID keeps the reply on the request's shard plane.
		ack := ctlmsg.Msg{Kind: ctlmsg.KForkSecret, Secret: cm.Secret,
			PID: cm.PID, Status: ctlmsg.StatusOK}
		m.sendTo(ctx, int(cm.PID), &ack, false)
	case ctlmsg.KWake:
		m.wakeThread(int(cm.PID), int(cm.TID))
	case ctlmsg.KSleepNote:
		// Record the parked thread so recovery-path control messages
		// (KReQPPeer/KReQPRes/KDegraded) can nudge it: a process whose only
		// RDMA path is dead has no CQE or ring doorbell left to wake it.
		m.noteSleeper(int(cm.PID), int(cm.TID))
	case ctlmsg.KPing:
		// Liveness probe from a bounded control-plane wait: any answer —
		// stamped with the current epoch — proves this shard's loop is
		// alive. The echoed Shard field keeps the pong on the pinged plane
		// (KPong has no state key; the stamp IS its address).
		pong := ctlmsg.Msg{Kind: ctlmsg.KPong, PID: cm.PID, Shard: cm.Shard}
		m.sendTo(ctx, int(cm.PID), &pong, false)
	case ctlmsg.KReRegistered:
		m.onReRegistered(ctx, pc, cm)
	case ctlmsg.KDegrade:
		m.onDegrade(ctx, pc, cm)
	case ctlmsg.KAcceptHint:
		m.onAcceptHint(ctx, pc, cm)
	case ctlmsg.KStealRes:
		m.onStealRes(ctx, pc, cm)
	case ctlmsg.KAcceptDone:
		// A listener drained the dispatched connection from its backlog:
		// free the admission slot pickListener claimed for it. Unknown or
		// already-released ConnIDs no-op (a restarted monitor's resurrected
		// records carry queued=false — the occupancy died with the incarnation).
		sh := m.shardOf(cm.ConnID)
		m.mu.Lock()
		if c := sh.conns[cm.ConnID]; c != nil && c.queued {
			c.queued = false
			m.releaseBacklogSlotLocked(c.lport, c.lref)
		}
		m.mu.Unlock()
	case ctlmsg.KMSynAck:
		// Server libsd finished building its endpoint: relay to the
		// client's monitor.
		var to string
		m.mu.Lock()
		if x := m.shardOf(cm.ConnID).ext(cm.ConnID); x != nil {
			to = x.synAckTo
		}
		m.mu.Unlock()
		if to != "" && to != m.H.Name {
			m.mchanSend(ctx, to, cm, true)
		}
	case ctlmsg.KReQP:
		m.onReQP(ctx, pc, cm)
	case ctlmsg.KReQPRes:
		// Peer libsd built the extra QP; route back to the forked child's
		// host monitor.
		var dst string
		m.mu.Lock()
		if x := m.shardOf(cm.QID).ext(cm.QID); x != nil {
			dst = x.reqpFrom
		}
		m.mu.Unlock()
		if dst != "" {
			// Not queued on a dead channel: the requester re-sends KReQP on
			// its recovery deadline, regenerating this response.
			m.mchanSend(ctx, dst, cm, false)
		}
	}
}

// mchanSend delivers cm to dst's monitor over the monitor channel, healing
// the channel first if its QP died (e.g. after a network partition killed
// it mid-stream). With queue set, the message parks on the peer record and
// is flushed once a fresh channel is probed; otherwise it is dropped — used
// for messages the far end regenerates on retry — but a heal probe is
// still launched so the retry finds a working channel.
func (m *Monitor) mchanSend(ctx exec.Context, dst string, cm *ctlmsg.Msg, queue bool) {
	cm.Epoch = m.epoch
	if cm.TraceID != 0 {
		cm.TS = ctx.Now() // flight-hop start for the peer monitor's span
	}
	m.mu.Lock()
	p := m.peerLocked(dst)
	if mc := m.chanLocked(p); mc != nil {
		m.mu.Unlock()
		mc.send(cm)
		return
	}
	if queue {
		cp := *cm
		p.mqueue = append(p.mqueue, &cp)
	}
	launch := !p.probing
	p.probing = true
	m.mu.Unlock()
	if launch {
		m.probe(ctx, dst)
	}
}

// noteSleeper records that thread tid of pid parked in interrupt mode.
func (m *Monitor) noteSleeper(pid, tid int) {
	m.mu.Lock()
	sl := m.shardOfPID(pid).sleepers
	if sl[pid] == nil {
		sl[pid] = make(map[int]struct{})
	}
	sl[pid][tid] = struct{}{}
	m.mu.Unlock()
}

// wakeSleepers unparks every thread of pid that reported itself asleep via
// KSleepNote. Spurious wakes are fine (blockOnRecv re-checks and re-parks);
// missing a wake is not, since a process with a dead QP gets no doorbell.
func (m *Monitor) wakeSleepers(pid int) {
	m.mu.Lock()
	sl := m.shardOfPID(pid).sleepers
	tids := sl[pid]
	delete(sl, pid)
	m.mu.Unlock()
	// By thread ID: threads woken for the same instant run in the order
	// their wake-ups were scheduled.
	for _, tid := range slices.Sorted(maps.Keys(tids)) {
		m.wakeThread(pid, tid)
	}
}

// dispatchRemote is handle's routing switch for monitor-channel arrivals.
func (m *Monitor) dispatchRemote(ctx exec.Context, mc *mchan, cm *ctlmsg.Msg) {
	switch cm.Kind {
	case ctlmsg.KMSyn:
		sh := m.shardOf(cm.ConnID)
		m.mu.Lock()
		c := sh.conns[cm.ConnID]
		dup := c != nil && c.dispatched()
		m.mu.Unlock()
		if dup {
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
		m.mu.Lock()
		c = sh.conn(cm.ConnID)
		c.pids, c.owner, c.peerHost = [2]int{0, ref.pid}, ref.pid, mc.peer
		c.lport, c.lref, c.queued = cm.Port, ref, true
		c.ext().synAckTo = mc.peer
		m.ConnsDispatched++
		m.mu.Unlock()
		mDispatches.Inc()
		nc := *cm
		nc.Kind = ctlmsg.KNewConn
		nc.Transport = ctlmsg.TransportRDMA
		nc.Port = cm.Port
		nc.TID = int64(ref.tid)
		nc.SetHost(mc.peer) // client host, for qp.Connect on the server
		m.sendTo(ctx, ref.pid, &nc, true)
	case ctlmsg.KMSynAck:
		client := 0
		m.mu.Lock()
		if x := m.shardOf(cm.ConnID).ext(cm.ConnID); x != nil {
			client = x.resTo
		}
		m.mu.Unlock()
		res := *cm
		res.Kind = ctlmsg.KConnectRes
		res.Status = ctlmsg.StatusOK
		res.Transport = ctlmsg.TransportRDMA
		res.SetHost(mc.peer) // server host
		m.sendTo(ctx, client, &res, false)
	case ctlmsg.KMRefused:
		// The dial is over; its record stays until the dialer gives the
		// connection up (ConnClosed) or dies.
		client := 0
		m.mu.Lock()
		if x := m.shardOf(cm.ConnID).ext(cm.ConnID); x != nil {
			client, x.resTo = x.resTo, 0
		}
		m.mu.Unlock()
		st := cm.Status
		if st == ctlmsg.StatusOK {
			// Older refusals carried no status; no-listener is the only
			// thing they could have meant.
			st = ctlmsg.StatusNoListener
		}
		m.fail(ctx, client, cm, st)
	case ctlmsg.KReQPPeer:
		sh := m.shardOf(cm.QID)
		m.mu.Lock()
		owner := sh.owner(cm.QID)
		if owner != 0 {
			// Only for a connection still on record here: a splice request
			// for one this host gave up (an abandoned dial) finds nobody to
			// answer it and must leave no route behind.
			sh.conns[cm.QID].ext().reqpFrom = mc.peer
		}
		m.mu.Unlock()
		if owner != 0 {
			m.sendTo(ctx, owner, cm, true)
			m.wakeSleepers(owner)
		}
	case ctlmsg.KReQPRes:
		// Back at the requester's host: deliver to the requester.
		m.sendTo(ctx, int(cm.Aux), cm, true)
		m.wakeSleepers(int(cm.Aux))
	case ctlmsg.KPeerDead:
		// The remote monitor reclaimed a crashed process; tell the local
		// endpoint of the socket (and wake it — it may be parked with no
		// doorbell left to ring). The record loses its remote end and its
		// routing — nothing more can arrive for it, nor is the owner's death
		// the remote monitor's business now — and stays for the owner to end.
		sh := m.shardOf(cm.QID)
		m.mu.Lock()
		owner := sh.owner(cm.QID)
		if c := sh.conns[cm.QID]; c != nil {
			c.owner, c.peerHost = 0, ""
		}
		m.mu.Unlock()
		if owner != 0 {
			m.sendTo(ctx, owner, cm, true)
			m.wakeSleepers(owner)
		}
	}
}

func (m *Monitor) wakeThread(pid, tid int) {
	p := m.H.Process(pid)
	if p == nil {
		return
	}
	t := p.ThreadByTID(tid)
	if t == nil || t.H == nil {
		return
	}
	// Waking a sleeping process costs the kernel wakeup latency (§2.1.2).
	mWakes.Inc()
	th := t.H
	m.H.Clk.After(m.H.Costs.ProcessWakeup, func() { th.Unpark() })
}

// --- listen / bind ---

func (m *Monitor) onListen(ctx exec.Context, pc *procChan, cm *ctlmsg.Msg) {
	if cm.Status == 1 { // remove
		gone := listenerRef{pid: int(cm.PID), tid: int(cm.TID)}
		m.mu.Lock()
		if pr := m.shardOfPort(cm.Port).ports[cm.Port]; pr != nil {
			pr.refs = slices.DeleteFunc(pr.refs, func(r listenerSlot) bool { return r.listenerRef == gone })
		}
		m.mu.Unlock()
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
	m.mu.Lock()
	pr := sh.ports[port]
	if pr == nil {
		pr = &portRec{}
		sh.ports[port] = pr
	}
	if pr.slot(ref) != nil {
		m.mu.Unlock()
		return
	}
	pr.refs = append(pr.refs, listenerSlot{listenerRef: ref})
	needKern := m.KS != nil && !slices.ContainsFunc(m.kernLs, func(k kernL) bool { return k.port == port })
	m.mu.Unlock()
	if needKern {
		if kl, err := m.KS.Listen(port); err == nil {
			kl.SetNotify(m.wake)
			m.mu.Lock()
			m.kernLs = append(m.kernLs, kernL{port, kl})
			sort.Slice(m.kernLs, func(i, j int) bool { return m.kernLs[i].port < m.kernLs[j].port })
			m.mu.Unlock()
		}
	}
}

// pickListener round-robins over a port's listeners (§4.5.2), skipping
// listeners whose backlog occupancy sits at ListenerBacklogCap. On
// success it claims one backlog slot for the chosen listener (the caller
// must record the dispatch with queued=true so KAcceptDone/steal/cleanup
// release it). The status return distinguishes a port nobody listens on
// (StatusNoListener) from a port where every backlog is full
// (StatusBacklogFull → ECONNREFUSED at the dialer, retryable). Callable
// from any loop: a connect's shard (keyed by connection ID) is usually
// not the port's shard, and this cross-shard read under the shared mutex
// is the deliberate thin path between partitions.
func (m *Monitor) pickListener(port uint16) (listenerRef, uint8) {
	capN := ListenerBacklogCap()
	m.mu.Lock()
	defer m.mu.Unlock()
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

// releaseBacklogSlotLocked returns one claimed backlog slot (accept drained
// the connection, the dispatch was abandoned, or a steal moved it). A
// listener that has unregistered or died since took its count with it.
// Caller holds m.mu.
func (m *Monitor) releaseBacklogSlotLocked(port uint16, ref listenerRef) {
	if r := m.shardOfPort(port).ports[port].slot(ref); r != nil && r.used > 0 {
		r.used--
	}
}

// --- connect dispatch ---

func (m *Monitor) onConnect(ctx exec.Context, pc *procChan, cm *ctlmsg.Msg) {
	dst := cm.HostStr()
	m.mu.Lock()
	allowed := m.policy(pc.p.UID, dst, cm.Port)
	c := m.shardOf(cm.ConnID).conns[cm.ConnID]
	dup := c != nil && c.dispatched()
	m.mu.Unlock()
	if !allowed {
		m.fail(ctx, pc.p.PID, cm, ctlmsg.StatusDenied)
		return
	}
	if dup {
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

// connectRemote forwards a connect toward a remote host, probing first when
// no usable monitor channel exists. finishProbes re-drives queued connects
// through here directly: by then the conn record already exists (created
// below on the first pass), and onConnect's duplicate check — which guards
// against bounded-wait re-sends, not probe re-drives — would drop them.
func (m *Monitor) connectRemote(ctx exec.Context, cm *ctlmsg.Msg) {
	dst := cm.HostStr()
	sh := m.shardOf(cm.ConnID)
	m.mu.Lock()
	c := sh.conn(cm.ConnID)
	c.pids, c.owner, c.peerHost = [2]int{int(cm.PID), 0}, int(cm.PID), dst
	c.ext().resTo = int(cm.PID)
	p := m.peerLocked(dst)
	mc := m.chanLocked(p)
	if mc == nil {
		// No (usable) channel: probe the peer (special-option SYN) and queue
		// the connect — a copy, cm stays on its dispatch loop's stack — until
		// the probe resolves.
		cp := *cm
		p.probes = append(p.probes, &cp)
	}
	launch := mc == nil && !p.probing
	if launch {
		p.probing = true
	}
	m.mu.Unlock()
	if mc != nil {
		fwd := *cm
		fwd.Kind = ctlmsg.KMSyn
		fwd.Epoch = m.epoch
		if fwd.TraceID != 0 {
			fwd.TS = ctx.Now()
		}
		fwd.SetHost(m.H.Name) // origin (unused by the peer; it trusts the channel)
		mc.send(&fwd)
		return
	}
	if launch {
		m.probe(ctx, dst)
	}
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
	is := core.NewIntraSock(m.H.SHM, cm.ConnID, SockRingCap())
	seg := m.H.SHM.Create(fmt.Sprintf("intra-%d", cm.ConnID), is)
	sh := m.shardOf(cm.ConnID)
	m.mu.Lock()
	c := sh.conn(cm.ConnID)
	c.pids, c.owner, c.shmTok = [2]int{pc.p.PID, ref.pid}, ref.pid, seg.Token
	c.lport, c.lref, c.queued = cm.Port, ref, true
	m.ConnsDispatched++
	m.mu.Unlock()
	mDispatches.Inc()

	nc := ctlmsg.Msg{
		Kind: ctlmsg.KNewConn, ConnID: cm.ConnID, Port: cm.Port,
		Transport: ctlmsg.TransportSHM, ShmToken: uint64(seg.Token),
		PID: cm.PID, TID: int64(ref.tid),
		TraceID: cm.TraceID, SpanID: cm.SpanID,
	}
	m.sendTo(ctx, ref.pid, &nc, true)

	res := ctlmsg.Msg{
		Kind: ctlmsg.KConnectRes, ConnID: cm.ConnID, Status: ctlmsg.StatusOK,
		Transport: ctlmsg.TransportSHM, ShmToken: uint64(seg.Token),
		PID:     int64(ref.pid),
		TraceID: cm.TraceID, SpanID: cm.SpanID,
	}
	m.sendTo(ctx, pc.p.PID, &res, false)
}

// sockRingCap is the per-direction ring size of dispatched intra-host
// sockets, matching core's default. It is a variable, not a constant,
// because ring memory is the footprint limiter for drills that HOLD
// sockets open: 100k live sockets x two 128 KiB rings is ~25 GB. Churn
// does not need it — a closed connection's rings go back to the host's
// recycle list, so setup/teardown at the default size costs one pair of
// rings per connection in flight. Atomic so a drill can shrink it while
// monitors from an earlier scenario still run.
var sockRingCap = func() *atomic.Int64 {
	v := new(atomic.Int64)
	v.Store(128 * 1024)
	return v
}()

// SockRingCap returns the ring size used for newly dispatched intra-host
// sockets.
func SockRingCap() int { return int(sockRingCap.Load()) }

// SetSockRingCap overrides the ring size for subsequently dispatched
// intra-host sockets and returns the previous value. Existing sockets are
// unaffected.
func SetSockRingCap(n int) int { return int(sockRingCap.Swap(int64(n))) }

// listenerBacklogCap bounds dispatched-but-not-accepted connections per
// listener thread (the monitor-side SOMAXCONN). 0 = unbounded, the
// historical behavior; overload drills and operators set a real cap,
// turning a dial storm into retryable ECONNREFUSED instead of unbounded
// monitor state growth.
var listenerBacklogCap atomic.Int64

// ListenerBacklogCap returns the per-listener backlog cap (0 = unbounded).
func ListenerBacklogCap() int { return int(listenerBacklogCap.Load()) }

// SetListenerBacklogCap installs a per-listener backlog cap and returns
// the previous value. Applies to subsequent dispatches only.
func SetListenerBacklogCap(n int) int { return int(listenerBacklogCap.Swap(int64(n))) }

// monInboxCap bounds each shard's router-fed inbox. 0 = unbounded. At the
// cap, sheddable arrivals (inter-host SYNs) get an immediate
// StatusBacklogFull handback — the dialer sees a retryable ECONNREFUSED —
// instead of queueing without bound behind a saturated shard;
// protocol-critical kinds (acks, death notices) always append.
var monInboxCap atomic.Int64

// MonInboxCap returns the per-shard inbox cap (0 = unbounded).
func MonInboxCap() int { return int(monInboxCap.Load()) }

// SetMonInboxCap installs a per-shard inbox cap and returns the previous
// value.
func SetMonInboxCap(n int) int { return int(monInboxCap.Swap(int64(n))) }

// --- token arbitration (§4.1.1) ---

func (m *Monitor) onTakeover(ctx exec.Context, pc *procChan, cm *ctlmsg.Msg) {
	key := tokKey{qid: cm.QID, dir: cm.Dir, side: cm.SrcPort}
	if !key.valid() {
		mBadCtlmsg.Inc()
		return
	}
	m.mu.Lock()
	ts := &m.shardOf(key.qid).conn(key.qid).ext().tok[key.idx()]
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
	m.mu.Unlock()
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

// revoke asks pid, the token's holder, to give it back — the signal
// interrupts a busy process — and marks the revoke outstanding; crash
// cleanup answers it if pid dies before returning the token.
func (m *Monitor) revoke(ctx exec.Context, key tokKey, pid int) {
	m.mu.Lock()
	if ts := m.shardOf(key.qid).tok(key); ts != nil {
		ts.revokeSent, ts.revokeTo = true, pid
	}
	m.mu.Unlock()
	rev := ctlmsg.Msg{Kind: ctlmsg.KTokenReturn, QID: key.qid, Dir: key.dir, SrcPort: key.side}
	m.sendTo(ctx, pid, &rev, true)
}

func (m *Monitor) onTokenReturned(ctx exec.Context, cm *ctlmsg.Msg) {
	key := tokKey{qid: cm.QID, dir: cm.Dir, side: cm.SrcPort}
	if !key.valid() {
		mBadCtlmsg.Inc()
		return
	}
	m.mu.Lock()
	ts := m.shardOf(key.qid).tok(key)
	if ts != nil {
		ts.revokeSent = false
		ts.revokeTo = 0
	}
	pending := ts != nil && len(ts.waiters) > 0
	m.mu.Unlock()
	if pending {
		m.grantNext(ctx, key)
	}
}

func (m *Monitor) grantNext(ctx exec.Context, key tokKey) {
	m.mu.Lock()
	ts := m.shardOf(key.qid).tok(key)
	if ts == nil || len(ts.waiters) == 0 {
		m.mu.Unlock()
		return
	}
	w := ts.waiters[0]
	ts.waiters = ts.waiters[1:]
	more := len(ts.waiters) > 0
	m.TokensGranted++
	m.mu.Unlock()
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
	m.mu.Lock()
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
		m.mu.Unlock()
		return
	}
	sh.stealSeq++
	id := sh.stealSeq
	sh.steals[id] = stealReq{thief: thief, victim: victim}
	m.mu.Unlock()
	req := ctlmsg.Msg{Kind: ctlmsg.KStealReq, Port: cm.Port, TID: int64(victim.tid), Aux: id}
	m.sendTo(ctx, victim.pid, &req, true)
}

func (m *Monitor) onStealRes(ctx exec.Context, pc *procChan, cm *ctlmsg.Msg) {
	sh := m.shardOfPort(cm.Port)
	m.mu.Lock()
	sr, ok := sh.steals[cm.Aux]
	delete(sh.steals, cm.Aux)
	m.mu.Unlock()
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
	m.mu.Lock()
	if c := m.shardOf(cm.ConnID).conns[cm.ConnID]; c != nil {
		c.pids[1], c.owner = sr.thief.pid, sr.thief.pid // the stolen conn now terminates at the thief
		if c.queued {
			// The admission slot moves with the descriptor: the victim's
			// backlog shrank, the thief's grew. Its KAcceptDone (sent when
			// the thief finishes the accept) must release the thief's slot.
			m.releaseBacklogSlotLocked(cm.Port, sr.victim)
			c.lref = sr.thief
			if r := sh.ports[cm.Port].slot(c.lref); r != nil {
				r.used++
			}
		}
	}
	m.mu.Unlock()
	m.sendTo(ctx, sr.thief.pid, &nc, true)
}

// --- post-fork QP re-establishment (§4.1.2) ---

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
	// Queued if the channel is dead or not yet probed (a restarted monitor
	// starts with no channels at all): the fork/migrate flow's bounded wait
	// re-sends only on monitor *silence*, and a live daemon that dropped the
	// forward downstream would answer pings while the splice starves. The
	// recovery flow's own nonce'd re-sends tolerate the duplicate.
	m.mchanSend(ctx, peerHost, &fwd, true)
}
