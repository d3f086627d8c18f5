package monitor

import (
	"slices"

	"socksdirect/internal/ctlmsg"
	"socksdirect/internal/exec"
	"socksdirect/internal/telemetry"
)

// Inter-host monitor liveness (§4.5.4's failure matrix, host row). Each
// monitor beacons KMHeartbeat over its monitor channels while its own
// control plane is active; a peer that stays silent across enough ticks is
// first suspected and eventually confirmed dead, at which point every local
// socket toward that host gets a KPeerDead — exactly the fan-out the remote
// monitor would have produced for each of its processes, had it survived to
// report them.
//
// Ticking is traffic-gated: hbQuietAfter after the last real (non-
// heartbeat) control message the monitor stops beaconing, so an idle pair
// of monitors does not keep each other — and the simulation — alive
// forever. A quiet monitor still answers beacons (echo, rate-limited to
// one per hbInterval per peer), so one-sided activity cannot starve the
// active side into a false host-death verdict.
const (
	hbInterval    = 2_000_000  // 2 ms between beacons
	hbSuspectMiss = 5          // consecutive silent ticks -> suspect (counter only)
	hbConfirmMiss = 1500       // consecutive silent ticks -> host confirmed dead (3 s)
	hbQuietAfter  = 60_000_000 // stop beaconing 60 ms after the last real traffic
)

// heard books proof of life from peer, stamped with its monitor's
// incarnation (0 = unstamped): a receipt on the monitor channel, or a probe
// handshake, whose SYN / SYN-ACK options carry the sender's epoch. The peer
// is under watch from now on, its clock refreshed, this episode's silence
// forgotten; hearing from a confirmed-dead host means its monitor is back, so
// a future confirm episode is allowed again. It returns false for a stamp
// older than one already heard — stale control traffic that may describe
// state the restart invalidated, so the caller drops it.
func (m *Monitor) heard(peer string, epoch uint32) bool {
	now := m.H.Clk.Now()
	m.mu.Lock()
	defer m.mu.Unlock()
	p := m.peerLocked(peer)
	p.tracked, p.lastHeard = true, now
	p.missed, p.suspected, p.dead = 0, false, false
	if epoch != 0 && epoch < p.epoch {
		return false
	}
	p.epoch = max(p.epoch, epoch)
	return true
}

// tickHeartbeats runs once per daemon-loop iteration: at most every
// hbInterval (and only while the control plane saw real traffic within
// hbQuietAfter) it counts a silent tick against every peer and sends the
// next beacon. A long gap between ticks — the daemon was parked, or the
// quiet gate was closed — is a pause in our own observation, not evidence
// about the peer, so miss counters restart from zero.
func (m *Monitor) tickHeartbeats(ctx exec.Context) {
	now := ctx.Now()
	m.mu.Lock()
	if !m.hbDueLocked(now) {
		m.mu.Unlock()
		return
	}
	paused := m.hbLastTick == 0 || now-m.hbLastTick > 4*hbInterval
	prevTick := m.hbLastTick
	m.hbLastTick = now
	// Tracked peers, not live channels: a dead host eventually errors the
	// channel's QP (RNR retry exhaustion) and the heal path drops it —
	// liveness accounting must keep counting silence past that, or the peers
	// that most need confirming would be the ones that escape it. peerList is
	// sorted by name, so the event order is the same every run.
	var confirm, beacon []string
	for _, p := range m.peerList {
		if !p.tracked || p.dead {
			continue
		}
		if paused {
			p.missed = 0
		} else if p.lastHeard < prevTick {
			p.missed++
			mHBMissed.Inc()
			if p.missed == hbSuspectMiss && !p.suspected {
				p.suspected = true
				mHBSuspects.Inc()
				if telemetry.Trace.Enabled() {
					telemetry.Trace.Emit(now, "monitor", "hb_suspect",
						telemetry.A("missed", int64(p.missed)))
				}
			}
			if p.missed >= hbConfirmMiss {
				confirm = append(confirm, p.name)
				continue
			}
		}
		beacon = append(beacon, p.name)
	}
	m.mu.Unlock()
	for _, name := range beacon {
		m.hbSend(ctx, name, false)
	}
	for _, name := range confirm {
		m.hostDead(ctx, name, 0, true)
	}
}

// hbDueLocked reports whether tickHeartbeats has a tick to run at now: there
// are peers, real traffic was seen within hbQuietAfter, and hbInterval has
// passed since the last tick. Caller holds m.mu.
func (m *Monitor) hbDueLocked(now int64) bool {
	return !m.stopped && now-m.lastActivity <= hbQuietAfter &&
		(m.hbLastTick == 0 || now-m.hbLastTick >= hbInterval) && m.watchingLocked()
}

// watchingLocked reports whether any peer is under liveness watch. Caller
// holds m.mu.
func (m *Monitor) watchingLocked() bool {
	return slices.ContainsFunc(m.peerList, func(p *peer) bool { return p.tracked })
}

// hbSend ships one liveness beacon toward peer. It goes through mchanSend
// un-queued: if the channel's QP died, the beacon is dropped but the heal
// probe it launches is itself the liveness check — a live peer answers the
// probe, a dead one times out and the silence keeps counting.
//
// With echo set it answers an incoming beacon, so a quiet monitor (one that
// initiates no beacons of its own) still proves liveness to an active peer —
// but only if we have not beaconed this peer within hbInterval: two monitors
// must not ping-pong echoes forever, so echo traffic is bounded by the
// initiator's own tick rate and stops the moment the initiator goes quiet.
func (m *Monitor) hbSend(ctx exec.Context, peer string, echo bool) {
	now := ctx.Now()
	m.mu.Lock()
	p := m.peerLocked(peer)
	if echo && p.lastSent != 0 && now-p.lastSent < hbInterval {
		m.mu.Unlock()
		return
	}
	p.lastSent = now
	m.mu.Unlock()
	hb := ctlmsg.Msg{Kind: ctlmsg.KMHeartbeat}
	hb.SetHost(m.H.Name)
	mHBSent.Inc()
	m.mchanSend(ctx, peer, &hb, false)
}

// armHeartbeat schedules a clock wake so a parked daemon keeps ticking
// while the quiet window is open (without it, a parked monitor would never
// notice a silent peer — parking would mask the very failure heartbeats
// exist to detect).
func (m *Monitor) armHeartbeat(ctx exec.Context) {
	now := ctx.Now()
	m.mu.Lock()
	need := !m.stopped && !m.hbArmed && now-m.lastActivity <= hbQuietAfter &&
		m.watchingLocked()
	if need {
		m.hbArmed = true
	}
	cb := m.hbTimerCb
	m.mu.Unlock()
	if !need {
		return
	}
	m.H.Clk.After(hbInterval, cb)
}

// hostDead is the confirm action: the remote host (or at least its entire
// SocksDirect control plane) is gone, so every local socket toward it is
// reset via KPeerDead — the same message the peer monitor would have sent
// per crashed process — and the channel is dropped. The connection records
// live in the shards, so the router fans one sweep event into every
// shard's inbox; each shard resets exactly the connections it owns
// (shards.go, sweepHostDead).
//
// The fan-out is exactly-once per (host, epoch): the dead latch covers
// one confirm episode, and deadEpoch survives the latch being cleared —
// a stale in-flight frame of the dead incarnation reopens the latch via
// noteRemote, but a second confirmation of the same incarnation (our own
// horizon racing a peer's KMHostDead gossip, or vice versa) still finds
// deadEpoch >= epoch and stops. Only a genuinely newer incarnation of
// the host (a restart we heard from) can be confirmed dead again.
//
// epoch names the incarnation the verdict covers; zero means "whatever we
// last heard", i.e. a locally confirmed horizon. With report set (the
// direct confirm path), the verdict is gossiped as KMHostDead to every
// tracked live peer so the whole cluster converges without each survivor
// waiting out its own 3 s horizon; gossip receivers do not re-gossip —
// in a full mesh the confirmer reaches everyone it can, and anyone it
// cannot reach confirms on its own horizon.
func (m *Monitor) hostDead(ctx exec.Context, peer string, epoch uint32, report bool) {
	m.mu.Lock()
	p := m.peerLocked(peer)
	if epoch == 0 {
		epoch = p.epoch
	}
	if p.dead || (epoch != 0 && (p.deadEpoch >= epoch || p.epoch > epoch)) {
		m.mu.Unlock()
		return
	}
	p.dead, p.tracked, p.mc = true, false, nil
	p.deadEpoch = max(p.deadEpoch, epoch)
	for _, sh := range m.shards {
		sh.inbox = append(sh.inbox, shardEvent{deadHost: peer})
	}
	var tell []string
	if report {
		for _, q := range m.peerList { // by name: deterministic gossip order
			if q.tracked && !q.dead {
				tell = append(tell, q.name)
			}
		}
	}
	m.mu.Unlock()
	mHostDeadFanouts.Inc()
	if telemetry.Trace.Enabled() {
		telemetry.Trace.Emit(ctx.Now(), "monitor", "host_dead",
			telemetry.A("shards", int64(len(m.shards))))
	}
	for _, sh := range m.shards {
		sh.wake()
	}
	for _, name := range tell {
		gm := ctlmsg.Msg{Kind: ctlmsg.KMHostDead, Aux: uint64(epoch)}
		gm.SetHost(peer)
		mGossipTx.Inc()
		// Un-queued: a peer whose channel needs healing misses the rumor
		// and converges on its own horizon instead.
		m.mchanSend(ctx, name, &gm, false)
	}
}

// onHostDeadGossip consumes a peer's KMHostDead verdict. The rumor is
// dropped when it is about us, when we have fresher direct evidence the
// host is alive (heard within the suspect window — the gossiping monitor
// may sit behind an asymmetric partition we do not share), or when it
// names an incarnation older than one we have already heard. Otherwise
// the verdict fans out here exactly as a locally confirmed one would,
// minus the re-gossip.
func (m *Monitor) onHostDeadGossip(ctx exec.Context, cm *ctlmsg.Msg) {
	dead := cm.HostStr()
	deadEpoch := uint32(cm.Aux)
	now := ctx.Now()
	m.mu.Lock()
	var fresh, stale bool
	if p := m.peers[dead]; p != nil {
		fresh = p.lastHeard != 0 && now-p.lastHeard < hbSuspectMiss*hbInterval
		stale = deadEpoch != 0 && p.epoch > deadEpoch
	}
	m.mu.Unlock()
	if dead == "" || dead == m.H.Name || fresh || stale {
		mGossipIgnored.Inc()
		return
	}
	m.hostDead(ctx, dead, deadEpoch, false)
}
