package experiments

import (
	"fmt"
	"sort"

	sd "socksdirect"
	"socksdirect/internal/core"
	"socksdirect/internal/exec"
	"socksdirect/internal/fault"
	"socksdirect/internal/host"
	"socksdirect/internal/monitor"
	"socksdirect/internal/telemetry"
)

// ClusterSoak is the cluster-wide chaos drill: an N-host fleet (kv-style
// servers sharded by flow, clients on separate hosts) moving deterministic
// byte streams while every failure mode the paper's §4.5 matrix names
// fires CONCURRENTLY mid-transfer:
//
//   - a server process is SIGKILLed (blocked-receiver wake path) and a
//     client process is SIGKILLed (blocked-sender wake path): each
//     surviving peer must see a byte-exact prefix, then exactly one
//     ECONNRESET, then EOF/EPIPE;
//   - one server host's monitor restarts with a real downtime window:
//     established streams through it must not notice;
//   - a client container live-migrates to another host mid-stream
//     (§4.1.3): its stream continues byte-exact from the new host;
//   - a transient duplex RDMA partition (< 3 s) stalls one client/server
//     edge: QPs die and re-establish, the stream completes, and neither
//     side's monitor false-declares the other dead;
//   - an asymmetric one-way RDMA cut degrades another edge: go-back-N
//     retransmission storms one way, liveness proven via the kernel
//     plane the whole time;
//   - one server host dies permanently (all edges cut on both planes,
//     monitor stopped, processes killed): every survivor must converge
//     on the dead verdict — actively (its own 3 s horizon) or passively
//     (a peer's KMHostDead gossip) — and fan KPeerDead exactly once, so
//     each stranded client sees exactly one ECONNRESET.
//
// Per-host churners (intra-host dial/echo loops) keep every monitor's
// control plane active across the horizon and double as the bounded-wait
// probe: no dial may exceed clusterDialBound even across the restart
// window. After the run the drill asserts membership convergence on every
// survivor, zero bufpool drift, and CrashConverged monitors.

// ClusterMember is one survivor's view of one peer, for the membership
// report (sdstat).
type ClusterMember struct {
	Viewer string
	monitor.Member
}

// ClusterResult is the outcome of one cluster soak.
type ClusterResult struct {
	Hosts, Flows int
	RunNs        int64

	Delivered    int64 // bytes verified byte-exact by receivers
	PrefixErrors int   // flows whose delivered bytes mismatched the stream
	Completed    int   // flows that delivered their full payload
	GoodResets   int   // severed flows: exactly one ECONNRESET then EOF/EPIPE
	BadErrnos    int   // severed flows with the wrong errno (or errno sequence)
	Hung         int   // severed flows that never reached an errno
	MigrOK       bool  // the migrated flow completed byte-exact

	SurvivorsConverged int   // survivor monitors reporting the dead host dead
	Survivors          int   // monitors expected to converge
	Fanouts            int64 // sd/monitor/host_dead_fanouts (want == Survivors)
	GossipTx           int64 // sd/monitor/gossip_tx
	Cleanups           int64 // sd/monitor/crash_cleanups

	ChurnDials  int    // successful churner round-trips across all hosts
	ChurnErrs   int    // bounded churner errors (monitor downtime window)
	WorstDialNs int64  // slowest single dial anywhere in the cluster
	PoolLeak    int64  // the census's pooled-buffer delta across the run
	Converge    string // CrashConverged error from any survivor, "" when ok
	worldEnd

	Membership []ClusterMember // every survivor's view, for sdstat
}

// Severed flows: the two SIGKILL victims plus the flows stranded on the
// permanently dead host.
func (r ClusterResult) severed() int { return r.Flows - r.Completed }

// verdict is the soak's acceptance bar.
func (r ClusterResult) verdict() verdict {
	return verdict{
		fmt.Sprintf("cluster: %d hosts, %d flows in %.2fs virtual", r.Hosts, r.Flows, float64(r.RunNs)/1e9),
		[]check{
			byteExact(r.PrefixErrors == 0, "%d flows complete, %d bytes delivered, %d prefix errors",
				r.Completed, r.Delivered, r.PrefixErrors),
			expect("the migrated flow completes byte-exact", r.MigrOK, "migration ok=%v", r.MigrOK),
			oneReset(r.GoodResets, r.severed(), r.BadErrnos, r.Hung),
			expect("membership convergence, one death fan-out per survivor",
				r.SurvivorsConverged == r.Survivors && r.Fanouts == int64(r.Survivors),
				"%d/%d survivors converged, fanouts=%d (want %d), gossip_tx=%d, cleanups=%d",
				r.SurvivorsConverged, r.Survivors, r.Fanouts, r.Survivors, r.GossipTx, r.Cleanups),
			boundedWait(r.WorstDialNs <= clusterDialBound,
				"churn: %d dials, %d bounded errors, worst dial %.2fms (bound %.0fms)",
				r.ChurnDials, r.ChurnErrs, float64(r.WorstDialNs)/1e6, float64(clusterDialBound)/1e6),
			noDrift("bufpool", r.PoolLeak),
			converged(r.Converge),
			nothingLeft(r.Left),
		},
	}
}

// Passed reports whether the soak met the acceptance bar.
func (r ClusterResult) Passed() bool   { return r.verdict().Passed() }
func (r ClusterResult) String() string { return r.verdict().String() }

// The fault schedule (virtual ns). The permanent kill comes first so its
// 3 s confirm horizon overlaps every other fault; everything is over by
// ~3.6 s, inside the flows' paced span.
const (
	clusterPace      = 2_000_000 // 2 ms between chunks
	clusterDeadAt    = 400_000_000
	clusterKillSrv   = 500_000_000
	clusterKillCli   = 550_000_000
	clusterMonStop   = 600_000_000
	clusterMonBack   = 650_000_000
	clusterPartAt    = 800_000_000
	clusterPartDur   = 1_500_000_000 // < 3 s: must NOT produce a verdict
	clusterAsymAt    = 900_000_000
	clusterAsymDur   = 1_000_000_000
	clusterMigrAt    = 1_000_000_000
	clusterDialBound = 25_000_000 // ErrMonitorDown deadline (10 ms) + slack
)

// The drill's size: server and client hosts, streaming pairs round-robined
// client -> server, and each flow's paced sends.
const (
	clusterServers = 4
	clusterClients = 4
	clusterFlows   = 16
	clusterChunk   = 512  // bytes per paced send
	clusterChunks  = 1900 // sends per flow: * clusterPace = 3.8 s of traffic
)

// ClusterSoak runs the drill.
func ClusterSoak() ClusterResult {
	res := ClusterResult{Hosts: clusterServers + clusterClients, Flows: clusterFlows}
	tl := startTally()

	cl := sd.NewCluster(sd.Defaults())
	srvs := make([]*sd.Host, clusterServers)
	clis := make([]*sd.Host, clusterClients)
	for i := range srvs {
		srvs[i] = cl.AddHost(fmt.Sprintf("srv%d", i))
	}
	for i := range clis {
		clis[i] = cl.AddHost(fmt.Sprintf("cli%d", i))
	}
	all := append(append([]*sd.Host(nil), srvs...), clis...)
	for i := 0; i < len(all); i++ {
		for j := i + 1; j < len(all); j++ {
			sd.PeerMonitors(all[i], all[j])
		}
	}
	sim := cl.Sim()
	net := cl.Net()
	deadHost := srvs[clusterServers-1] // srv3: dies permanently

	// Churners keep monitors active and double as bounded-wait probes.
	// Only clis[0] stays active across the whole 3 s confirm horizon: it
	// is the survivor that confirms the dead host directly; every other
	// survivor goes quiet after the restart window and must converge via
	// the confirmer's KMHostDead gossip — which makes the drill assert
	// the gossip path non-vacuously AND keeps the full-mesh beacon storm
	// (N*(N-1) channels at 2 ms) from dominating the event count.
	horizon := int64(clusterDeadAt + 3_300_000_000)
	quietAt := int64(clusterPartAt) // past the restart window probes
	churns := make([]*dialStats, 0, len(all)-1)
	for i, h := range all {
		if h == deadHost {
			continue
		}
		hz := quietAt
		if h == clis[0] {
			hz = horizon
		}
		churns = append(churns, keepAlive(h, 7900+uint16(i), hz))
	}

	// The flows: paced one-way streams, echo-free so the blocked-sender and
	// blocked-receiver wake paths stay distinguishable. Flow f: client host
	// (f/Servers)%Clients -> server host f%Servers, so every client host
	// reaches every server host. Flow roles in the schedule:
	//   - every flow whose server is deadHost: stranded by the permanent
	//     host death (exactly-one-ECONNRESET via the confirm sweep);
	//     these flows pace past the confirm horizon (clusterChunks);
	//   - flow 0 (cli0 -> srv0): its server process is SIGKILLed;
	//   - flow 1 (cli0 -> srv1): its client process is SIGKILLed;
	//   - flow 2 (cli0 -> srv2): its client container live-migrates
	//     mid-stream.
	// Everything else must complete byte-exact through the restart, the
	// transient duplex partition and the asymmetric cut; completion flows
	// carry a shorter payload (they only need to span the last heal).
	flows := make([]*flowOutcome, clusterFlows)
	reaper := clis[0].NewProcess("reaper", 0)
	var stranded []*sd.Process // deadHost's servers: SIGKILLed when it dies
	for f := range flows {
		srv := srvs[f%clusterServers]
		port := 8000 + uint16(f)
		pr := newPair(srv, clis[(f/clusterServers)%clusterClients], "cs-", port)
		sf := streamFlow{seed: seedFor(port, 13), chunk: clusterChunk, chunks: clusterChunks, pace: clusterPace}
		if srv != deadHost {
			sf.chunks = 1400 // 2.8 s of pacing: spans every transient fault
		}
		killedAt := int64(0)
		switch f {
		case 0:
			sf.victim, killedAt = pr.srv, clusterKillSrv
		case 1:
			sf.victim, killedAt = pr.cli, clusterKillCli
		case 2:
			sf.handoff = clusterMigrate(clis[clusterClients-1], sf)
		}
		if srv == deadHost && sf.victim == nil {
			stranded = append(stranded, pr.srv)
		}
		flows[f] = pr.stream(sf)
		flows[f].severed = srv == deadHost || sf.victim != nil
		if sf.victim != nil {
			killAt(reaper, port, killedAt, sf.victim)
		}
	}

	// Fault schedule. Directed edges come straight off the routed fabric;
	// registration order (forward first) pins fault.Dir semantics.
	inj := fault.New(sim.Clock())
	partCli, partSrv := clis[1].H.Name, srvs[1].H.Name
	inj.AddLink("part-rdma", net.Rdma.Edge(partCli, partSrv), net.Rdma.Edge(partSrv, partCli))
	// The asymmetric cut hits cli1 -> srv2: flow 6 streams across it.
	asymCli, asymSrv := clis[1].H.Name, srvs[2].H.Name
	inj.AddLink("asym-rdma", net.Rdma.Edge(asymCli, asymSrv), net.Rdma.Edge(asymSrv, asymCli))
	sched := []fault.Event{
		{At: clusterPartAt, Kind: fault.Partition, Link: "part-rdma", Dur: clusterPartDur},
		{At: clusterAsymAt, Kind: fault.Partition, Link: "asym-rdma", Dir: fault.Forward, Dur: clusterAsymDur},
	}
	// The permanent host death: cut every edge touching deadHost on both
	// planes and both directions — no fast-path KPeerDead can escape, so
	// survivors must converge via their own horizon or peer gossip.
	for _, h := range all {
		if h == deadHost {
			continue
		}
		name := "dead-" + h.H.Name
		inj.AddLink(name,
			net.Rdma.Edge(deadHost.H.Name, h.H.Name), net.Rdma.Edge(h.H.Name, deadHost.H.Name),
			net.Knet.Edge(deadHost.H.Name, h.H.Name), net.Knet.Edge(h.H.Name, deadHost.H.Name))
		sched = append(sched, fault.Event{
			At: clusterDeadAt, Kind: fault.Partition, Link: name, Dur: 10_000_000_000,
		})
	}
	if err := inj.Run(sched); err != nil {
		panic("cluster: " + err.Error())
	}

	// Controller: monitor restart on srv1, then the permanent death of
	// deadHost (stop the monitor and kill its processes once the fabric
	// cut is in place, so the death is only observable as silence).
	restartSrv := srvs[1]
	var restarted *monitor.Monitor
	timeline(sim, "cluster-ctl",
		action{clusterDeadAt + 1_000_000, func() {
			deadHost.Mon.Stop()
			for _, p := range stranded {
				p.P.Signal(exec.Context{}, host.SIGKILL)
			}
		}},
		action{clusterMonStop, func() { restartSrv.Mon.Stop() }},
		action{clusterMonBack, func() { restarted = monitor.Restart(restartSrv.H) }})

	res.RunNs = cl.Run()

	s := sumFlows(flows)
	res.Delivered, res.PrefixErrors, res.Completed = s.delivered, s.mismatched, s.completed
	res.GoodResets, res.BadErrnos, res.Hung = s.goodResets, s.badErrnos, s.hung
	res.MigrOK = flows[2].completed && flows[2].mismatches == 0

	// Membership: every surviving monitor must hold the dead verdict.
	survivors := make([]*monitor.Monitor, 0, len(all)-1)
	for _, h := range all {
		if h == deadHost {
			continue
		}
		m := h.Mon
		if h == restartSrv && restarted != nil {
			m = restarted
		}
		survivors = append(survivors, m)
		if m.MemberState(deadHost.H.Name) == monitor.MemberDead {
			res.SurvivorsConverged++
		}
		for _, mem := range m.Membership() {
			res.Membership = append(res.Membership, ClusterMember{Viewer: m.H.Name, Member: mem})
		}
	}
	res.Survivors = len(survivors)
	sort.Slice(res.Membership, func(i, j int) bool {
		if res.Membership[i].Viewer != res.Membership[j].Viewer {
			return res.Membership[i].Viewer < res.Membership[j].Viewer
		}
		return res.Membership[i].Host < res.Membership[j].Host
	})

	for _, ch := range churns {
		res.ChurnDials += ch.connected
		res.ChurnErrs += ch.failed
		res.WorstDialNs = max(res.WorstDialNs, ch.worstNs)
	}
	var d telemetry.Snapshot
	d, res.PoolLeak, res.Converge = tl.end(survivors...)
	res.Fanouts = d[telemetry.MonHostDeadFanouts]
	res.GossipTx = d[telemetry.MonGossipTx]
	res.Cleanups = d[telemetry.MonCrashCleanups]
	res.worldEnd = endWorld(cl)
	return res
}

// clusterMigrate returns the stream handoff that live-migrates the flow's
// client container to the host `to` (§4.1.3) once clusterMigrAt has passed,
// and finishes the stream from there: same socket FD, same xorshift state,
// so the server's lockstep verification proves no byte was lost or
// duplicated across the move.
func clusterMigrate(to *sd.Host, sf streamFlow) func(*sd.T, *sd.Conn, int, *uint64) bool {
	return func(t *sd.T, c *sd.Conn, next int, state *uint64) bool {
		if t.Now() < clusterMigrAt {
			return false
		}
		fd := c.FD()
		np, nl, err := core.Migrate(t.Pr.Lib, to.H, "cs-migrated")
		if err != nil {
			return true
		}
		np.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
			sock, err := nl.SocketByFD(fd)
			if err != nil {
				return
			}
			out := make([]byte, sf.chunk)
			for i := next; i < sf.chunks; i++ {
				xorshiftFill(out, state)
				if _, err := sock.Send(ctx, th, out); err != nil {
					return
				}
				ctx.Sleep(sf.pace)
			}
		})
		return true
	}
}

// keepAlive spawns an intra-host echo service plus a dial loop on h that
// runs until the horizon. Every control-plane round trip refreshes the
// monitor's activity clock (so its heartbeat machinery keeps ticking) and
// doubles as a bounded-wait probe: each dial's latency is recorded, and
// errors (the monitor-restart downtime window) must be the bounded
// ErrMonitorDown kind, never a hang.
func keepAlive(h *sd.Host, port uint16, horizon int64) *dialStats {
	ch := &dialStats{}
	pr := newPair(h, h, "churn-", port)
	pr.srv.Go("echo", func(t *sd.T) {
		acceptLoop(t, port, 0, func(c *sd.Conn) {
			echoOnce(c)
			c.Close()
		})
	})
	pr.cli.Go("churn", func(t *sd.T) {
		t.Sleep(5_000)
		for t.Now() < horizon {
			c, err := ch.dial(t, pr.dst, port)
			if err != nil {
				t.Sleep(2_000_000)
				continue
			}
			ch.probe(c)
			c.Close()
			t.Sleep(20_000_000)
		}
	})
	return ch
}
