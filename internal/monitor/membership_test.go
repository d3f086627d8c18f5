package monitor

import (
	"testing"

	"socksdirect/internal/costmodel"
	"socksdirect/internal/ctlmsg"
	"socksdirect/internal/exec"
	"socksdirect/internal/host"
	"socksdirect/internal/ksocket"
	"socksdirect/internal/monitor/shard"
)

// TestHostDeadExactlyOncePerEpoch pins the (host, epoch) idempotence
// contract of the death fan-out: when the local confirm horizon and a
// peer's KMHostDead gossip race to the same verdict — including across a
// stale in-flight frame that clears the hbDead latch between them — each
// shard sweeps exactly once. Before hbDeadEpoch, the latch alone guarded
// the fan-out, and the clear-on-receipt path (heard) let the same
// incarnation's death fan twice: once per confirm path.
func TestHostDeadExactlyOncePerEpoch(t *testing.T) {
	s, ma, mb, a, _ := newHostPair()
	Peer(ma, mb)
	p := a.NewProcess("app", 0)
	ma.RegisterProcess(p)

	qids := make([]uint64, shard.DefaultCount)
	ma.peers["b"].epoch = 1
	for i := range qids {
		q := qidOnShard(i, uint64(100*i+1))
		qids[i] = q
		ma.shardOf(q).conns[q] = &connRec{pids: [2]int{p.PID, 0}, peerHost: "b"}
	}
	mb.Stop()

	s.Spawn("drive", func(ctx exec.Context) {
		// Path 1: the local horizon confirms incarnation 1 dead.
		ma.hostDead(ctx, "b", 0, false)

		// A stale frame of the dead incarnation straggles in: heard
		// books the receipt and clears the hbDead latch (hearing from a
		// dead host normally means it is back).
		ma.heard("b", 1)
		if ma.peers["b"].live == MemberDead {
			t.Error("stale receipt did not clear the hbDead latch (test setup broken)")
		}

		// Let the receipt age past the suspect window so the gossip below
		// is not dropped as fresh-evidence-of-life; the epoch guard is the
		// one under test.
		ctx.Sleep(int64(hbSuspectMiss+1) * hbInterval)

		// Path 2: a peer's gossip reports the same incarnation dead.
		gm := ctlmsg.Msg{Kind: ctlmsg.KMHostDead, Aux: 1}
		gm.SetHost("b")
		ma.onHostDeadGossip(ctx, &gm)
	})
	s.Run()

	if got := ma.peers["b"].deadEpoch; got != 1 {
		t.Fatalf("deadEpoch of b = %d, want 1", got)
	}
	for i, sh := range ma.shards {
		if sh.hostDeadSweeps != 1 {
			t.Errorf("shard %d swept %d times, want exactly 1 (double fan-out)",
				i, sh.hostDeadSweeps)
		}
	}
}

// TestHostDeadNewEpochConfirmsAgain is the counterweight: idempotence is
// per incarnation, not per host. A host that was confirmed dead, came
// back with a higher monitor epoch, and died again must fan out again.
func TestHostDeadNewEpochConfirmsAgain(t *testing.T) {
	s, ma, mb, _, _ := newHostPair()
	Peer(ma, mb)
	mb.Stop()
	s.Spawn("drive", func(ctx exec.Context) {
		ma.peers["b"].epoch = 1
		ma.hostDead(ctx, "b", 0, false)
		// The host restarts: its new incarnation is heard from.
		ma.heard("b", 2)
		// ... and dies again.
		ma.hostDead(ctx, "b", 0, false)
	})
	s.Run()
	if got := ma.peers["b"].deadEpoch; got != 2 {
		t.Fatalf("deadEpoch of b = %d, want 2", got)
	}
	for i, sh := range ma.shards {
		if sh.hostDeadSweeps != 2 {
			t.Errorf("shard %d swept %d times, want 2 (one per incarnation)",
				i, sh.hostDeadSweeps)
		}
	}
}

// TestGossipConvergesQuietSurvivor proves the cluster-membership point of
// KMHostDead: a quiet survivor (no traffic, so its own heartbeat machinery
// is quiet-gated and would never reach the 3 s confirm horizon) still
// converges to the dead verdict because the active survivor's gossip
// reaches it.
func TestGossipConvergesQuietSurvivor(t *testing.T) {
	s := exec.NewSim(exec.SimConfig{})
	costs := costmodel.Default
	a := host.New("a", s, &costs, 1)
	b := host.New("b", s, &costs, 2)
	c := host.New("c", s, &costs, 3)
	host.NewNet(a.Clk, host.LinkConfig(&costs, 11)).Join(a, b, c)
	ma := Start(a, ksocket.New(a))
	mb := Start(b, ksocket.New(b))
	mc := Start(c, ksocket.New(c))
	Peer(ma, mb)
	Peer(ma, mc)
	Peer(mb, mc)
	ma.peers["c"].epoch = 1

	mc.Stop()
	// Traffic keeper on a only: a ticks, b stays quiet.
	s.Spawn("traffic", func(ctx exec.Context) {
		horizon := int64(hbConfirmMiss+50) * hbInterval
		for ctx.Now() < horizon {
			ma.lastActivity = ctx.Now()
			ma.wake()
			ctx.Sleep(hbQuietAfter / 2)
		}
	})
	s.Run()

	if st := ma.MemberState("c"); st != MemberDead {
		t.Fatalf("active survivor sees c as %v, want dead", st)
	}
	if st := mb.MemberState("c"); st != MemberDead {
		t.Fatalf("quiet survivor sees c as %v, want dead (gossip lost?)", st)
	}
	if st := mb.MemberState("a"); st != MemberAlive {
		t.Fatalf("quiet survivor sees a as %v, want alive", st)
	}
	// The membership view lists both peers, sorted.
	mem := mb.Membership()
	if len(mem) != 2 || mem[0].Host != "a" || mem[1].Host != "c" {
		t.Fatalf("membership view = %+v, want [a c]", mem)
	}
	if mem[1].Epoch != 1 {
		t.Errorf("dead member epoch = %d, want 1 (from gossip Aux)", mem[1].Epoch)
	}
}
