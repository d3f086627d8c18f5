package monitor

import (
	"testing"

	"socksdirect/internal/exec"
	"socksdirect/internal/host"
	"socksdirect/internal/telemetry"
)

func TestStopIdempotentAndDraining(t *testing.T) {
	s, ma, mb, a, _ := newHostPair()
	p := a.NewProcess("app", 0)
	ma.RegisterProcess(p)

	woke := false
	p.Spawn("sleeper", func(ctx exec.Context, th *host.Thread) {
		// A thread parked in interrupt mode whose only doorbell is the
		// monitor (the state a KSleepNote records).
		ma.shardOfPID(p.PID).sleepers[p.PID] = map[int]struct{}{th.TID: {}}
		ctx.Park()
		woke = true
	})
	s.Spawn("ctl", func(ctx exec.Context) {
		ctx.Sleep(1_000_000)
		// The dual kernel listener holds the port until Stop releases it.
		ma.addListener(80, p.PID, 1)
		if _, err := ma.KS.Listen(80); err == nil {
			t.Error("port 80 free while the monitor's dual listener holds it")
		}
		ma.Stop()
		ma.Stop() // idempotent: the second call must be a no-op
		if _, err := ma.KS.Listen(80); err != nil {
			t.Errorf("port 80 still held after Stop: %v", err)
		}
		mb.Stop()
	})
	s.Run()
	if !woke {
		t.Error("Stop did not wake the parked sleeper")
	}
}

func TestHeartbeatConfirmsDeadHost(t *testing.T) {
	s, ma, mb, a, _ := newHostPair()
	Peer(ma, mb)
	p := a.NewProcess("app", 0)
	ma.RegisterProcess(p)

	// One established connection toward host b, owned by p: the confirm
	// fan-out must reset exactly this record.
	const qid = 501
	ma.shardOf(qid).conns[qid] = &connRec{pids: [2]int{p.PID, 0}, owner: p.PID, peerHost: "b"}

	before := telemetry.Capture()
	// Kill b's monitor, then keep a's control plane active past the confirm
	// horizon (hbConfirmMiss ticks of hbInterval each) by refreshing its
	// traffic clock the way real app ctl messages would.
	mb.Stop()
	s.Spawn("traffic", func(ctx exec.Context) {
		horizon := int64(hbConfirmMiss+50) * hbInterval
		for ctx.Now() < horizon {
			ma.lastActivity = ctx.Now()
			ma.wake()
			ctx.Sleep(hbQuietAfter / 2)
		}
	})
	s.Run()

	d := telemetry.Capture().Diff(before)
	if d[telemetry.MonHBSent] == 0 {
		t.Error("no heartbeats were sent")
	}
	if d[telemetry.MonHBSuspects] == 0 {
		t.Error("silent peer never crossed the suspect threshold")
	}
	if d[telemetry.MonHostDeadFanouts] != 1 {
		t.Errorf("host death fanned out %d times, want exactly 1 (latched)",
			d[telemetry.MonHostDeadFanouts])
	}
	dead := ma.peers["b"].live == MemberDead
	_, stillConn := ma.shardOf(qid).conns[qid]
	stillChan := ma.peers["b"].mc != nil
	if !dead {
		t.Error("peer b not latched dead after silence past the confirm horizon")
	}
	if stillConn {
		t.Error("connection toward the dead host survived the fan-out")
	}
	if stillChan {
		t.Error("monitor channel toward the dead host survived the fan-out")
	}
}
