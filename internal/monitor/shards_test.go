package monitor

import (
	"testing"

	"socksdirect/internal/ctlmsg"
	"socksdirect/internal/exec"
	"socksdirect/internal/monitor/shard"
)

// qidOnShard returns a queue ID that hashes to the given shard.
func qidOnShard(want int, from uint64) uint64 {
	for q := from; ; q++ {
		if shard.Of(q, shard.DefaultCount) == want {
			return q
		}
	}
}

func TestQidOnShardHelper(t *testing.T) {
	for i := 0; i < shard.DefaultCount; i++ {
		q := qidOnShard(i, 1)
		if got := shard.Of(q, shard.DefaultCount); got != i {
			t.Fatalf("qidOnShard(%d) = %d which hashes to shard %d", i, q, got)
		}
	}
}

// TestConnClosedRingsParkedShard: a shard parks as soon as a pass finds
// nothing, so a ConnClosed note that only queued the ID would sit on the
// closed list, holding the record and the backlog slot it claimed, until
// unrelated traffic woke the shard. One dispatched-but-unaccepted
// connection per shard is closed long after every loop has parked; when the
// simulation goes quiet, with no other traffic, every note must have been
// applied.
func TestConnClosedRingsParkedShard(t *testing.T) {
	s, ma, _, _, _ := newHostPair()
	const port = 80
	lref := listenerRef{pid: 1, tid: 1}
	ma.addListener(port, lref.pid, lref.tid)
	used := func() int {
		return ma.shardOfPort(port).ports[port].slot(lref).used
	}
	before := used()
	qids := make([]uint64, shard.DefaultCount)
	for i := range qids {
		qids[i] = qidOnShard(i, uint64(100*i+1))
		if _, st := ma.pickListener(port); st != ctlmsg.StatusOK {
			t.Fatalf("dial %d not dispatched: status %d", i, st)
		}
		c := ma.shardOf(qids[i]).conn(qids[i])
		c.advance(queued)
		c.pids, c.lref, c.lport = [2]int{2, lref.pid}, lref, port
	}
	s.Spawn("closer", func(ctx exec.Context) {
		ctx.Sleep(100_000) // far past any loop's first pass
		for _, q := range qids {
			ma.ConnClosed(q)
		}
	})
	s.Run()

	for i, sh := range ma.shards {
		if len(sh.closed) != 0 || len(sh.conns) != 0 {
			t.Errorf("shard %d: %d close notes unapplied, %d records left", i, len(sh.closed), len(sh.conns))
		}
	}
	if got := used(); got != before {
		t.Errorf("backlog occupancy %d after the closes, want %d as before the dials", got, before)
	}
}

// TestHostDeadFanoutSweepsEveryShardOnce plants one connection toward the
// dying peer on EVERY shard and verifies the confirm fan-out reaches each
// shard's dispatch loop exactly once: every conn record is reclaimed, and
// no shard is swept twice (a double sweep would emit duplicate KPeerDead
// notes; a missed shard would leak connections toward a dead host). This
// is the cross-shard edge of the §4.5.3 host-death path — before the
// control plane was sharded, one loop swept one map and "exactly once"
// was trivial.
func TestHostDeadFanoutSweepsEveryShardOnce(t *testing.T) {
	s, ma, mb, a, _ := newHostPair()
	Peer(ma, mb)
	p := a.NewProcess("app", 0)
	ma.RegisterProcess(p)

	qids := make([]uint64, shard.DefaultCount)
	for i := range qids {
		q := qidOnShard(i, uint64(100*i+1))
		qids[i] = q
		ma.shardOf(q).conns[q] = &connRec{pids: [2]int{p.PID, 0}, peerHost: "b"}
	}

	// Kill b's monitor, then keep a's control plane awake past the
	// confirm horizon so the heartbeat machinery can latch the death.
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

	if ma.peers["b"].live != MemberDead {
		t.Fatal("peer b not latched dead")
	}
	for i, sh := range ma.shards {
		if sh.hostDeadSweeps != 1 {
			t.Errorf("shard %d ran the host-death sweep %d times, want exactly 1",
				i, sh.hostDeadSweeps)
		}
		if _, alive := sh.conns[qids[i]]; alive {
			t.Errorf("shard %d: conn %d toward the dead host survived the sweep",
				i, qids[i])
		}
	}
}

// TestRecordPhasesFollowTheTable moves a record from every phase to every
// phase. The moves below are the table (ARCHITECTURE.md "Monitor
// records"): each succeeds; every other one panics and leaves the record
// exactly as it was.
func TestRecordPhasesFollowTheTable(t *testing.T) {
	legal := map[[2]phase]bool{
		{bare, pending}: true, {bare, dialing}: true, {bare, queued}: true, {bare, adopted}: true,
		{pending, dialing}: true, {pending, refused}: true, {pending, queued}: true,
		{dialing, dialing}: true, {dialing, refused}: true,
		{queued, accepted}: true,
	}
	for from := bare; from <= adopted; from++ {
		for to := bare; to <= adopted; to++ {
			c := &connRec{phase: from, pids: [2]int{7, 0}, peerHost: "hostB", lport: 80}
			before := *c
			panicked := func() (p bool) {
				defer func() { p = recover() != nil }()
				c.advance(to)
				return false
			}()
			want := before
			if legal[[2]phase{from, to}] {
				want.phase = to
			}
			switch {
			case panicked == legal[[2]phase{from, to}]:
				t.Errorf("%d -> %d: panicked %v, want %v", from, to, panicked, !panicked)
			case *c != want:
				t.Errorf("%d -> %d: record %+v after the move, want %+v", from, to, *c, want)
			}
		}
	}
}
