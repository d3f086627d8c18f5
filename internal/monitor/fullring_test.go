package monitor

import (
	"testing"

	"socksdirect/internal/core"
	"socksdirect/internal/ctlmsg"
	"socksdirect/internal/exec"
	"socksdirect/internal/host"
	"socksdirect/internal/monitor/shard"
	"socksdirect/internal/telemetry"
)

// honestDialBound is how long, in virtual ns, a dial between two honest
// processes may take while a third process on their host leaves its control
// queue unread. They take 2.2 µs cold and 260 ns warm, as on a quiet host.
const honestDialBound = 10_000

// TestANonReaderDelaysOnlyItself: a process with a listener on port 80 of
// host b reads none of its control queue while SYNs from host a are
// dispatched to it, two and a half rings' worth a shard (510). It reads
// never and ignores its signals; or it says a thread of it is inside libsd
// for ever, so it is never signalled; or its handler clears the pending
// mark without draining. Meanwhile two honest processes on b dial and accept
// eight connections, across every shard: each dial completes within
// honestDialBound. The liar's notifications are late, not lost: when it
// reads at last, each SYN is there exactly once with its own fields.
func TestANonReaderDelaysOnlyItself(t *testing.T) {
	const perRing = ctlRingCap / (8 + ctlmsg.Size) // an 8 B header each
	const n = shard.DefaultCount * perRing * 5 / 2
	for _, c := range []struct {
		name string
		lie  func(p *host.Process, link *core.ProcLink)
	}{
		{"reads never", func(*host.Process, *core.ProcLink) {}},
		{"in libsd for ever", func(_ *host.Process, link *core.ProcLink) { link.InLibsd.Store(1 << 20) }},
		{"clears pending unread", func(p *host.Process, link *core.ProcLink) {
			p.RegisterHandler(host.SIGUSR1, func(host.Signal) { link.Pending.Store(false) })
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			s, _, ms := netPair()
			ma, mb := ms["a"], ms["b"]
			liar := mb.H.NewProcess("liar", 0)
			link := mb.RegisterProcess(liar)
			mb.shardOfPort(80).ports[80] = &portRec{refs: []listenerSlot{{listenerRef: listenerRef{pid: liar.PID, tid: 1}}}}
			c.lie(liar, link)
			full := telemetry.C(telemetry.MonCtlRingFull)
			full0 := full.Load()

			srv, err := core.Init(mb.H.NewProcess("srv", 0))
			if err != nil {
				t.Fatal(err)
			}
			cli, err := core.Init(mb.H.NewProcess("cli", 0))
			if err != nil {
				t.Fatal(err)
			}
			const dials = 8
			srv.P.Spawn("accept", func(ctx exec.Context, th *host.Thread) {
				lst, err := srv.ListenOn(ctx, th, 81)
				if err != nil {
					t.Errorf("listen: %v", err)
					return
				}
				for range dials {
					if _, _, err := lst.Accept(ctx); err != nil {
						t.Errorf("accept: %v", err)
						return
					}
				}
			})
			cli.P.Spawn("dial", func(ctx exec.Context, th *host.Thread) {
				ctx.Sleep(105_000_000) // the liar's rings are full
				if full.Load()-full0 == 0 {
					t.Error("no message to the liar found its ring full")
				}
				for s := range mb.shards {
					if !mb.procs[liar.PID].queued(s) {
						t.Errorf("nothing waits for the liar on shard %d: the dials test nothing", s)
					}
				}
				for i := range dials {
					start := ctx.Now()
					if _, _, err := cli.Connect(ctx, th, mb.H.Name, 81); err != nil {
						t.Errorf("dial %d: %v", i, err)
						return
					}
					if took := ctx.Now() - start; took > honestDialBound {
						t.Errorf("dial %d took %d ns, bound %d", i, took, honestDialBound)
					}
				}
			})
			s.Spawn("flood", func(ctx exec.Context) {
				ctx.Sleep(100_000_000)
				for i := uint64(0); i < n; i++ {
					cm := syn(100+i, uint16(100+i))
					ma.mchanSend(ctx, "b", &cm, true) // the first probes for the channel
				}
				ctx.Sleep(20_000_000)
				link.InLibsd.Store(0)
				checkSyns(t, readAll(ctx, link, n), 100, n, "a")
			})
			s.Run()
		})
	}
}

// TestUnreadRepliesAreBounded: a process that asks (KPing on every plane, as
// fast as its rings take them) and never reads the answers costs the monitor
// a bounded queue. The shard reads no request from it while its queue on
// that plane stands, so a plane holds at most one pass of replies.
func TestUnreadRepliesAreBounded(t *testing.T) {
	s, _, ms := netPair()
	mb := ms["b"]
	asker := mb.H.NewProcess("asker", 0)
	link := mb.RegisterProcess(asker)
	asked := 0
	s.Spawn("ask", func(ctx exec.Context) {
		var buf [ctlmsg.Size]byte
		for range 1000 {
			for sh := range link.Ds {
				ping := ctlmsg.Msg{Kind: ctlmsg.KPing, PID: int64(asker.PID), Shard: uint8(sh), Epoch: mb.epoch}
				for link.Ds[sh].A().TX.TrySend(0, 0, ping.Marshal(buf[:])) {
					asked++
				}
				link.WakeMonitor(sh)
			}
			ctx.Sleep(1_000)
		}
	})
	s.Run()
	// Two rings' worth a plane: one answered onto its full receive ring, one
	// answered into the queue.
	if perRing := ctlRingCap / (8 + ctlmsg.Size); asked < 2*len(mb.shards)*perRing {
		t.Fatalf("the process asked %d times: its replies never queued", asked)
	}
	for sh, q := range mb.procs[asker.PID].out {
		if len(q) > ctlBatch {
			t.Errorf("shard %d holds %d unread replies, more than one pass (%d)", sh, len(q), ctlBatch)
		}
	}
}
