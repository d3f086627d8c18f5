package monitor

import (
	"testing"

	"socksdirect/internal/ctlmsg"
	"socksdirect/internal/exec"
	"socksdirect/internal/host"
)

// TestInputsRingParkedRouter: the router parks after a pass that finds no
// real work and has no idle predicate, so every input it serves must ring
// it (m.wake) when it arrives, or it waits for unrelated traffic. Each input
// arrives long after the router parked, with nothing else due; the input is
// watched every 100 ns and must not stay unserved for more than 2 µs.
func TestInputsRingParkedRouter(t *testing.T) {
	const arrive = 100_000_000 // past the heartbeats' quiet window
	for _, c := range []struct {
		name    string
		peered  bool
		setup   func(ma, mb *Monitor) *host.Process
		trigger func(ctx exec.Context, ma, mb *Monitor, p *host.Process) error
		pending func(ma *Monitor, now int64) bool
		served  func(ma *Monitor, p *host.Process) bool
	}{
		{name: "a process death",
			setup:   registered,
			trigger: func(ctx exec.Context, _, _ *Monitor, p *host.Process) error { p.Exit(ctx); return nil },
			pending: func(ma *Monitor, _ int64) bool { return len(ma.deaths) > 0 },
			served:  func(ma *Monitor, p *host.Process) bool { _, done := ma.deadPIDs[p.PID]; return done },
		},
		{name: "a restart's re-registration",
			setup:   registered,
			trigger: func(ctx exec.Context, ma, _ *Monitor, _ *host.Process) error { Restart(ma.H); return nil },
			pending: func(ma *Monitor, _ int64) bool { return len(ma.H.Mon.(*Monitor).needReReg) > 0 },
			served:  func(ma *Monitor, _ *host.Process) bool { return ma.H.Mon.(*Monitor).epoch == 2 },
		},
		{name: "a probe result",
			trigger: func(ctx exec.Context, ma, _ *Monitor, _ *host.Process) error {
				hb := ctlmsg.Msg{Kind: ctlmsg.KMHeartbeat}
				ma.mchanSend(ctx, "b", &hb, false)
				return nil
			},
			pending: func(ma *Monitor, _ int64) bool { return len(ma.probeDone) > 0 },
			served:  func(ma *Monitor, _ *host.Process) bool { return ma.peers["b"].mc != nil },
		},
		{name: "a monitor-channel arrival", peered: true,
			trigger: func(ctx exec.Context, _, mb *Monitor, _ *host.Process) error {
				cm := syn(1, 1)
				mb.peers["a"].mc.send(&cm)
				return nil
			},
			pending: func(ma *Monitor, _ int64) bool { return ma.peers["b"].mc.recvCQ.Len() > 0 },
			served:  func(ma *Monitor, _ *host.Process) bool { return ma.peers["b"].lastHeard >= arrive },
		},
		{name: "a kernel-listener connection",
			setup: func(ma, mb *Monitor) *host.Process {
				p := registered(ma, mb)
				ma.addListener(8080, p.PID, 1)
				return p
			},
			trigger: func(ctx exec.Context, _, mb *Monitor, _ *host.Process) error {
				_, err := mb.KS.Dial(ctx, "a", 8080)
				return err
			},
			pending: func(ma *Monitor, _ int64) bool { return ma.kernLs[0].kl.PendingHint() > 0 },
			served:  func(_ *Monitor, p *host.Process) bool { _, ok := p.LookupFD(0); return ok },
		},
		{name: "a due heartbeat", peered: true,
			trigger: func(ctx exec.Context, _, mb *Monitor, _ *host.Process) error {
				cm := syn(1, 1) // real traffic opens the window: a tick now, one every hbInterval
				mb.peers["a"].mc.send(&cm)
				return nil
			},
			pending: func(ma *Monitor, now int64) bool {
				return now-ma.lastActivity <= hbQuietAfter && now-ma.hbLastTick >= hbInterval
			},
			served: func(ma *Monitor, _ *host.Process) bool { return ma.hbLastTick >= arrive+2*hbInterval },
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			s, _, ms := netPair()
			ma, mb := ms["a"], ms["b"]
			if c.peered {
				Peer(ma, mb)
			}
			var p *host.Process
			if c.setup != nil {
				p = c.setup(ma, mb)
			}
			s.Spawn("input", func(ctx exec.Context) {
				ctx.Sleep(arrive)
				if err := c.trigger(ctx, ma, mb, p); err != nil {
					t.Errorf("the input did not arrive: %v", err)
				}
			})
			var since, worst int64 = -1, 0
			s.Spawn("watch", func(ctx exec.Context) {
				ctx.Sleep(arrive)
				for end := ctx.Now() + 3*hbInterval; ctx.Now() < end; ctx.Sleep(100) {
					switch now := ctx.Now(); {
					case !c.pending(ma, now):
						since = -1
					case since < 0:
						since = now
					default:
						worst = max(worst, now-since)
					}
				}
			})
			s.Run()
			if worst > 2_000 || since >= 0 {
				t.Errorf("the input waited %d ns for the router (still waiting: %v)", worst, since >= 0)
			}
			if !c.served(ma, p) {
				t.Error("the input was not served")
			}
		})
	}
}

// registered puts one registered process on ma's host.
func registered(ma, _ *Monitor) *host.Process {
	p := ma.H.NewProcess("app", 0)
	ma.RegisterProcess(p)
	return p
}
