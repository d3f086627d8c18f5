package core_test

import (
	"errors"
	"testing"

	"socksdirect/internal/core"
	"socksdirect/internal/costmodel"
	"socksdirect/internal/exec"
	"socksdirect/internal/host"
	"socksdirect/internal/telemetry"
)

// The monitor's interrupt (§4.4): a message that needs a process's attention
// — a SYN, a revocation — is marked pending, and the process is signalled
// only when no thread of it is inside libsd. A thread inside polls its
// control queues before it returns to the application; the last one out
// runs what the handler would have.

// signals is how far sd/host/signal_interrupts and sd/monitor/signals_deferred
// have moved since the last call.
type signals struct{ sent, deferred int64 }

func (s *signals) since() signals {
	now := signals{telemetry.C(telemetry.HostSignals).Load(), telemetry.C(telemetry.MonSignalsDeferred).Load()}
	d := signals{now.sent - s.sent, now.deferred - s.deferred}
	*s = now
	return d
}

// TestSpinningListenerIsNotSignalled: a listener spinning in Accept is
// inside libsd and finds the SYN at its next poll, so the KNewConn costs
// neither a signal nor its 2 µs: a dial is answered in a tenth of that.
func TestSpinningListenerIsNotSignalled(t *testing.T) {
	w := boundaryWorld(t)
	sp, sl := proc(t, w.a, "server", 0)
	cp, cl := proc(t, w.a, "client", 1000)
	sp.Spawn("srv", echoServer(t, sl, 7660))
	cp.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
		ctx.Sleep(10_000) // the listener spins: it entered Accept 10 µs ago
		var c signals
		c.since()
		for i := 0; i < 5; i++ {
			dial, _ := echoOnce(t, ctx, th, cl, "hostA", 7660)
			if got := c.since(); got != (signals{sent: 0, deferred: 1}) {
				t.Errorf("dial %d: %d signals sent, %d deferred; want 0 and 1 (the KNewConn)", i, got.sent, got.deferred)
			}
			if dial >= costmodel.Default.SignalDeliver {
				t.Errorf("dial %d took %d sim-ns: the listener's process paid a signal", i, dial)
			}
		}
		sp.Signal(ctx, host.SIGKILL)
	})
	w.sim.Run()
}

// TestParkedListenerIsSignalledOnce: with every thread of the listener's
// process parked — the listener in Accept, a sibling in Recv — nobody is
// inside to poll, and the SYN is delivered by exactly one signal, whose
// handler wakes the listener. (The boundary golden accept-sibling-in-recv
// pins the times.)
func TestParkedListenerIsSignalledOnce(t *testing.T) {
	w := boundaryWorld(t)
	sp, sl := proc(t, w.a, "server", 0)
	cp, cl := proc(t, w.a, "client", 0)
	sp.Spawn("srv", func(ctx exec.Context, th *host.Thread) {
		lst, _ := sl.ListenOn(ctx, th, 7661)
		for i := 0; i < 2; i++ {
			s, _, err := lst.Accept(ctx)
			if err != nil {
				t.Errorf("accept %d: %v", i, err)
				return
			}
			if i == 0 {
				th.Proc.Spawn("sibling", func(ctx2 exec.Context, th2 *host.Thread) {
					s.Recv(ctx2, th2, make([]byte, 8)) // parks; ends with the process
				})
			}
		}
	})
	cp.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
		ctx.Sleep(10_000)
		if _, _, err := cl.Connect(ctx, th, "hostA", 7661); err != nil {
			t.Errorf("first dial: %v", err)
		}
		ctx.Sleep(5_000_000) // both server threads are parked by now
		var c signals
		c.since()
		t0 := ctx.Now()
		_, _, err := cl.ConnectDeadline(ctx, th, "hostA", 7661, ctx.Now()+1_000_000)
		if err != nil {
			t.Errorf("dial to a parked listener: %v", err)
		}
		if got := c.since(); got != (signals{sent: 1, deferred: 0}) {
			t.Errorf("%d signals sent, %d deferred; want exactly one sent", got.sent, got.deferred)
		}
		if d := ctx.Now() - t0; d < costmodel.Default.SignalDeliver {
			t.Errorf("dial took %d sim-ns, less than the signal it needed", d)
		}
		sp.Signal(ctx, host.SIGKILL)
	})
	w.sim.Run()
}

// TestSiblingLeavingDeliversSYN is the lost wake-up the pending mark exists
// for: the listener is parked in Accept, and when the SYN comes a sibling
// thread is inside libsd — copying a 64 KiB Send, which polls nothing — so
// the monitor does not signal. The sibling leaves without polling; its
// library exit must run the SYN's handler, or the listener never wakes and
// the dial ends at its deadline.
func TestSiblingLeavingDeliversSYN(t *testing.T) {
	w := boundaryWorld(t)
	sp, sl := proc(t, w.a, "server", 0)
	cp, cl := proc(t, w.a, "client", 0)
	const sendAt, dialAt = 5_000_000, 5_001_000
	sp.Spawn("srv", func(ctx exec.Context, th *host.Thread) {
		lst, _ := sl.ListenOn(ctx, th, 7662)
		for i := 0; i < 2; i++ {
			s, _, err := lst.Accept(ctx)
			if err != nil {
				t.Errorf("accept %d: %v", i, err)
				return
			}
			if i == 0 {
				th.Proc.Spawn("sibling", func(ctx2 exec.Context, th2 *host.Thread) {
					ctx2.Sleep(sendAt - ctx2.Now())
					if _, err := s.Send(ctx2, th2, make([]byte, 64<<10)); err != nil {
						t.Errorf("sibling send: %v", err)
					}
					ctx2.Sleep(100_000_000) // idle, outside the library
				})
			}
		}
	})
	cp.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
		ctx.Sleep(10_000)
		if _, _, err := cl.Connect(ctx, th, "hostA", 7662); err != nil {
			t.Errorf("first dial: %v", err)
		}
		ctx.Sleep(dialAt - ctx.Now())
		var c signals
		c.since()
		if _, _, err := cl.ConnectDeadline(ctx, th, "hostA", 7662, ctx.Now()+1_000_000); err != nil {
			t.Errorf("dial while the sibling is inside: %v", err)
		}
		if got := c.since(); got.sent != 0 || got.deferred == 0 {
			t.Errorf("%d signals sent, %d deferred: the SYN did not find the sibling inside libsd", got.sent, got.deferred)
		}
		sp.Signal(ctx, host.SIGKILL)
	})
	w.sim.Run()
}

// TestDialsAroundAcceptPark dials a listener at offsets on both sides of the
// moment its Accept, after 4 096 empty polls, leaves the library and parks:
// a SYN that finds it still polling is deferred, one that finds it parked is
// signalled, and every dial, at every offset in between, completes.
func TestDialsAroundAcceptPark(t *testing.T) {
	const from, to, step = 162_900, 164_900, 10 // the park is at ~163 900
	var deferred, signalled int
	for at := int64(from); at < to; at += step {
		w := boundaryWorld(t)
		sp, sl := proc(t, w.a, "server", 0)
		cp, cl := proc(t, w.a, "client", 0)
		sp.Spawn("srv", func(ctx exec.Context, th *host.Thread) {
			lst, _ := sl.ListenOn(ctx, th, 7663)
			lst.Accept(ctx)
		})
		var c, got signals
		var err error
		cp.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
			ctx.Sleep(at)
			c.since()
			_, _, err = cl.ConnectDeadline(ctx, th, "hostA", 7663, at+1_000_000)
			got = c.since()
			sp.Signal(ctx, host.SIGKILL)
		})
		w.sim.Run()
		if err != nil {
			t.Errorf("dial at %d: %v", at, err)
		}
		switch got {
		case signals{sent: 0, deferred: 1}:
			deferred++
		case signals{sent: 1, deferred: 0}:
			signalled++
		default:
			t.Errorf("dial at %d: %d signals sent, %d deferred", at, got.sent, got.deferred)
		}
	}
	t.Logf("%d dials found the listener polling, %d parked", deferred, signalled)
	if deferred == 0 || signalled == 0 {
		t.Errorf("the offsets do not straddle the park: %d deferred, %d signalled", deferred, signalled)
	}
}

// TestSiblingDispatchWakesParkedReceiver: thread A of the client is parked in
// Recv when its peer is SIGKILLed, and thread B is inside libsd, spinning on
// a full ring. The monitor marks the KPeerDead pending instead of signalling;
// B's next poll dispatches it, and the handler must wake A, which no data
// will: A returns ECONNRESET within microseconds, not at the end of the run.
func TestSiblingDispatchWakesParkedReceiver(t *testing.T) {
	const killAt, sendAt, sendFor = 400_000, 300_000, 2_000_000
	w := boundaryWorld(t)
	accept := func(l *core.Libsd, port uint16) func(exec.Context, *host.Thread) {
		return func(ctx exec.Context, th *host.Thread) {
			lst, _ := l.ListenOn(ctx, th, port)
			if _, _, err := lst.Accept(ctx); err != nil { // and never read
				t.Errorf("accept on %d: %v", port, err)
			}
		}
	}
	xp, xl := proc(t, w.a, "peer", 0)
	xp.Spawn("srv", accept(xl, 7664))
	yp, yl := proc(t, w.a, "sink", 0)
	yp.Spawn("srv", accept(yl, 7665))
	cp, cl := proc(t, w.a, "client", 0)
	var aErr error
	var aAt int64
	cp.Spawn("A", func(ctx exec.Context, th *host.Thread) {
		ctx.Sleep(10_000)
		s1, _, err := cl.Connect(ctx, th, "hostA", 7664)
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		th.Proc.Spawn("B", func(ctx2 exec.Context, th2 *host.Thread) {
			ctx2.Sleep(sendAt - ctx2.Now())
			s2, _, err := cl.Connect(ctx2, th2, "hostA", 7665)
			if err != nil {
				t.Errorf("connect: %v", err)
				return
			}
			s2.SetSendDeadline(ctx2.Now() + sendFor)
			if _, err := s2.Send(ctx2, th2, make([]byte, 1<<20)); !errors.Is(err, core.ETIMEDOUT) {
				t.Errorf("B's send: %v, want ETIMEDOUT", err)
			}
		})
		_, aErr = s1.Recv(ctx, th, make([]byte, 8))
		aAt = ctx.Now()
	})
	var c, got signals
	at(w, killAt, func(ctx exec.Context) {
		if n := telemetry.C(telemetry.CoreRecvSleeps).Load(); n == 0 {
			t.Error("A is not parked when its peer dies")
		}
		xp.Signal(ctx, host.SIGKILL)
		c.since() // the SIGKILL itself is a signal
	})
	at(w, killAt+100_000, func(exec.Context) { got = c.since() })
	at(w, 2*sendAt+sendFor, func(ctx exec.Context) {
		cp.Signal(ctx, host.SIGKILL)
		yp.Signal(ctx, host.SIGKILL)
	})
	w.sim.Run()
	if got != (signals{sent: 1, deferred: 1}) {
		t.Errorf("%d signals sent, %d deferred; want A's SIGHUP sent and the KPeerDead deferred to B", got.sent, got.deferred)
	}
	if !errors.Is(aErr, core.ECONNRESET) || aAt > killAt+100_000 {
		t.Errorf("A's recv: %v at %d sim-ns, want ECONNRESET within 100 µs of the kill at %d", aErr, aAt, killAt)
	}
	t.Logf("A's recv: %s at %d sim-ns", errName(aErr), aAt)
}
