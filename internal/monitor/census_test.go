package monitor

import (
	"testing"

	"socksdirect/internal/core"
	"socksdirect/internal/exec"
	"socksdirect/internal/host"
	"socksdirect/internal/telemetry"
)

// TestTeardownIsHarmless: ending a world must be harmless when repeated and
// when it cuts a dial short (laitos sockd, SNIPPETS.md: a repeated Stop() is
// a no-op, and so is a close during a dial). A client waits in Connect for
// the ACK of a server that listens and never accepts. Its host's monitor
// stops, a second Stop moves no counter and no census column, and the
// client is killed mid-dial. The world, ended with the server still holding
// the dispatched connection, holds nothing.
func TestTeardownIsHarmless(t *testing.T) {
	s, ma, mb, a, b := newHostPair()
	base := TakeCensus()
	Peer(ma, mb)
	proc := func(h *host.Host, name string) (*host.Process, *core.Libsd) {
		p := h.NewProcess(name, 0)
		l, err := core.Init(p)
		if err != nil {
			t.Fatalf("libsd init: %v", err)
		}
		return p, l
	}
	sp, sl := proc(b, "server")
	cp, cl := proc(a, "client")
	sp.Spawn("srv", func(ctx exec.Context, th *host.Thread) {
		if _, err := sl.ListenOn(ctx, th, 80); err != nil {
			t.Errorf("listen: %v", err)
		}
	})
	cp.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
		ctx.Sleep(10_000)
		cl.Connect(ctx, th, "b", 80)
	})
	s.Spawn("reaper", func(ctx exec.Context) {
		ctx.Sleep(200_000)
		if n := cl.Holdings().Dials; n != 1 {
			t.Errorf("%d dials in flight, want 1", n)
		}
		ma.Stop()
		census, counters := TakeCensus(a, b), telemetry.Capture()
		ma.Stop()
		if d := telemetry.Capture().Diff(counters); d.Format(true) != "" {
			t.Errorf("a second Stop moved\n%s", d.Format(true))
		}
		if c := TakeCensus(a, b); c != census {
			t.Errorf("a second Stop moved the census from %+v to %+v", census, c)
		}
		cp.Signal(ctx, host.SIGKILL)
	})
	s.Run()
	if left := EndWorld(s, base, a, b); left != (Census{}) {
		t.Errorf("the world killed mid-dial ends holding %+v", left)
	}
}
