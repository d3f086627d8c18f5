package core_test

import (
	"bytes"
	"errors"
	"testing"

	"socksdirect/internal/core"
	"socksdirect/internal/exec"
	"socksdirect/internal/host"
	"socksdirect/internal/monitor"
	"socksdirect/internal/telemetry"
)

// After a restart over 2 000 connections, the successor has heard both
// processes' reports within reportBound, while neither process has a thread
// in libsd, and all 2 000 echoes are done within restartEchoBound of the
// restart (virtual ns). The reports take µs, the echoes 210 µs.
const (
	reportBound      = 1_000_000
	restartEchoBound = 2_000_000
)

// TestRestartWithManyConnections: two processes hold 2 000 idle intra-host
// connections when their monitor restarts. Each re-registration report is
// ten times what a control ring holds, and its first part is written by the
// signal handler on the monitor's router thread, which nothing can drain
// while it runs: what does not fit waits in libsd, and the shards that
// drain the planes have the process write the rest, through its signal
// handler when no thread of it is in libsd. The successor holds one record
// per connection, and every connection then echoes. (While the report was
// sent by a loop that waited for room, the restart never returned: from
// 2 000 connections at 64 KiB rings, from a few hundred at 8 KiB.)
func TestRestartWithManyConnections(t *testing.T) {
	const n = 2000
	w := newWorld(t)
	sp, sl := proc(t, w.a, "server", 0)
	cp, cl := proc(t, w.a, "client", 1000)
	full := telemetry.C(telemetry.MonCtlRingFull)
	full0 := full.Load()
	ready := false
	sp.Spawn("srv", func(ctx exec.Context, th *host.Thread) {
		lst, err := sl.ListenOn(ctx, th, 7300)
		if err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		socks := make([]*core.Socket, n)
		for i := range socks {
			if socks[i], _, err = lst.Accept(ctx); err != nil {
				t.Errorf("accept %d: %v", i, err)
				return
			}
		}
		buf := make([]byte, 8)
		for i, s := range socks {
			m, err := s.Recv(ctx, th, buf)
			if err == nil {
				_, err = s.Send(ctx, th, buf[:m])
			}
			if err != nil {
				t.Errorf("server echo %d: %v", i, err)
				return
			}
		}
	})
	var next *monitor.Monitor
	cp.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
		socks := make([]*core.Socket, n)
		for i := range socks {
			var err error
			if socks[i], _, err = cl.Connect(ctx, th, "hostA", 7300); err != nil {
				t.Errorf("dial %d: %v", i, err)
				return
			}
		}
		ready = true
		start := ctx.Now()
		next = monitor.Restart(w.a)
		for ctx.Now() < start+reportBound { // outside libsd: a spurious wake sleeps again
			ctx.Sleep(start + reportBound - ctx.Now())
		}
		if q := sl.CtlQueued() + cl.CtlQueued(); q != 0 {
			t.Errorf("%d ns after the restart %d report records still wait in libsd", reportBound, q)
		}
		if got := next.LiveConnRecords(); got != n {
			t.Errorf("%d ns after the restart the successor holds %d connection records, want %d", reportBound, got, n)
		}
		buf := make([]byte, 8)
		for i, s := range socks {
			if _, err := s.Send(ctx, th, eight); err != nil {
				t.Errorf("client send %d: %v", i, err)
				return
			}
			if m, err := s.Recv(ctx, th, buf); err != nil || !bytes.Equal(buf[:m], eight) {
				t.Errorf("client echo %d: %q, %v", i, buf[:m], err)
				return
			}
		}
		if took := ctx.Now() - start; took > restartEchoBound {
			t.Errorf("the echoes after the restart took %d ns, bound %d", took, restartEchoBound)
		}
	})
	w.sim.Run()
	if !ready {
		t.Fatal("the connections were never all up")
	}
	t.Logf("%d control sends found their ring full", full.Load()-full0)
	if full.Load() == full0 {
		t.Error("no report record found its ring full: the test tests nothing")
	}
}

// TestPeerDeathWithManyConnections: a client holds 2 000 intra-host
// connections and spins in a receive on the first when their server is
// killed. The monitor's crash cleanup tells it of every connection's death
// at once, on the router thread, and the signals are deferred (a thread is
// inside libsd): the client's control rings fill, and the rest waits in the
// monitor. Each time the client drains a plane, the shard is rung and
// writes the next part. Every connection reports ECONNRESET, within
// resetBound of the kill: they take 4.04 ms, as when the router waited for
// room on the ring.
func TestPeerDeathWithManyConnections(t *testing.T) {
	const n = 2000
	const resetBound = 5_000_000
	w := newWorld(t)
	sp, sl := proc(t, w.a, "server", 0)
	cp, cl := proc(t, w.a, "client", 1000)
	full := telemetry.C(telemetry.MonCtlRingFull)
	full0 := full.Load()
	var ready, killed int64
	sp.Spawn("srv", func(ctx exec.Context, th *host.Thread) {
		lst, err := sl.ListenOn(ctx, th, 7301)
		if err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		for i := range n {
			if _, _, err := lst.Accept(ctx); err != nil {
				t.Errorf("accept %d: %v", i, err)
				return
			}
		}
	})
	resets := 0
	cp.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
		socks := make([]*core.Socket, n)
		for i := range socks {
			var err error
			if socks[i], _, err = cl.Connect(ctx, th, "hostA", 7301); err != nil {
				t.Errorf("dial %d: %v", i, err)
				return
			}
		}
		ready = ctx.Now()
		buf := make([]byte, 8)
		for i, s := range socks {
			if _, err := s.Recv(ctx, th, buf); !errors.Is(err, core.ECONNRESET) {
				t.Errorf("receive %d: %v, want ECONNRESET", i, err)
				return
			}
			resets++
		}
		if took := ctx.Now() - killed; took > resetBound {
			t.Errorf("the resets took %d ns after the kill, bound %d", took, resetBound)
		}
	})
	w.sim.Spawn("kill", func(ctx exec.Context) {
		for ready == 0 {
			ctx.Sleep(1_000)
		}
		killed = ctx.Now()
		sp.Signal(ctx, host.SIGKILL)
	})
	w.sim.Run()
	if resets != n {
		t.Errorf("%d of %d connections reported their reset", resets, n)
	}
	if full.Load() == full0 {
		t.Error("no death notice found its ring full: the test tests nothing")
	}
}
