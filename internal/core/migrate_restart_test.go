package core_test

import (
	"errors"
	"testing"

	"socksdirect/internal/core"
	"socksdirect/internal/costmodel"
	"socksdirect/internal/exec"
	"socksdirect/internal/host"
	"socksdirect/internal/ksocket"
	"socksdirect/internal/monitor"
)

// TestMigrateAcrossMonitorRestart crosses container live migration (§4.1.3)
// with monitor restart survivability: the destination host's monitor is
// down for the entire hot phase of the migration. The migrated process
// registers against the dead incarnation, its fresh control-plane ops must
// abort cleanly with ETIMEDOUT (bounded, no hang), and its data-plane
// re-splice (KReQP through the monitor) must park politely and complete
// once the successor incarnation answers — no stuck token, no lost bytes,
// and every monitor converged at the end.
func TestMigrateAcrossMonitorRestart(t *testing.T) {
	s := exec.NewSim(exec.SimConfig{})
	costs := costmodel.Default
	a := host.New("hostA", s, &costs, 1)
	b := host.New("hostB", s, &costs, 2)
	c := host.New("hostC", s, &costs, 3)
	host.NewNet(a.Clk, host.LinkConfig(&costs, 7)).Join(a, b, c)
	ka, kb, kc := ksocket.New(a), ksocket.New(b), ksocket.New(c)
	ma := monitor.Start(a, ka)
	mb := monitor.Start(b, kb)
	mc := monitor.Start(c, kc)
	monitor.Peer(ma, mb)
	monitor.Peer(mc, mb)

	sp := b.NewProcess("server", 0)
	sl, err := core.Init(sp)
	if err != nil {
		t.Fatal(err)
	}
	cp := a.NewProcess("container", 0)
	clib, err := core.Init(cp)
	if err != nil {
		t.Fatal(err)
	}

	var got []string
	sp.Spawn("srv", func(ctx exec.Context, th *host.Thread) {
		lst, _ := sl.ListenOn(ctx, th, 7800)
		sock, _, err := lst.Accept(ctx)
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		buf := make([]byte, 64)
		for i := 0; i < 3; i++ {
			n, err := sock.Recv(ctx, th, buf)
			if err != nil {
				t.Errorf("recv %d: %v", i, err)
				return
			}
			got = append(got, string(buf[:n]))
			if _, err := sock.Send(ctx, th, []byte("ack")); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
		}
	})
	// Second service for the migrated process's post-restart retry connect.
	var retryServed bool
	sp.Spawn("srv2", func(ctx exec.Context, th *host.Thread) {
		lst, _ := sl.ListenOn(ctx, th, 7801)
		sock, _, err := lst.Accept(ctx)
		if err != nil {
			return
		}
		buf := make([]byte, 8)
		if n, err := sock.Recv(ctx, th, buf); err == nil {
			sock.Send(ctx, th, buf[:n])
			retryServed = true
		}
	})

	// The successor incarnation comes up at 40 ms, well after the migrated
	// process has registered with (and timed out against) the dead one.
	var mc2 *monitor.Monitor
	s.Spawn("restart-ctl", func(ctx exec.Context) {
		ctx.Sleep(40_000_000)
		mc2 = monitor.Restart(c)
	})

	var timedOut, timedOutBounded, retriedOK bool
	cp.Spawn("main", func(ctx exec.Context, th *host.Thread) {
		ctx.Sleep(10_000)
		sock, _, err := clib.Connect(ctx, th, "hostB", 7800)
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		buf := make([]byte, 16)
		sock.Send(ctx, th, []byte("before"))
		sock.Recv(ctx, th, buf)

		// The destination monitor dies before the migration lands.
		mc.Stop()
		np, nl, err := core.Migrate(clib, c, "container")
		if err != nil {
			t.Errorf("migrate: %v", err)
			return
		}
		np.Spawn("main", func(cctx exec.Context, cth *host.Thread) {
			// A fresh control-plane op against the dead monitor: must abort
			// with the bounded-wait errno, within the deadline, never hang.
			began := cctx.Now()
			_, _, err := nl.Connect(cctx, cth, "hostB", 7801)
			took := cctx.Now() - began
			if err == nil {
				t.Error("connect with the monitor down unexpectedly succeeded")
				return
			}
			if !errors.Is(err, core.ErrMonitorDown) {
				t.Errorf("connect during downtime: got %v, want ErrMonitorDown", err)
				return
			}
			timedOut = true
			timedOutBounded = took < 25_000_000
			if !timedOutBounded {
				t.Errorf("downtime connect took %d ns, want bounded by the deadline", took)
			}

			// The migrated socket: its lazy endpoint re-splices a QP through
			// the (currently dead) monitor. The op must simply wait out the
			// outage and complete under the successor.
			ms, err := nl.SocketByFD(sock.FD())
			if err != nil {
				t.Errorf("fd after migration: %v", err)
				return
			}
			mbuf := make([]byte, 16)
			if _, err := ms.Send(cctx, cth, []byte("after-1")); err != nil {
				t.Errorf("post-migration send: %v", err)
				return
			}
			if _, err := ms.Recv(cctx, cth, mbuf); err != nil {
				t.Errorf("post-migration recv: %v", err)
				return
			}
			if _, err := ms.Send(cctx, cth, []byte("after-2")); err != nil {
				t.Errorf("post-migration send 2: %v", err)
				return
			}
			ms.Recv(cctx, cth, mbuf)

			// And the aborted control-plane op succeeds on retry.
			rs, _, err := nl.Connect(cctx, cth, "hostB", 7801)
			if err != nil {
				t.Errorf("retry connect after restart: %v", err)
				return
			}
			rs.Send(cctx, cth, []byte("hi"))
			if _, err := rs.Recv(cctx, cth, mbuf); err != nil {
				t.Errorf("retry echo: %v", err)
				return
			}
			retriedOK = true
		})
	})

	s.Run()
	if len(got) != 3 || got[0] != "before" || got[1] != "after-1" || got[2] != "after-2" {
		t.Fatalf("server saw %v", got)
	}
	if !timedOut || !timedOutBounded {
		t.Error("downtime connect did not abort with a bounded ETIMEDOUT")
	}
	if !retriedOK || !retryServed {
		t.Error("control-plane retry after restart did not complete")
	}
	if mc2 == nil {
		t.Fatal("restart controller never ran")
	}
	for name, m := range map[string]*monitor.Monitor{"A": ma, "B": mb, "C2": mc2} {
		if err := m.CrashConverged(); err != nil {
			t.Errorf("monitor %s not converged: %v", name, err)
		}
	}
}
