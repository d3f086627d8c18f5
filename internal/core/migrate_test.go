package core_test

import (
	"testing"

	"socksdirect/internal/core"
	"socksdirect/internal/costmodel"
	"socksdirect/internal/exec"
	"socksdirect/internal/host"
	"socksdirect/internal/ksocket"
	"socksdirect/internal/monitor"
)

// TestContainerLiveMigration moves a client "container" from hostA to a
// third host mid-conversation (§4.1.3): the socket queues travel with it,
// a fresh QP pair is spliced from the new host, the peer switches queues,
// and the byte stream continues without loss.
func TestContainerLiveMigration(t *testing.T) {
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
		lst, _ := sl.ListenOn(ctx, th, 7700)
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

	cp.Spawn("main", func(ctx exec.Context, th *host.Thread) {
		ctx.Sleep(10_000)
		sock, _, err := clib.Connect(ctx, th, "hostB", 7700)
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		buf := make([]byte, 16)
		sock.Send(ctx, th, []byte("before"))
		sock.Recv(ctx, th, buf)

		// Live-migrate the container to hostC.
		np, nl, err := core.Migrate(clib, c, "container")
		if err != nil {
			t.Errorf("migrate: %v", err)
			return
		}
		if !cp.Dead() {
			t.Error("source container still alive after migration")
		}
		migrated := false
		np.Spawn("main", func(cctx exec.Context, cth *host.Thread) {
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
			migrated = true
		})
		// The source thread's job is done; it must not touch the socket
		// again (its host considers the container gone).
		_ = migrated
	})

	s.Run()
	if len(got) != 3 || got[0] != "before" || got[1] != "after-1" || got[2] != "after-2" {
		t.Fatalf("server saw %v", got)
	}
}
