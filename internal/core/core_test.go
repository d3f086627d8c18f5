package core_test

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"

	"socksdirect/internal/core"
	"socksdirect/internal/costmodel"
	"socksdirect/internal/ctlmsg"
	"socksdirect/internal/exec"
	"socksdirect/internal/host"
	"socksdirect/internal/ksocket"
	"socksdirect/internal/mem"
	"socksdirect/internal/monitor"
)

// world bundles a two-host SocksDirect deployment plus one non-SD host.
type world struct {
	sim        *exec.Sim
	a, b, c    *host.Host // c has no monitor (regular TCP/IP peer)
	ma, mb     *monitor.Monitor
	ka, kb, kc *ksocket.Stack
}

func newWorld(t testing.TB) *world { return newWorldCfg(t, exec.SimConfig{}) }

func newWorldCfg(t testing.TB, cfg exec.SimConfig) *world {
	t.Helper()
	s := exec.NewSim(cfg)
	costs := costmodel.Default
	w := &world{sim: s}
	w.a = host.New("hostA", s, &costs, 1)
	w.b = host.New("hostB", s, &costs, 2)
	w.c = host.New("hostC", s, &costs, 3)
	host.NewNet(w.a.Clk, host.LinkConfig(&costs, 7)).Join(w.a, w.b, w.c)
	w.ka, w.kb, w.kc = ksocket.New(w.a), ksocket.New(w.b), ksocket.New(w.c)
	w.ma = monitor.Start(w.a, w.ka)
	w.mb = monitor.Start(w.b, w.kb)
	return w
}

// proc makes a process with libsd loaded.
func proc(t testing.TB, h *host.Host, name string, uid int) (*host.Process, *core.Libsd) {
	t.Helper()
	p := h.NewProcess(name, uid)
	l, err := core.Init(p)
	if err != nil {
		t.Fatalf("libsd init: %v", err)
	}
	return p, l
}

func TestIntraHostEcho(t *testing.T) {
	w := newWorld(t)
	sp, sl := proc(t, w.a, "server", 0)
	cp, clib := proc(t, w.a, "client", 1000)

	sp.Spawn("srv", func(ctx exec.Context, th *host.Thread) {
		lst, err := sl.ListenOn(ctx, th, 7000)
		if err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		s, _, err := lst.Accept(ctx)
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		buf := make([]byte, 64)
		n, err := s.Recv(ctx, th, buf)
		if err != nil {
			t.Errorf("recv: %v", err)
			return
		}
		if _, err := s.Send(ctx, th, bytes.ToUpper(buf[:n])); err != nil {
			t.Errorf("send: %v", err)
		}
	})
	var got string
	cp.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
		ctx.Sleep(10_000) // let the server listen first
		s, _, err := clib.Connect(ctx, th, "hostA", 7000)
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		s.Send(ctx, th, []byte("hello shm"))
		buf := make([]byte, 64)
		n, err := s.Recv(ctx, th, buf)
		if err != nil {
			t.Errorf("recv: %v", err)
			return
		}
		got = string(buf[:n])
	})
	w.sim.Run()
	if got != "HELLO SHM" {
		t.Fatalf("echo got %q", got)
	}
}

func TestInterHostEchoRDMA(t *testing.T) {
	w := newWorld(t)
	monitor.Peer(w.ma, w.mb) // channel pre-established
	sp, sl := proc(t, w.b, "server", 0)
	cp, clib := proc(t, w.a, "client", 0)

	sp.Spawn("srv", func(ctx exec.Context, th *host.Thread) {
		lst, err := sl.ListenOn(ctx, th, 7001)
		if err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		s, _, err := lst.Accept(ctx)
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		buf := make([]byte, 128)
		for i := 0; i < 3; i++ {
			n, err := s.Recv(ctx, th, buf)
			if err != nil {
				t.Errorf("recv: %v", err)
				return
			}
			s.Send(ctx, th, buf[:n])
		}
	})
	ok := true
	cp.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
		ctx.Sleep(10_000)
		s, _, err := clib.Connect(ctx, th, "hostB", 7001)
		if err != nil {
			t.Errorf("connect: %v", err)
			ok = false
			return
		}
		buf := make([]byte, 128)
		for i := 0; i < 3; i++ {
			msg := []byte("rdma-ping-" + string(rune('0'+i)))
			s.Send(ctx, th, msg)
			n, err := s.Recv(ctx, th, buf)
			if err != nil || !bytes.Equal(buf[:n], msg) {
				t.Errorf("round %d: %v %q", i, err, buf[:n])
				ok = false
				return
			}
		}
	})
	w.sim.Run()
	if !ok {
		t.Fatal("inter-host echo failed")
	}
}

func TestCapabilityProbeEstablishesRDMA(t *testing.T) {
	// No monitor.Peer: the first connect must go through the special-SYN
	// probe and still end on the RDMA path (§4.5.3).
	w := newWorld(t)
	sp, sl := proc(t, w.b, "server", 0)
	cp, clib := proc(t, w.a, "client", 0)

	sp.Spawn("srv", func(ctx exec.Context, th *host.Thread) {
		lst, _ := sl.ListenOn(ctx, th, 7002)
		s, kf, err := lst.Accept(ctx)
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		if s == nil || kf != nil {
			t.Error("probe path fell back to TCP despite both hosts being SD-capable")
			return
		}
		buf := make([]byte, 32)
		n, _ := s.Recv(ctx, th, buf)
		s.Send(ctx, th, buf[:n])
	})
	var got string
	cp.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
		ctx.Sleep(10_000)
		s, kf, err := clib.Connect(ctx, th, "hostB", 7002)
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		if kf != nil {
			t.Error("client got TCP fallback")
			return
		}
		s.Send(ctx, th, []byte("probed"))
		buf := make([]byte, 32)
		n, _ := s.Recv(ctx, th, buf)
		got = string(buf[:n])
	})
	w.sim.Run()
	if got != "probed" {
		t.Fatalf("got %q", got)
	}
}

func TestFallbackToRegularTCPPeer(t *testing.T) {
	// hostC runs no monitor: a plain kernel TCP server. The SD client must
	// transparently fall back (repair path).
	w := newWorld(t)
	cp, clib := proc(t, w.a, "client", 0)

	lc, err := w.kc.Listen(8000)
	if err != nil {
		t.Fatal(err)
	}
	w.sim.Spawn("tcp-server", func(ctx exec.Context) {
		c, err := lc.Accept(ctx)
		if err != nil {
			t.Errorf("kernel accept: %v", err)
			return
		}
		buf := make([]byte, 32)
		n, _ := c.Recv(ctx, buf)
		c.Send(ctx, append([]byte("tcp:"), buf[:n]...))
	})
	var got string
	cp.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
		s, kf, err := clib.Connect(ctx, th, "hostC", 8000)
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		if s != nil || kf == nil {
			t.Error("expected TCP fallback kernel file")
			return
		}
		kf.Write(ctx, []byte("hi"))
		buf := make([]byte, 32)
		n, _ := kf.Read(ctx, buf)
		got = string(buf[:n])
	})
	w.sim.Run()
	if got != "tcp:hi" {
		t.Fatalf("fallback echo got %q", got)
	}
}

func TestRegularTCPClientReachesSDServer(t *testing.T) {
	// A kernel-TCP client on hostC connects to an SD service on hostB via
	// the monitor's dual kernel listener.
	w := newWorld(t)
	sp, sl := proc(t, w.b, "server", 0)

	sp.Spawn("srv", func(ctx exec.Context, th *host.Thread) {
		lst, _ := sl.ListenOn(ctx, th, 8001)
		s, kf, err := lst.Accept(ctx)
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		if kf == nil || s != nil {
			t.Error("expected a kernel-file connection from the TCP client")
			return
		}
		buf := make([]byte, 32)
		n, _ := kf.Read(ctx, buf)
		kf.Write(ctx, bytes.ToUpper(buf[:n]))
	})
	var got string
	w.sim.Spawn("tcp-client", func(ctx exec.Context) {
		ctx.Sleep(50_000)
		c, err := w.kc.Dial(ctx, "hostB", 8001)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		c.Send(ctx, []byte("legacy"))
		buf := make([]byte, 32)
		n, _ := c.Recv(ctx, buf)
		got = string(buf[:n])
	})
	w.sim.Run()
	if got != "LEGACY" {
		t.Fatalf("got %q", got)
	}
}

func TestAccessControlPolicy(t *testing.T) {
	w := newWorld(t)
	_, sl := proc(t, w.a, "server", 0)
	cp, clib := proc(t, w.a, "client", 1234)
	w.ma.SetPolicy(func(uid int, dst string, port uint16) bool {
		return uid != 1234 // block our client
	})
	sp := sl.P
	sp.Spawn("srv", func(ctx exec.Context, th *host.Thread) {
		sl.ListenOn(ctx, th, 7003)
	})
	var err error
	cp.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
		ctx.Sleep(20_000)
		_, _, err = clib.Connect(ctx, th, "hostA", 7003)
	})
	w.sim.Run()
	if !errors.Is(err, core.ErrDenied) {
		t.Fatalf("want ErrDenied, got %v", err)
	}
}

func TestPrivilegedPortRequiresRoot(t *testing.T) {
	w := newWorld(t)
	_, ul := proc(t, w.a, "unpriv", 1000)
	up := ul.P
	var err error
	up.Spawn("u", func(ctx exec.Context, th *host.Thread) {
		_, err = ul.ListenOn(ctx, th, 80)
	})
	w.sim.Run()
	if !errors.Is(err, core.ErrDenied) {
		t.Fatalf("want ErrDenied for port 80 as uid 1000, got %v", err)
	}
}

func TestConnectNoListener(t *testing.T) {
	w := newWorld(t)
	cp, clib := proc(t, w.a, "client", 0)
	var err error
	cp.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
		_, _, err = clib.Connect(ctx, th, "hostA", 9999)
	})
	w.sim.Run()
	if !errors.Is(err, core.ErrNoListener) {
		t.Fatalf("want ErrNoListener, got %v", err)
	}
}

func TestTokenTakeoverBetweenThreads(t *testing.T) {
	w := newWorld(t)
	sp, sl := proc(t, w.a, "server", 0)
	cp, clib := proc(t, w.a, "client", 0)

	const perThread = 50
	recvd := 0
	sp.Spawn("srv", func(ctx exec.Context, th *host.Thread) {
		lst, _ := sl.ListenOn(ctx, th, 7004)
		s, _, err := lst.Accept(ctx)
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		buf := make([]byte, 16)
		for recvd < 2*perThread {
			if _, err := s.Recv(ctx, th, buf); err != nil {
				t.Errorf("recv: %v", err)
				return
			}
			recvd++
		}
	})
	cp.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
		ctx.Sleep(10_000)
		s, _, err := clib.Connect(ctx, th, "hostA", 7004)
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		// Thread 1 sends, then a second thread takes over the send token.
		for i := 0; i < perThread; i++ {
			if _, err := s.Send(ctx, th, []byte("from-t1")); err != nil {
				t.Errorf("t1 send: %v", err)
				return
			}
		}
		done := false
		cp.Spawn("cli2", func(ctx2 exec.Context, th2 *host.Thread) {
			for i := 0; i < perThread; i++ {
				if _, err := s.Send(ctx2, th2, []byte("from-t2")); err != nil {
					t.Errorf("t2 send: %v", err)
					return
				}
			}
			done = true
		})
		// Keep thread 1 cooperating so revocation can be honored.
		for !done {
			ctx.Yield()
		}
	})
	w.sim.Run()
	if recvd != 2*perThread {
		t.Fatalf("received %d of %d", recvd, 2*perThread)
	}
	if w.ma.TokensGranted == 0 {
		t.Fatal("no token grant went through the monitor")
	}
}

// TestTokenDirectionOffTheWire: a token message's direction comes off the
// control wire, and anything but DirSend names the receive token. A grant
// and a return request with direction 7 land on the receive side, and the
// send token is left alone.
func TestTokenDirectionOffTheWire(t *testing.T) {
	w := newWorld(t)
	sp, sl := proc(t, w.a, "server", 0)
	cp, clib := proc(t, w.a, "client", 0)
	sp.Spawn("srv", func(ctx exec.Context, th *host.Thread) {
		lst, _ := sl.ListenOn(ctx, th, 7005)
		if _, _, err := lst.Accept(ctx); err != nil {
			t.Errorf("accept: %v", err)
		}
	})
	cp.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
		ctx.Sleep(10_000)
		s, _, err := clib.Connect(ctx, th, "hostA", 7005)
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		me := int64(core.MakeGTID(cp.PID, th.TID))
		other := int64(core.MakeGTID(cp.PID, 99))
		clib.HandleCtl(ctlmsg.Msg{Kind: ctlmsg.KTokenGrant, QID: s.QID(), Dir: 7, PID: int64(cp.PID), TID: 99})
		if got := s.Holder(core.DirRecv); got != other {
			t.Errorf("after a direction-7 grant the receive token is held by %d, want %d", got, other)
		}
		clib.HandleCtl(ctlmsg.Msg{Kind: ctlmsg.KTokenReturn, QID: s.QID(), Dir: 7})
		if got := s.Holder(core.DirRecv); got != 0 {
			t.Errorf("after a direction-7 return request the receive token is held by %d, want none", got)
		}
		if got := s.Holder(core.DirSend); got != me {
			t.Errorf("the send token moved to %d, want %d", got, me)
		}
	})
	w.sim.Run()
}

func TestForkChildUsesSHMSocket(t *testing.T) {
	w := newWorld(t)
	sp, sl := proc(t, w.a, "server", 0)
	cp, clib := proc(t, w.a, "client", 0)

	var got []string
	sp.Spawn("srv", func(ctx exec.Context, th *host.Thread) {
		lst, _ := sl.ListenOn(ctx, th, 7005)
		s, _, err := lst.Accept(ctx)
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		buf := make([]byte, 32)
		for i := 0; i < 2; i++ {
			n, err := s.Recv(ctx, th, buf)
			if err != nil {
				t.Errorf("recv: %v", err)
				return
			}
			got = append(got, string(buf[:n]))
		}
	})
	cp.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
		ctx.Sleep(10_000)
		s, _, err := clib.Connect(ctx, th, "hostA", 7005)
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		s.Send(ctx, th, []byte("parent"))
		child, childLib, err := clib.Fork(ctx, th, "child")
		if err != nil {
			t.Errorf("fork: %v", err)
			return
		}
		childDone := false
		child.Spawn("cmain", func(cctx exec.Context, cth *host.Thread) {
			cs, err := childLib.SocketByFD(s.FD())
			if err != nil {
				t.Errorf("child fd lookup: %v", err)
				return
			}
			if _, err := cs.Send(cctx, cth, []byte("child!")); err != nil {
				t.Errorf("child send: %v", err)
			}
			childDone = true
		})
		for !childDone {
			ctx.Yield() // parent cooperates; child takes the token over
		}
	})
	w.sim.Run()
	if len(got) != 2 || got[0] != "parent" || got[1] != "child!" {
		t.Fatalf("got %v", got)
	}
}

func TestForkChildRDMAReestablishesQP(t *testing.T) {
	w := newWorld(t)
	monitor.Peer(w.ma, w.mb)
	sp, sl := proc(t, w.b, "server", 0)
	cp, clib := proc(t, w.a, "client", 0)

	var got []string
	sp.Spawn("srv", func(ctx exec.Context, th *host.Thread) {
		lst, _ := sl.ListenOn(ctx, th, 7006)
		s, _, err := lst.Accept(ctx)
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		buf := make([]byte, 32)
		for i := 0; i < 2; i++ {
			n, err := s.Recv(ctx, th, buf)
			if err != nil {
				t.Errorf("recv: %v", err)
				return
			}
			got = append(got, string(buf[:n]))
		}
	})
	cp.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
		ctx.Sleep(10_000)
		s, _, err := clib.Connect(ctx, th, "hostB", 7006)
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		s.Send(ctx, th, []byte("pre-fork"))
		child, childLib, err := clib.Fork(ctx, th, "child")
		if err != nil {
			t.Errorf("fork: %v", err)
			return
		}
		childDone := false
		child.Spawn("cmain", func(cctx exec.Context, cth *host.Thread) {
			cs, err := childLib.SocketByFD(s.FD())
			if err != nil {
				t.Errorf("child fd: %v", err)
				return
			}
			if _, err := cs.Send(cctx, cth, []byte("post-fork")); err != nil {
				t.Errorf("child send over re-established QP: %v", err)
			}
			childDone = true
		})
		for !childDone {
			ctx.Yield()
		}
	})
	w.sim.Run()
	if len(got) != 2 || got[0] != "pre-fork" || got[1] != "post-fork" {
		t.Fatalf("got %v", got)
	}
}

func TestZeroCopyIntraHost(t *testing.T) {
	w := newWorld(t)
	sp, sl := proc(t, w.a, "server", 0)
	cp, clib := proc(t, w.a, "client", 0)
	const n = 64 * 1024 // >= ZCThreshold

	payload := make([]byte, n)
	rand.New(rand.NewSource(4)).Read(payload)
	var got []byte
	sp.Spawn("srv", func(ctx exec.Context, th *host.Thread) {
		lst, _ := sl.ListenOn(ctx, th, 7007)
		s, _, err := lst.Accept(ctx)
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		dst := sl.P.AS.Alloc(n)
		rec := 0
		for rec < n {
			m, err := s.RecvVA(ctx, th, dst+mem.VAddr(rec), n-rec)
			if err != nil {
				t.Errorf("recvVA: %v", err)
				return
			}
			rec += m
		}
		got = make([]byte, n)
		sl.P.AS.Read(dst, got)
	})
	cp.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
		ctx.Sleep(10_000)
		s, _, err := clib.Connect(ctx, th, "hostA", 7007)
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		src := clib.P.AS.Alloc(n)
		clib.P.AS.Write(&ctx, src, payload)
		if _, err := s.SendVA(ctx, th, src, n); err != nil {
			t.Errorf("sendVA: %v", err)
			return
		}
		// Overwrite the source immediately: COW must protect the receiver.
		clib.P.AS.Write(&ctx, src, bytes.Repeat([]byte{0xEE}, n))
	})
	w.sim.Run()
	if !bytes.Equal(got, payload) {
		t.Fatal("zero-copy intra-host payload corrupted (COW broken?)")
	}
}

func TestZeroCopyInterHost(t *testing.T) {
	w := newWorld(t)
	monitor.Peer(w.ma, w.mb)
	sp, sl := proc(t, w.b, "server", 0)
	cp, clib := proc(t, w.a, "client", 0)
	const n = 32 * 1024

	payload := make([]byte, n)
	rand.New(rand.NewSource(5)).Read(payload)
	var got []byte
	sp.Spawn("srv", func(ctx exec.Context, th *host.Thread) {
		lst, _ := sl.ListenOn(ctx, th, 7008)
		s, _, err := lst.Accept(ctx)
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		dst := sl.P.AS.Alloc(n)
		rec := 0
		for rec < n {
			m, err := s.RecvVA(ctx, th, dst+mem.VAddr(rec), n-rec)
			if err != nil {
				t.Errorf("recvVA: %v", err)
				return
			}
			rec += m
		}
		got = make([]byte, n)
		sl.P.AS.Read(dst, got)
	})
	cp.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
		ctx.Sleep(10_000)
		s, _, err := clib.Connect(ctx, th, "hostB", 7008)
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		src := clib.P.AS.Alloc(n)
		clib.P.AS.Write(&ctx, src, payload)
		if _, err := s.SendVA(ctx, th, src, n); err != nil {
			t.Errorf("sendVA: %v", err)
		}
	})
	w.sim.Run()
	if !bytes.Equal(got, payload) {
		t.Fatal("zero-copy inter-host payload corrupted")
	}
}

func TestCloseGivesEOF(t *testing.T) {
	w := newWorld(t)
	sp, sl := proc(t, w.a, "server", 0)
	cp, clib := proc(t, w.a, "client", 0)

	var eofErr error
	sp.Spawn("srv", func(ctx exec.Context, th *host.Thread) {
		lst, _ := sl.ListenOn(ctx, th, 7009)
		s, _, err := lst.Accept(ctx)
		if err != nil {
			return
		}
		buf := make([]byte, 16)
		s.Recv(ctx, th, buf) // "bye"
		_, eofErr = s.Recv(ctx, th, buf)
	})
	cp.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
		ctx.Sleep(10_000)
		s, _, err := clib.Connect(ctx, th, "hostA", 7009)
		if err != nil {
			return
		}
		s.Send(ctx, th, []byte("bye"))
		s.Close(ctx, th)
	})
	w.sim.Run()
	if eofErr != io.EOF {
		t.Fatalf("want EOF after close, got %v", eofErr)
	}
}

func TestPeerDeathRaisesSIGHUP(t *testing.T) {
	w := newWorld(t)
	sp, sl := proc(t, w.a, "server", 0)
	cp, clib := proc(t, w.a, "client", 0)

	hupped := false
	sl.P.RegisterHandler(host.SIGHUP, func(host.Signal) { hupped = true })
	var recvErr error
	sp.Spawn("srv", func(ctx exec.Context, th *host.Thread) {
		lst, _ := sl.ListenOn(ctx, th, 7010)
		s, _, err := lst.Accept(ctx)
		if err != nil {
			return
		}
		buf := make([]byte, 16)
		_, recvErr = s.Recv(ctx, th, buf) // client dies without sending
	})
	cp.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
		ctx.Sleep(10_000)
		_, _, err := clib.Connect(ctx, th, "hostA", 7010)
		if err != nil {
			return
		}
		ctx.Sleep(50_000)
		cp.Signal(ctx, host.SIGKILL) // die abruptly
	})
	w.sim.Run()
	if !errors.Is(recvErr, core.ErrPeerDead) {
		t.Fatalf("want ErrPeerDead, got %v", recvErr)
	}
	if !hupped {
		t.Fatal("SIGHUP was not delivered")
	}
}

func TestFDLowestAvailableAcrossKinds(t *testing.T) {
	w := newWorld(t)
	_, l := proc(t, w.a, "app", 0)
	p := l.P
	p.Spawn("t", func(ctx exec.Context, th *host.Thread) {
		r, wr := w.a.Kern.Pipe()
		fd0 := l.InstallKernelFD(r)
		fd1 := l.InstallKernelFD(wr)
		lst, err := l.ListenOn(ctx, th, 7050)
		if err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		if fd0 != 0 || fd1 != 1 || lst.FD() != 2 {
			t.Errorf("fds = %d %d %d, want 0 1 2", fd0, fd1, lst.FD())
		}
		// Releasing fd1 and allocating again must reuse 1 (Redis/Memcached
		// rely on lowest-available, §2.1.4).
		ep := l.NewEpoll()
		if ep.FD() != 3 {
			t.Errorf("epoll fd = %d, want 3", ep.FD())
		}
	})
	w.sim.Run()
}

func TestEpollMixedSources(t *testing.T) {
	w := newWorld(t)
	sp, sl := proc(t, w.a, "server", 0)
	cp, clib := proc(t, w.a, "client", 0)

	var events []core.Event
	sp.Spawn("srv", func(ctx exec.Context, th *host.Thread) {
		lst, _ := sl.ListenOn(ctx, th, 7011)
		s, _, err := lst.Accept(ctx)
		if err != nil {
			return
		}
		// Watch both the user socket and a kernel pipe.
		r, wr := w.a.Kern.Pipe()
		pfd := sl.InstallKernelFD(r)
		ep := sl.NewEpoll()
		ep.Add(s.FD(), core.EPOLLIN)
		ep.Add(pfd, core.EPOLLIN)
		wr.Write(ctx, []byte("pipe-data"))
		evs := make([]core.Event, 8)
		// Wait until both sources have reported (level-triggered: drain
		// the pipe once seen so it stops firing).
		seen := map[int]bool{}
		for i := 0; len(seen) < 2 && i < 10_000; i++ {
			n, _ := ep.Wait(ctx, evs)
			for _, e := range evs[:n] {
				seen[e.FD] = true
				events = append(events, e)
			}
			if seen[pfd] {
				buf := make([]byte, 16)
				r.Read(ctx, buf)
			}
		}
		if !seen[s.FD()] || !seen[pfd] {
			t.Errorf("epoll missed a source: %v", seen)
		}
	})
	cp.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
		ctx.Sleep(10_000)
		s, _, err := clib.Connect(ctx, th, "hostA", 7011)
		if err != nil {
			return
		}
		s.Send(ctx, th, []byte("sock-data"))
	})
	w.sim.Run()
	if len(events) == 0 {
		t.Fatal("no epoll events")
	}
}

func TestMultipleListenersRoundRobinAndSteal(t *testing.T) {
	w := newWorld(t)
	s1, l1 := proc(t, w.a, "worker1", 0)
	s2, l2 := proc(t, w.a, "worker2", 0)
	cp, clib := proc(t, w.a, "client", 0)

	const conns = 6
	var served1, served2 int
	serve := func(p *host.Process, l *core.Libsd, count *int) {
		p.Spawn("srv", func(ctx exec.Context, th *host.Thread) {
			lst, err := l.ListenOn(ctx, th, 7012)
			if err != nil {
				t.Errorf("listen: %v", err)
				return
			}
			for {
				s, _, err := lst.Accept(ctx)
				if err != nil {
					return
				}
				buf := make([]byte, 8)
				if _, err := s.Recv(ctx, th, buf); err != nil {
					return
				}
				s.Send(ctx, th, buf)
				*count++
				if served1+served2 >= conns {
					return
				}
			}
		})
	}
	serve(s1, l1, &served1)
	serve(s2, l2, &served2)

	okAll := true
	cp.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
		ctx.Sleep(20_000)
		for i := 0; i < conns; i++ {
			s, _, err := clib.Connect(ctx, th, "hostA", 7012)
			if err != nil {
				t.Errorf("connect %d: %v", i, err)
				okAll = false
				return
			}
			s.Send(ctx, th, []byte("x"))
			buf := make([]byte, 8)
			if _, err := s.Recv(ctx, th, buf); err != nil {
				t.Errorf("recv %d: %v", i, err)
				okAll = false
				return
			}
			s.Close(ctx, th)
		}
	})
	w.sim.Run()
	if !okAll || served1+served2 != conns {
		t.Fatalf("served %d+%d of %d", served1, served2, conns)
	}
	// Round-robin should involve both workers (work stealing may skew the
	// split but not to zero for the busier side).
	if served1 == 0 && served2 == 0 {
		t.Fatal("nobody served")
	}
}
