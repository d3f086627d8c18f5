package tcpstack

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"testing"

	"socksdirect/internal/costmodel"
	"socksdirect/internal/exec"
	"socksdirect/internal/fabric"
	"socksdirect/internal/host"
)

type world struct {
	sim    *exec.Sim
	a, b   *host.Host
	sa, sb *Stack
}

func newWorld(mode Mode, linkCfg fabric.Config) *world {
	s := exec.NewSim(exec.SimConfig{})
	costs := costmodel.Default
	a := host.New("a", s, &costs, 1)
	b := host.New("b", s, &costs, 2)
	host.NewNet(a.Clk, linkCfg).Join(a, b)
	return &world{sim: s, a: a, b: b,
		sa: New(a, mode, "tcp"), sb: New(b, mode, "tcp")}
}

func TestHandshakeAndEcho(t *testing.T) {
	w := newWorld(ModeKernel, fabric.Config{PropDelay: 1000})
	l, err := w.sb.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	w.sim.Spawn("server", func(ctx exec.Context) {
		c, err := l.Accept(ctx)
		if err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, 64)
		n, err := c.Read(ctx, buf)
		if err != nil {
			t.Error(err)
			return
		}
		c.Write(ctx, buf[:n])
	})
	var got []byte
	w.sim.Spawn("client", func(ctx exec.Context) {
		c, err := w.sa.Connect(ctx, "b", 80, nil)
		if err != nil {
			t.Error(err)
			return
		}
		c.Write(ctx, []byte("hello tcp"))
		buf := make([]byte, 64)
		n, err := c.Read(ctx, buf)
		if err != nil {
			t.Error(err)
			return
		}
		got = append(got, buf[:n]...)
	})
	w.sim.Run()
	if string(got) != "hello tcp" {
		t.Fatalf("echo got %q", got)
	}
}

func TestConnectRefusedByRST(t *testing.T) {
	w := newWorld(ModeKernel, fabric.Config{PropDelay: 100})
	var err error
	w.sim.Spawn("client", func(ctx exec.Context) {
		_, err = w.sa.Connect(ctx, "b", 9999, nil)
	})
	w.sim.Run()
	if !errors.Is(err, ErrRefused) {
		t.Fatalf("want ErrRefused, got %v", err)
	}
}

func TestSynOptionsEcho(t *testing.T) {
	w := newWorld(ModeKernel, fabric.Config{PropDelay: 100})
	l, _ := w.sb.Listen(80)
	l.OptsFn = func(synOpts []byte) []byte {
		return append([]byte("ack:"), synOpts...)
	}
	var serverSaw, clientSaw []byte
	w.sim.Spawn("server", func(ctx exec.Context) {
		c, err := l.Accept(ctx)
		if err != nil {
			t.Error(err)
			return
		}
		serverSaw = c.SynOptions()
	})
	w.sim.Spawn("client", func(ctx exec.Context) {
		c, err := w.sa.Connect(ctx, "b", 80, []byte("SD-CAP"))
		if err != nil {
			t.Error(err)
			return
		}
		clientSaw = c.SynOptions()
	})
	w.sim.Run()
	if string(serverSaw) != "SD-CAP" || string(clientSaw) != "ack:SD-CAP" {
		t.Fatalf("server=%q client=%q", serverSaw, clientSaw)
	}
}

func TestSynFilterSwallowsWithoutRST(t *testing.T) {
	w := newWorld(ModeKernel, fabric.Config{PropDelay: 100})
	var filtered *Segment
	w.sb.SetSynFilter(func(seg *Segment) bool {
		if len(seg.Options) > 0 {
			filtered = seg
			return true
		}
		return false
	})
	var err error
	w.sim.Spawn("client", func(ctx exec.Context) {
		done := make(chan struct{})
		_ = done
		// The SYN is swallowed; the connect must NOT be refused (no RST),
		// it should keep retransmitting until timeout.
		_, err = w.sa.Connect(ctx, "b", 4242, []byte("special"))
	})
	w.sim.Run()
	if filtered == nil {
		t.Fatal("filter never saw the SYN")
	}
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("swallowed SYN gave %v, want timeout (an RST would mean the kernel saw it)", err)
	}
}

func TestLargeTransferWithLoss(t *testing.T) {
	w := newWorld(ModeUser, fabric.Config{PropDelay: 2000, LossRate: 0.03, Seed: 17})
	const total = 600 * 1024 // forces windows, retransmits, backpressure
	src := make([]byte, total)
	rand.New(rand.NewSource(5)).Read(src)
	l, _ := w.sb.Listen(80)
	var rx []byte
	w.sim.Spawn("server", func(ctx exec.Context) {
		c, err := l.Accept(ctx)
		if err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, 32*1024)
		for {
			n, err := c.Read(ctx, buf)
			if n > 0 {
				rx = append(rx, buf[:n]...)
			}
			if err == io.EOF {
				return
			}
			if err != nil {
				t.Errorf("server read: %v", err)
				return
			}
		}
	})
	w.sim.Spawn("client", func(ctx exec.Context) {
		c, err := w.sa.Connect(ctx, "b", 80, nil)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := c.Write(ctx, src); err != nil {
			t.Errorf("write: %v", err)
		}
		c.Close(ctx)
	})
	w.sim.Run()
	if !bytes.Equal(rx, src) {
		t.Fatalf("transfer corrupted: got %d bytes want %d", len(rx), total)
	}
}

func TestLoopbackIntraHost(t *testing.T) {
	s := exec.NewSim(exec.SimConfig{})
	costs := costmodel.Default
	h := host.New("solo", s, &costs, 3)
	st := New(h, ModeKernel, "tcp")
	l, _ := st.Listen(7)
	s.Spawn("server", func(ctx exec.Context) {
		c, err := l.Accept(ctx)
		if err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, 16)
		n, _ := c.Read(ctx, buf)
		c.Write(ctx, bytes.ToUpper(buf[:n]))
	})
	var got string
	s.Spawn("client", func(ctx exec.Context) {
		c, err := st.Connect(ctx, "solo", 7, nil)
		if err != nil {
			t.Error(err)
			return
		}
		c.Write(ctx, []byte("loopback"))
		buf := make([]byte, 16)
		n, _ := c.Read(ctx, buf)
		got = string(buf[:n])
	})
	s.Run()
	if got != "LOOPBACK" {
		t.Fatalf("got %q", got)
	}
}

func TestCloseGivesEOFThenReset(t *testing.T) {
	w := newWorld(ModeKernel, fabric.Config{PropDelay: 100})
	l, _ := w.sb.Listen(80)
	w.sim.Spawn("server", func(ctx exec.Context) {
		c, err := l.Accept(ctx)
		if err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, 8)
		if _, err := c.Read(ctx, buf); err != io.EOF {
			t.Errorf("want EOF after peer close, got %v", err)
		}
	})
	w.sim.Spawn("client", func(ctx exec.Context) {
		c, err := w.sa.Connect(ctx, "b", 80, nil)
		if err != nil {
			t.Error(err)
			return
		}
		c.Close(ctx)
		if _, err := c.Write(ctx, []byte("x")); err == nil {
			t.Error("write after close succeeded")
		}
	})
	w.sim.Run()
}

func TestRepairedConnectionCarriesData(t *testing.T) {
	w := newWorld(ModeKernel, fabric.Config{PropDelay: 100})
	ca, err := w.sa.Repair(5000, "b", 6000, 100, 200)
	if err != nil {
		t.Fatal(err)
	}
	cb, err := w.sb.Repair(6000, "a", 5000, 200, 100)
	if err != nil {
		t.Fatal(err)
	}
	var got string
	w.sim.Spawn("a", func(ctx exec.Context) {
		ca.Write(ctx, []byte("repaired"))
	})
	w.sim.Spawn("b", func(ctx exec.Context) {
		buf := make([]byte, 16)
		n, err := cb.Read(ctx, buf)
		if err != nil {
			t.Error(err)
			return
		}
		got = string(buf[:n])
	})
	w.sim.Run()
	if got != "repaired" {
		t.Fatalf("got %q", got)
	}
}

func TestKernelModeIsSlowerThanUserMode(t *testing.T) {
	// The cost model must make kernel TCP pay for syscalls, interrupts and
	// wakeups that user-space TCP avoids: a ping-pong RTT comparison.
	rtt := func(mode Mode) int64 {
		w := newWorld(mode, fabric.Config{PropDelay: 1000})
		l, _ := w.sb.Listen(80)
		var rttNs int64
		w.sim.Spawn("server", func(ctx exec.Context) {
			c, err := l.Accept(ctx)
			if err != nil {
				t.Error(err)
				return
			}
			buf := make([]byte, 8)
			for i := 0; i < 10; i++ {
				if _, err := c.Read(ctx, buf); err != nil {
					return
				}
				c.Write(ctx, buf)
			}
		})
		w.sim.Spawn("client", func(ctx exec.Context) {
			c, err := w.sa.Connect(ctx, "b", 80, nil)
			if err != nil {
				t.Error(err)
				return
			}
			buf := make([]byte, 8)
			// warm up one round, then measure
			c.Write(ctx, buf)
			c.Read(ctx, buf)
			start := ctx.Now()
			for i := 0; i < 9; i++ {
				c.Write(ctx, buf)
				c.Read(ctx, buf)
			}
			rttNs = (ctx.Now() - start) / 9
		})
		w.sim.Run()
		return rttNs
	}
	k, u := rtt(ModeKernel), rtt(ModeUser)
	if k < 2*u {
		t.Fatalf("kernel RTT %d should be >> user RTT %d", k, u)
	}
	// The paper's inter-host Linux RTT is ~30 us; ours should be in the
	// tens of microseconds too.
	if k < 10_000 || k > 120_000 {
		t.Fatalf("kernel RTT %d ns implausible vs paper's ~30 us", k)
	}
}

func TestListenPortConflict(t *testing.T) {
	w := newWorld(ModeKernel, fabric.Config{})
	if _, err := w.sa.Listen(80); err != nil {
		t.Fatal(err)
	}
	if _, err := w.sa.Listen(80); !errors.Is(err, ErrPortInUse) {
		t.Fatalf("want ErrPortInUse, got %v", err)
	}
}
