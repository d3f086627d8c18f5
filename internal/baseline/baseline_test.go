// Package baseline_test integration-tests the comparator stacks and checks
// the performance ordering the paper's figures rely on: rsocket and libvma
// beat Linux inter-host; everything loses to raw verbs.
package baseline_test

import (
	"testing"

	"socksdirect/internal/baseline/libvma"
	"socksdirect/internal/baseline/rsocket"
	"socksdirect/internal/costmodel"
	"socksdirect/internal/exec"
	"socksdirect/internal/host"
	"socksdirect/internal/ksocket"
)

func twoHosts() (*exec.Sim, *host.Host, *host.Host) {
	s := exec.NewSim(exec.SimConfig{})
	costs := costmodel.Default
	a := host.New("a", s, &costs, 1)
	b := host.New("b", s, &costs, 2)
	host.NewNet(a.Clk, host.LinkConfig(&costs, 3)).Join(a, b)
	return s, a, b
}

func TestKsocketEcho(t *testing.T) {
	s, a, b := twoHosts()
	ka, kb := ksocket.New(a), ksocket.New(b)
	l, err := kb.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	s.Spawn("srv", func(ctx exec.Context) {
		c, err := l.Accept(ctx)
		if err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, 32)
		n, _ := c.Recv(ctx, buf)
		c.Send(ctx, buf[:n])
	})
	var got string
	s.Spawn("cli", func(ctx exec.Context) {
		c, err := ka.Dial(ctx, "b", 80)
		if err != nil {
			t.Error(err)
			return
		}
		c.Send(ctx, []byte("k-echo"))
		buf := make([]byte, 32)
		n, _ := c.Recv(ctx, buf)
		got = string(buf[:n])
	})
	s.Run()
	if got != "k-echo" {
		t.Fatalf("got %q", got)
	}
}

func TestRSocketInterHostEcho(t *testing.T) {
	s, a, b := twoHosts()
	ca, cb := rsocket.Pair(a, b)
	s.Spawn("srv", func(ctx exec.Context) {
		buf := make([]byte, 64)
		n, err := cb.Recv(ctx, buf)
		if err != nil {
			t.Error(err)
			return
		}
		cb.Send(ctx, buf[:n])
	})
	var got string
	s.Spawn("cli", func(ctx exec.Context) {
		ca.Send(ctx, []byte("rsocket"))
		buf := make([]byte, 64)
		n, err := ca.Recv(ctx, buf)
		if err != nil {
			t.Error(err)
			return
		}
		got = string(buf[:n])
	})
	s.Run()
	if got != "rsocket" {
		t.Fatalf("got %q", got)
	}
}

func TestRSocketIntraHostHairpin(t *testing.T) {
	s, a, _ := twoHosts()
	ca, cb := rsocket.PairIntra(a)
	var rtt int64
	s.Spawn("srv", func(ctx exec.Context) {
		buf := make([]byte, 8)
		for i := 0; i < 5; i++ {
			if _, err := cb.Recv(ctx, buf); err != nil {
				return
			}
			cb.Send(ctx, buf)
		}
	})
	s.Spawn("cli", func(ctx exec.Context) {
		buf := make([]byte, 8)
		ca.Send(ctx, buf)
		ca.Recv(ctx, buf)
		start := ctx.Now()
		for i := 0; i < 4; i++ {
			ca.Send(ctx, buf)
			ca.Recv(ctx, buf)
		}
		rtt = (ctx.Now() - start) / 4
	})
	s.Run()
	// The paper's intra-host RSocket RTT is ~1.8 us (6x SocksDirect's
	// 0.3 us) because of the NIC hairpin; ours must include that hairpin.
	if rtt < costmodel.Default.NICHairpin {
		t.Fatalf("intra-host rsocket RTT %d ns is below one hairpin (%d)", rtt, costmodel.Default.NICHairpin)
	}
}

func TestRSocketLargeStream(t *testing.T) {
	s, a, b := twoHosts()
	ca, cb := rsocket.Pair(a, b)
	const total = 300 * 1024
	s.Spawn("tx", func(ctx exec.Context) {
		big := make([]byte, total)
		for i := range big {
			big[i] = byte(i)
		}
		if _, err := ca.Send(ctx, big); err != nil {
			t.Error(err)
		}
	})
	got := 0
	ok := true
	s.Spawn("rx", func(ctx exec.Context) {
		buf := make([]byte, 8192)
		for got < total {
			n, err := cb.Recv(ctx, buf)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < n; i++ {
				if buf[i] != byte(got+i) {
					ok = false
				}
			}
			got += n
		}
	})
	s.Run()
	if got != total || !ok {
		t.Fatalf("received %d/%d ok=%v", got, total, ok)
	}
}

func TestLibVMAInterAndIntraHost(t *testing.T) {
	s, a, b := twoHosts()
	ka, kb := ksocket.New(a), ksocket.New(b)
	va, vb := libvma.New(a, ka), libvma.New(b, kb)

	l, err := vb.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	// Inter-host echo server on b.
	s.Spawn("srv", func(ctx exec.Context) {
		c, err := l.Accept(ctx)
		if err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, 32)
		n, _ := c.Recv(ctx, buf)
		c.Send(ctx, buf[:n])
	})
	var inter string
	s.Spawn("cli", func(ctx exec.Context) {
		c, err := va.Dial(ctx, "b", 80)
		if err != nil {
			t.Error(err)
			return
		}
		c.Send(ctx, []byte("vma-inter"))
		buf := make([]byte, 32)
		n, _ := c.Recv(ctx, buf)
		inter = string(buf[:n])
	})
	s.Run()
	if inter != "vma-inter" {
		t.Fatalf("inter-host got %q", inter)
	}

	// Intra-host: client on a dials a's own listener -> kernel fallback.
	s2 := exec.NewSim(exec.SimConfig{})
	costs := costmodel.Default
	h := host.New("solo", s2, &costs, 9)
	kh := ksocket.New(h)
	vh := libvma.New(h, kh)
	l2, err := vh.Listen(81)
	if err != nil {
		t.Fatal(err)
	}
	s2.Spawn("srv", func(ctx exec.Context) {
		c, err := l2.Accept(ctx)
		if err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, 32)
		n, _ := c.Recv(ctx, buf)
		c.Send(ctx, buf[:n])
	})
	var intra string
	s2.Spawn("cli", func(ctx exec.Context) {
		c, err := vh.Dial(ctx, "solo", 81)
		if err != nil {
			t.Error(err)
			return
		}
		c.Send(ctx, []byte("vma-intra"))
		buf := make([]byte, 32)
		n, _ := c.Recv(ctx, buf)
		intra = string(buf[:n])
	})
	s2.Run()
	if intra != "vma-intra" {
		t.Fatalf("intra-host got %q", intra)
	}
}

// TestLatencyOrdering checks the paper's inter-host latency ordering:
// rsocket < libvma < linux (Figure 8b).
func TestLatencyOrdering(t *testing.T) {
	rs := measureRSocket(t)
	vma := measureVMA(t)
	lx := measureLinux(t)
	t.Logf("inter-host 8B RTT: rsocket=%d ns, libvma=%d ns, linux=%d ns", rs, vma, lx)
	if !(rs < vma && vma < lx) {
		t.Fatalf("ordering broken: rsocket=%d libvma=%d linux=%d", rs, vma, lx)
	}
	if lx < 20_000 {
		t.Fatalf("linux RTT %d ns too fast vs paper's ~30 us", lx)
	}
}

func measureRSocket(t *testing.T) int64 {
	s, a, b := twoHosts()
	ca, cb := rsocket.Pair(a, b)
	const rounds = 10
	var rtt int64
	s.Spawn("srv", func(ctx exec.Context) {
		buf := make([]byte, 8)
		for i := 0; i <= rounds; i++ {
			if _, err := cb.Recv(ctx, buf); err != nil {
				return
			}
			cb.Send(ctx, buf)
		}
	})
	s.Spawn("cli", func(ctx exec.Context) {
		buf := make([]byte, 8)
		ca.Send(ctx, buf)
		ca.Recv(ctx, buf)
		start := ctx.Now()
		for i := 0; i < rounds; i++ {
			ca.Send(ctx, buf)
			ca.Recv(ctx, buf)
		}
		rtt = (ctx.Now() - start) / rounds
	})
	s.Run()
	return rtt
}

func measureLinux(t *testing.T) int64 {
	s, a, b := twoHosts()
	ka, kb := ksocket.New(a), ksocket.New(b)
	l, err := kb.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 10
	var rtt int64
	s.Spawn("srv", func(ctx exec.Context) {
		c, err := l.Accept(ctx)
		if err != nil {
			return
		}
		buf := make([]byte, 8)
		for i := 0; i <= rounds; i++ {
			if _, err := c.Recv(ctx, buf); err != nil {
				return
			}
			c.Send(ctx, buf)
		}
	})
	s.Spawn("cli", func(ctx exec.Context) {
		c, err := ka.Dial(ctx, "b", 80)
		if err != nil {
			return
		}
		buf := make([]byte, 8)
		c.Send(ctx, buf)
		c.Recv(ctx, buf)
		start := ctx.Now()
		for i := 0; i < rounds; i++ {
			c.Send(ctx, buf)
			c.Recv(ctx, buf)
		}
		rtt = (ctx.Now() - start) / rounds
	})
	s.Run()
	return rtt
}

// measureVMA builds a fresh world and measures the LibVMA ping-pong RTT in
// a single simulation run (connection setup + timed echo).
func measureVMA(t *testing.T) int64 {
	s, a, b := twoHosts()
	va, vb := libvma.New(a, nil), libvma.New(b, nil)
	l, err := vb.Listen(80)
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 10
	var rtt int64
	s.Spawn("srv", func(ctx exec.Context) {
		c, err := l.Accept(ctx)
		if err != nil {
			return
		}
		buf := make([]byte, 8)
		for i := 0; i <= rounds; i++ {
			if _, err := c.Recv(ctx, buf); err != nil {
				return
			}
			c.Send(ctx, buf)
		}
	})
	s.Spawn("cli", func(ctx exec.Context) {
		c, err := va.Dial(ctx, "b", 80)
		if err != nil {
			return
		}
		buf := make([]byte, 8)
		c.Send(ctx, buf)
		c.Recv(ctx, buf)
		start := ctx.Now()
		for i := 0; i < rounds; i++ {
			c.Send(ctx, buf)
			c.Recv(ctx, buf)
		}
		rtt = (ctx.Now() - start) / rounds
	})
	s.Run()
	return rtt
}
