package ksocket

import (
	"testing"

	"socksdirect/internal/costmodel"
	"socksdirect/internal/exec"
	"socksdirect/internal/host"
)

func twoHosts() (*exec.Sim, *Stack, *Stack) {
	s := exec.NewSim(exec.SimConfig{})
	costs := costmodel.Default
	a := host.New("a", s, &costs, 1)
	b := host.New("b", s, &costs, 2)
	host.NewNet(a.Clk, host.LinkConfig(&costs, 3)).Join(a, b)
	return s, New(a), New(b)
}

func TestDialListenEcho(t *testing.T) {
	s, ka, kb := twoHosts()
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
		buf := make([]byte, 16)
		n, _ := c.Recv(ctx, buf)
		c.Send(ctx, buf[:n])
		c.Close(ctx)
	})
	var got string
	s.Spawn("cli", func(ctx exec.Context) {
		c, err := ka.Dial(ctx, "b", 80)
		if err != nil {
			t.Error(err)
			return
		}
		c.Send(ctx, []byte("hello"))
		buf := make([]byte, 16)
		n, _ := c.Recv(ctx, buf)
		got = string(buf[:n])
	})
	s.Run()
	if got != "hello" {
		t.Fatalf("got %q", got)
	}
}

func TestKFileAdapterAndPolling(t *testing.T) {
	s, ka, kb := twoHosts()
	l, _ := kb.Listen(81)
	s.Spawn("srv", func(ctx exec.Context) {
		c, err := l.Accept(ctx)
		if err != nil {
			return
		}
		kf := c.KFile()
		buf := make([]byte, 8)
		kf.Read(ctx, buf)
		if !kf.Writable() {
			t.Error("not writable with empty send window")
		}
		kf.Write(ctx, buf)
		kf.Dup() // refcount no-op must not panic
	})
	s.Spawn("cli", func(ctx exec.Context) {
		c, err := ka.Dial(ctx, "b", 81)
		if err != nil {
			return
		}
		c.Send(ctx, []byte("x"))
		buf := make([]byte, 8)
		c.Recv(ctx, buf)
	})
	s.Run()
}

func TestDialRefusedAndPendingHint(t *testing.T) {
	s, ka, kb := twoHosts()
	l, _ := kb.Listen(82)
	if l.PendingHint() != 0 {
		t.Fatal("pending on fresh listener")
	}
	var err error
	s.Spawn("cli", func(ctx exec.Context) {
		_, err = ka.Dial(ctx, "b", 12345)
	})
	s.Run()
	if err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}
