package host

import (
	"io"
	"testing"

	"socksdirect/internal/costmodel"
	"socksdirect/internal/exec"
)

func newSimHost(costs *costmodel.Costs) (*exec.Sim, *Host) {
	s := exec.NewSim(exec.SimConfig{})
	return s, New("h1", s, costs, 11)
}

func TestPipeRoundTripBlockingAndWakeupCost(t *testing.T) {
	costs := costmodel.Default
	s, h := newSimHost(&costs)
	p := h.NewProcess("app", 1000)
	r, w := h.Kern.Pipe()
	var gotLatency int64
	p.Spawn("reader", func(ctx exec.Context, _ *Thread) {
		buf := make([]byte, 16)
		n, err := r.Read(ctx, buf)
		if err != nil || string(buf[:n]) != "ping" {
			t.Errorf("read: %v %q", err, buf[:n])
		}
		gotLatency = ctx.Now()
	})
	p.Spawn("writer", func(ctx exec.Context, _ *Thread) {
		ctx.Sleep(1000)
		if _, err := w.Write(ctx, []byte("ping")); err != nil {
			t.Errorf("write: %v", err)
		}
	})
	s.Run()
	// The reader must have paid: its syscall + the writer's wakeup delay.
	min := int64(1000) + costs.ProcessWakeup
	if gotLatency < min {
		t.Fatalf("reader finished at %d, want >= %d (wakeup cost missing)", gotLatency, min)
	}
}

func TestPipeEOFAndClosedWrite(t *testing.T) {
	s, h := newSimHost(nil)
	p := h.NewProcess("app", 0)
	r, w := h.Kern.Pipe()
	p.Spawn("t", func(ctx exec.Context, _ *Thread) {
		w.Write(ctx, []byte("tail"))
		w.Close(ctx)
		buf := make([]byte, 8)
		n, err := r.Read(ctx, buf)
		if err != nil || string(buf[:n]) != "tail" {
			t.Errorf("read before EOF: %v %q", err, buf[:n])
		}
		if _, err := r.Read(ctx, buf); err != io.EOF {
			t.Errorf("want EOF, got %v", err)
		}
		r.Close(ctx)
		if _, err := w.Write(ctx, []byte("x")); err == nil {
			t.Error("write to fully closed pipe succeeded")
		}
	})
	s.Run()
}

func TestPipeBackpressureBlocksWriter(t *testing.T) {
	s, h := newSimHost(nil)
	p := h.NewProcess("app", 0)
	r, w := h.Kern.Pipe()
	var writerDone, readerStarted int64
	p.Spawn("writer", func(ctx exec.Context, _ *Thread) {
		big := make([]byte, pipeCap+1000) // exceeds capacity: must block
		w.Write(ctx, big)
		writerDone = ctx.Now()
	})
	p.Spawn("reader", func(ctx exec.Context, _ *Thread) {
		ctx.Sleep(50_000)
		readerStarted = ctx.Now()
		buf := make([]byte, pipeCap+1000)
		got := 0
		for got < len(buf) {
			n, err := r.Read(ctx, buf[got:])
			if err != nil {
				t.Errorf("read: %v", err)
				return
			}
			got += n
		}
	})
	s.Run()
	if writerDone < readerStarted {
		t.Fatalf("writer finished at %d before reader drained (started %d)", writerDone, readerStarted)
	}
}

func TestSocketPairBidirectional(t *testing.T) {
	s, h := newSimHost(nil)
	p := h.NewProcess("app", 0)
	a, b := h.Kern.SocketPair()
	p.Spawn("a", func(ctx exec.Context, _ *Thread) {
		a.Write(ctx, []byte("to-b"))
		buf := make([]byte, 8)
		n, _ := a.Read(ctx, buf)
		if string(buf[:n]) != "to-a" {
			t.Errorf("a got %q", buf[:n])
		}
	})
	p.Spawn("b", func(ctx exec.Context, _ *Thread) {
		buf := make([]byte, 8)
		n, _ := b.Read(ctx, buf)
		if string(buf[:n]) != "to-b" {
			t.Errorf("b got %q", buf[:n])
		}
		b.Write(ctx, []byte("to-a"))
	})
	s.Run()
}

func TestFDTableLowestAvailable(t *testing.T) {
	s, h := newSimHost(nil)
	p := h.NewProcess("app", 0)
	s.Spawn("t", func(ctx exec.Context) {
		r1, w1 := h.Kern.Pipe()
		fd0 := p.InstallFD(r1)
		fd1 := p.InstallFD(w1)
		r2, w2 := h.Kern.Pipe()
		fd2 := p.InstallFD(r2)
		fd3 := p.InstallFD(w2)
		if fd0 != 0 || fd1 != 1 || fd2 != 2 || fd3 != 3 {
			t.Errorf("fds = %d %d %d %d", fd0, fd1, fd2, fd3)
		}
		p.CloseFD(ctx, 1)
		p.CloseFD(ctx, 0)
		r3, w3 := h.Kern.Pipe()
		if got := p.InstallFD(r3); got != 0 {
			t.Errorf("reuse gave %d, want 0 (lowest available)", got)
		}
		if got := p.InstallFD(w3); got != 1 {
			t.Errorf("reuse gave %d, want 1", got)
		}
	})
	s.Run()
}

func TestForkSharesKernelFDs(t *testing.T) {
	s, h := newSimHost(nil)
	parent := h.NewProcess("parent", 0)
	r, w := h.Kern.Pipe()
	rfd := parent.InstallFD(r)
	_ = parent.InstallFD(w)
	child := parent.Fork("child")
	if child.PID == parent.PID || child.Parent != parent {
		t.Fatal("fork bookkeeping broken")
	}
	// Child writes through the inherited descriptor; parent reads.
	s.Spawn("c", func(ctx exec.Context) {
		f, ok := child.LookupFD(1)
		if !ok {
			t.Error("child lost inherited fd")
			return
		}
		f.Write(ctx, []byte("hi"))
	})
	var got string
	s.Spawn("p", func(ctx exec.Context) {
		f, _ := parent.LookupFD(rfd)
		buf := make([]byte, 4)
		n, _ := f.Read(ctx, buf)
		got = string(buf[:n])
	})
	s.Run()
	if got != "hi" {
		t.Fatalf("parent read %q", got)
	}
	// Closing in one process must not close the shared object.
	s2 := exec.NewSim(exec.SimConfig{})
	s2.Spawn("close", func(ctx exec.Context) {
		child.CloseFD(ctx, 1)
		f, _ := parent.LookupFD(1)
		if _, err := f.Write(ctx, []byte("still")); err != nil {
			t.Errorf("shared pipe closed by child's close: %v", err)
		}
	})
	s2.Run()
}

func TestCloseFDTwiceFails(t *testing.T) {
	s, h := newSimHost(nil)
	p := h.NewProcess("app", 0)
	s.Spawn("t", func(ctx exec.Context) {
		r, w := h.Kern.Pipe()
		fd := p.InstallFD(r)
		_ = p.InstallFD(w)
		if err := p.CloseFD(ctx, fd); err != nil {
			t.Errorf("first close: %v", err)
		}
		if err := p.CloseFD(ctx, fd); err == nil {
			t.Error("double close succeeded; want bad-fd error")
		}
	})
	s.Run()
}

func TestKillReapsFDTablePipePeerSeesEOF(t *testing.T) {
	s, h := newSimHost(nil)
	victim := h.NewProcess("victim", 0)
	obs := h.NewProcess("observer", 0)
	r, w := h.Kern.Pipe()
	victim.InstallFD(w) // only the victim holds the write end
	var readErr error
	obs.Spawn("read", func(ctx exec.Context, _ *Thread) {
		buf := make([]byte, 4)
		_, readErr = r.Read(ctx, buf)
	})
	obs.Spawn("kill", func(ctx exec.Context, _ *Thread) {
		ctx.Sleep(10_000)
		victim.Signal(ctx, SIGKILL)
	})
	s.Run()
	if readErr != io.EOF {
		t.Fatalf("want EOF after SIGKILL reaped the write end, got %v", readErr)
	}
}

func TestForkRefcountsDelayEOFUntilLastSharerDies(t *testing.T) {
	s, h := newSimHost(nil)
	victim := h.NewProcess("victim", 0)
	obs := h.NewProcess("observer", 0)
	r, w := h.Kern.Pipe()
	victim.InstallFD(w)
	child := victim.Fork("child") // Dup: the write end now has two owners
	var readErr error
	var eofAt int64
	obs.Spawn("read", func(ctx exec.Context, _ *Thread) {
		buf := make([]byte, 4)
		_, readErr = r.Read(ctx, buf)
		eofAt = ctx.Now()
	})
	obs.Spawn("kill", func(ctx exec.Context, _ *Thread) {
		ctx.Sleep(10_000)
		victim.Signal(ctx, SIGKILL) // first sharer dies: pipe stays open
		ctx.Sleep(40_000)
		child.Signal(ctx, SIGKILL) // last sharer dies: now EOF
	})
	s.Run()
	if readErr != io.EOF {
		t.Fatalf("want EOF after the last sharer died, got %v", readErr)
	}
	if eofAt < 50_000 {
		t.Fatalf("EOF at %d, before the last sharer died (50000): refcount ignored", eofAt)
	}
}

func TestCrashTeardownResetsFDTable(t *testing.T) {
	s, h := newSimHost(nil)
	p := h.NewProcess("app", 0)
	s.Spawn("t", func(ctx exec.Context) {
		r, w := h.Kern.Pipe()
		p.InstallFD(r)
		p.InstallFD(w)
		p.CloseFD(ctx, 0)
		p.Signal(ctx, SIGKILL)
		if _, ok := p.LookupFD(1); ok {
			t.Error("fd survived crash teardown")
		}
		// The kernel recycles the numbers: lowest-available restarts at 0
		// (a recycled PID's table must not inherit crash-time holes).
		r2, _ := h.Kern.Pipe()
		if got := p.InstallFD(r2); got != 0 {
			t.Errorf("post-crash install gave %d, want 0", got)
		}
	})
	s.Run()
}

func TestSignalsAndKill(t *testing.T) {
	s, h := newSimHost(nil)
	p := h.NewProcess("app", 0)
	var got Signal
	p.RegisterHandler(SIGUSR1, func(sg Signal) { got = sg })
	s.Spawn("t", func(ctx exec.Context) {
		p.Signal(ctx, SIGUSR1)
		if got != SIGUSR1 {
			t.Error("handler did not run")
		}
		p.Signal(ctx, SIGKILL)
		if !p.Dead() {
			t.Error("SIGKILL did not mark process dead")
		}
	})
	s.Run()
}

func TestKernelNetLoopbackAndRoute(t *testing.T) {
	s := exec.NewSim(exec.SimConfig{})
	a := New("a", s, nil, 1)
	b := New("b", s, nil, 2)
	NewNet(a.Clk, LinkConfig(&costmodel.Default, 3)).Join(a, b)
	var fromLoop, fromB, wrongProto any
	a.Kern.RegisterProto("tcp", func(src string, f any) {
		if src == "a" {
			fromLoop = f
		} else {
			fromB = f
		}
	})
	a.Kern.RegisterProto("other", func(src string, f any) { wrongProto = f })
	s.Spawn("t", func(ctx exec.Context) {
		a.Kern.NetSend("tcp", "a", "loop-frame", 64)
		b.Kern.NetSend("tcp", "a", "remote-frame", 64)
		ctx.Sleep(1_000_000)
	})
	s.Run()
	if fromLoop != "loop-frame" || fromB != "remote-frame" {
		t.Fatalf("loop=%v remote=%v", fromLoop, fromB)
	}
	if wrongProto != nil {
		t.Fatal("proto demux leaked frames across families")
	}
	if err := a.Kern.NetSend("tcp", "nowhere", "x", 1); err == nil {
		t.Fatal("send to unknown host succeeded")
	}
}

func TestThreadsShareCoreCooperatively(t *testing.T) {
	s, h := newSimHost(nil)
	p := h.NewProcess("app", 0)
	core := h.NextCore()
	order := []int{}
	for i := 0; i < 3; i++ {
		i := i
		p.SpawnOn(core, "worker", func(ctx exec.Context, _ *Thread) {
			for k := 0; k < 3; k++ {
				ctx.Charge(100)
				order = append(order, i)
				ctx.Yield()
			}
		})
	}
	s.Run()
	if len(order) != 9 {
		t.Fatalf("ran %d slices", len(order))
	}
	// Round-robin: the first three slices are three distinct threads.
	if order[0] == order[1] && order[1] == order[2] {
		t.Fatalf("no interleaving: %v", order)
	}
}
