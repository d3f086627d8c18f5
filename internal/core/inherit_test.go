package core_test

import (
	"errors"
	"io"
	"testing"

	"socksdirect/internal/core"
	"socksdirect/internal/exec"
	"socksdirect/internal/host"
	"socksdirect/internal/monitor"
)

// Tests of an inherited inter-host socket (§4.1.2, §4.1.3): a forked child,
// its own child and the process after exec each get the socket's shared
// state and an endpoint of their own without a QP, which splices one on
// first use through the request QP recovery sends.

// collect runs, on hostB, a server that accepts one connection on port and
// reads until it holds want bytes, which it leaves in *got.
func collect(t *testing.T, w *world, port uint16, want int, got *[]byte) *host.Process {
	sp, sl := proc(t, w.b, "server", 0)
	sp.Spawn("srv", func(ctx exec.Context, th *host.Thread) {
		lst, _ := sl.ListenOn(ctx, th, port)
		s, _, err := lst.Accept(ctx)
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		buf := make([]byte, want)
		for len(*got) < want {
			n, err := s.Recv(ctx, th, buf)
			if err != nil {
				t.Errorf("recv after %q: %v", *got, err)
				return
			}
			*got = append(*got, buf[:n]...)
		}
	})
	return sp
}

// TestForkOfUnsplicedChild: a child forks before it ever used an inherited
// socket, and the grandchild sends first. The grandchild inherits an
// endpoint without a QP, as the child did, and splices its own.
func TestForkOfUnsplicedChild(t *testing.T) {
	w := newWorld(t)
	monitor.Peer(w.ma, w.mb)
	const first, last = "parent", "grandchild"
	var got []byte
	collect(t, w, 7520, len(first)+len(last), &got)
	cp, cl := proc(t, w.a, "client", 0)
	cp.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
		ctx.Sleep(10_000)
		s, _, err := cl.Connect(ctx, th, "hostB", 7520)
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		s.Send(ctx, th, []byte(first))
		child, childLib, err := cl.Fork(ctx, th, "child")
		if err != nil {
			t.Errorf("fork: %v", err)
			return
		}
		done := false
		child.Spawn("cmain", func(ctx exec.Context, th *host.Thread) {
			grandchild, gl, err := childLib.Fork(ctx, th, "grandchild")
			if err != nil {
				t.Errorf("fork of the child: %v", err)
				done = true
				return
			}
			grandchild.Spawn("gmain", func(ctx exec.Context, th *host.Thread) {
				defer func() { done = true }()
				gs, err := gl.SocketByFD(s.FD())
				if err != nil {
					t.Errorf("grandchild fd: %v", err)
					return
				}
				if _, err := gs.Send(ctx, th, []byte(last)); err != nil {
					t.Errorf("grandchild send: %v", err)
				}
			})
		})
		for !done {
			ctx.Sleep(10_000)
		}
	})
	w.sim.Run()
	if string(got) != first+last {
		t.Fatalf("server read %q, want %q", got, first+last)
	}
}

// TestExecKeepsInterHostSocket: after exec the socket is still the process's
// — its bytes arrive exact — and still known to the process's library, so the
// peer's death reaches it: one ECONNRESET, then EOF.
func TestExecKeepsInterHostSocket(t *testing.T) {
	w := newWorld(t)
	monitor.Peer(w.ma, w.mb)
	const before, after = "before exec", "after exec"
	var got []byte
	sp := collect(t, w, 7521, len(before)+len(after), &got)
	cp, cl := proc(t, w.a, "client", 0)
	var errs []error
	cp.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
		ctx.Sleep(10_000)
		s, _, err := cl.Connect(ctx, th, "hostB", 7521)
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		s.Send(ctx, th, []byte(before))
		nl, err := cl.Exec(ctx)
		if err != nil {
			t.Errorf("exec: %v", err)
			return
		}
		ns, err := nl.SocketByFD(s.FD())
		if err != nil {
			t.Errorf("fd after exec: %v", err)
			return
		}
		if _, err := ns.Send(ctx, th, []byte(after)); err != nil {
			t.Errorf("send after exec: %v", err)
			return
		}
		for len(got) < len(before)+len(after) {
			ctx.Sleep(10_000)
		}
		sp.Signal(ctx, host.SIGKILL)
		ns.SetRecvDeadline(ctx.Now() + 50_000_000)
		buf := make([]byte, 8)
		for range 2 {
			_, err := ns.Recv(ctx, th, buf)
			errs = append(errs, err)
		}
	})
	w.sim.Run()
	if string(got) != before+after {
		t.Fatalf("server read %q, want %q", got, before+after)
	}
	if len(errs) != 2 || !errors.Is(errs[0], core.ECONNRESET) || errs[1] != io.EOF {
		t.Errorf("receives after the peer died: %v, want ECONNRESET then EOF", errs)
	}
}

// TestForkedChildRecoversOnce: the child's QP, spliced under the child's
// PD, fails once. Its recovery advertises the rkeys of the child's own
// registrations — the NIC takes no rkey of another PD — so one recovery
// carries the stream to its end.
func TestForkedChildRecoversOnce(t *testing.T) {
	w := newWorld(t)
	monitor.Peer(w.ma, w.mb)
	sp, sl := proc(t, w.b, "server", 0)
	cp, cl := proc(t, w.a, "client", 1000)
	const msgs = 40
	streamOK := false
	sp.Spawn("srv", func(ctx exec.Context, th *host.Thread) {
		lst, _ := sl.ListenOn(ctx, th, 7522)
		s, _, err := lst.Accept(ctx)
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		if streamOK = recvExact(t, ctx, th, s, 0, msgs); streamOK {
			s.Send(ctx, th, []byte{1})
		}
	})
	var d wire
	var ackErr error
	cp.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
		ctx.Sleep(10_000)
		s, _, err := cl.Connect(ctx, th, "hostB", 7522)
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		child, childLib, err := cl.Fork(ctx, th, "child")
		if err != nil {
			t.Errorf("fork: %v", err)
			return
		}
		done := false
		child.Spawn("cmain", func(ctx exec.Context, th *host.Thread) {
			defer func() { done = true }()
			cs, err := childLib.SocketByFD(s.FD())
			if err != nil {
				t.Errorf("child fd: %v", err)
				return
			}
			buf := make([]byte, 1024)
			cs.Send(ctx, th, streamMsg(buf, 0)) // the splice
			w0, t0 := readWire(), ctx.Now()
			cs.FailQP()
			for i := 1; i < msgs; i++ {
				cs.Send(ctx, th, streamMsg(buf, i))
			}
			// The wait for the server's ack drives the recovery.
			cs.SetRecvDeadline(t0 + 500_000_000)
			_, ackErr = cs.Recv(ctx, th, buf[:1])
			ctx.Sleep(t0 + 500_000_000 - ctx.Now())
			d = readWire().since(w0)
			sp.Signal(ctx, host.SIGKILL)
		})
		for !done {
			ctx.Sleep(1_000_000)
		}
	})
	w.sim.Run()
	if !streamOK || ackErr != nil {
		t.Errorf("stream byte-exact %v, ack %v", streamOK, ackErr)
	}
	if d.recoveries != 1 {
		t.Errorf("%d recoveries in 500 ms, want 1", d.recoveries)
	}
}

// midSpliceQPs forks a client whose inter-host socket has one QP, runs end on
// the child's socket, whose endpoint has none, and returns hostA's QP count
// before the fork and 1 ms after end returned.
func midSpliceQPs(t *testing.T, port uint16, end func(ctx exec.Context, th *host.Thread, child *host.Process, cs *core.Socket)) (before, after int) {
	w := newWorld(t)
	monitor.Peer(w.ma, w.mb)
	sp, sl := proc(t, w.b, "server", 0)
	sp.Spawn("srv", func(ctx exec.Context, th *host.Thread) {
		lst, _ := sl.ListenOn(ctx, th, port)
		s, _, err := lst.Accept(ctx)
		for err == nil {
			_, err = s.Recv(ctx, th, make([]byte, 8))
		}
	})
	cp, cl := proc(t, w.a, "client", 0)
	cp.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
		ctx.Sleep(10_000)
		s, _, err := cl.Connect(ctx, th, "hostB", port)
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		s.Send(ctx, th, []byte("p"))
		before = w.a.NIC.QPCount()
		child, childLib, err := cl.Fork(ctx, th, "child")
		if err != nil {
			t.Errorf("fork: %v", err)
			return
		}
		done := false
		child.Spawn("cmain", func(ctx exec.Context, th *host.Thread) {
			defer func() { done = true }()
			cs, err := childLib.SocketByFD(s.FD())
			if err != nil {
				t.Errorf("child fd: %v", err)
				return
			}
			end(ctx, th, child, cs)
		})
		for !done {
			ctx.Sleep(10_000)
		}
		ctx.Sleep(1_000_000)
		after = w.a.NIC.QPCount()
		sp.Signal(ctx, host.SIGKILL)
	})
	w.sim.Run()
	return before, after
}

// TestKilledMidSpliceLeavesNoQP: the child is SIGKILLed 5 µs into its first
// Send, while the splice that Send started is still creating its QP. The
// attempt's QP dies with the process.
func TestKilledMidSpliceLeavesNoQP(t *testing.T) {
	before, after := midSpliceQPs(t, 7524, func(ctx exec.Context, th *host.Thread, child *host.Process, cs *core.Socket) {
		kill := ctx.Now() + 5_000
		child.Host.RT.Spawn("kill", func(ctx exec.Context) {
			ctx.Sleep(kill - ctx.Now())
			child.Signal(ctx, host.SIGKILL)
		})
		if _, err := cs.Send(ctx, th, []byte("c")); !errors.Is(err, core.ErrProcessKilled) {
			t.Errorf("child send: %v, want killed", err)
		}
	})
	if after != before {
		t.Errorf("hostA has %d QPs after the child died mid-splice, want %d as before the fork", after, before)
	}
}

// TestClosedMidSpliceLeavesNoQP: the child's first Send times out while its
// splice is in flight, and the child closes the socket, which its parent
// still holds. The attempt's QP goes with the child's endpoint.
func TestClosedMidSpliceLeavesNoQP(t *testing.T) {
	before, after := midSpliceQPs(t, 7525, func(ctx exec.Context, th *host.Thread, _ *host.Process, cs *core.Socket) {
		cs.SetSendDeadline(ctx.Now() + 5_000)
		if _, err := cs.Send(ctx, th, []byte("c")); !errors.Is(err, core.ETIMEDOUT) {
			t.Errorf("child send: %v, want ETIMEDOUT", err)
		}
		cs.Close(ctx, th)
	})
	if after != before {
		t.Errorf("hostA has %d QPs after the child closed mid-splice, want %d as before the fork", after, before)
	}
}

// TestForkedChildClosesUnusedSocket: the parent sends, forks and closes its
// descriptor; the child closes the socket it inherited and never used. Its
// MShut needs the send token the parent held, which the monitor grants to
// the child by queue ID while the close is still under way: the close
// returns, and the server reads the parent's bytes, then EOF. Intra-host
// and across two hosts (where the child's MShut also splices a QP first).
func TestForkedChildClosesUnusedSocket(t *testing.T) {
	for _, inter := range []bool{false, true} {
		name, dst := "intra", "hostA"
		if inter {
			name, dst = "inter", "hostB"
		}
		t.Run(name, func(t *testing.T) {
			w := newWorld(t)
			monitor.Peer(w.ma, w.mb)
			const msg = "from the parent"
			sp, sl := proc(t, w.a, "server", 0)
			if inter {
				sp, sl = proc(t, w.b, "server", 0)
			}
			var got []byte
			eof := false
			sp.Spawn("srv", func(ctx exec.Context, th *host.Thread) {
				lst, _ := sl.ListenOn(ctx, th, 7530)
				s, _, err := lst.Accept(ctx)
				if err != nil {
					t.Errorf("accept: %v", err)
					return
				}
				buf := make([]byte, 64)
				for {
					n, err := s.Recv(ctx, th, buf)
					got = append(got, buf[:n]...)
					if err != nil {
						eof = err == io.EOF
						break
					}
				}
				s.Close(ctx, th)
			})
			cp, cl := proc(t, w.a, "client", 0)
			closed := false
			cp.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
				ctx.Sleep(10_000)
				s, _, err := cl.Connect(ctx, th, dst, 7530)
				if err != nil {
					t.Errorf("connect: %v", err)
					return
				}
				s.Send(ctx, th, []byte(msg))
				child, childLib, err := cl.Fork(ctx, th, "child")
				if err != nil {
					t.Errorf("fork: %v", err)
					return
				}
				fd := s.FD()
				s.Close(ctx, th)
				child.Spawn("cmain", func(cctx exec.Context, cth *host.Thread) {
					cs, err := childLib.SocketByFD(fd)
					if err != nil {
						t.Errorf("child fd lookup: %v", err)
						return
					}
					cs.Close(cctx, cth)
					closed = true
				})
				ctx.Sleep(1_000_000) // a close takes microseconds
				if !closed {
					t.Error("the child's Close of a socket it never used did not return")
					child.Signal(ctx, host.SIGKILL)
				}
			})
			w.sim.Run()
			if string(got) != msg || !eof {
				t.Fatalf("server read %q, EOF %v; want %q, then EOF", got, eof, msg)
			}
		})
	}
}
