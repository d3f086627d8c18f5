package core_test

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"socksdirect/internal/core"
	"socksdirect/internal/exec"
	"socksdirect/internal/host"
	"socksdirect/internal/monitor"
)

// echoForever accepts connections one after another and echoes each back
// until its peer closes.
func echoForever(t *testing.T, l *core.Libsd, port uint16) func(exec.Context, *host.Thread) {
	return func(ctx exec.Context, th *host.Thread) {
		lst, err := l.ListenOn(ctx, th, port)
		if err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		for {
			s, _, err := lst.Accept(ctx)
			if err != nil {
				return
			}
			echoBack(ctx, th, s)
		}
	}
}

// pokeClosed checks that every operation on a closed socket fails as on
// any closed socket: Send with ErrShutdown, Recv with EOF even past a
// receive deadline, Close with ErrBadFD.
func pokeClosed(t *testing.T, ctx exec.Context, th *host.Thread, s *core.Socket) {
	t.Helper()
	s.SetSendDeadline(ctx.Now() + 1)
	s.SetRecvDeadline(ctx.Now() + 1)
	if _, err := s.Send(ctx, th, []byte("stale")); !errors.Is(err, core.ErrShutdown) {
		t.Errorf("send on the closed socket: want ErrShutdown, got %v", err)
	}
	if _, err := s.Recv(ctx, th, make([]byte, 64)); err != io.EOF {
		t.Errorf("recv on the closed socket: want EOF, got %v", err)
	}
	if err := s.Close(ctx, th); !errors.Is(err, core.ErrBadFD) {
		t.Errorf("close of the closed socket: want ErrBadFD, got %v", err)
	}
}

// TestStaleSocketAfterReuse: a connection released cleanly gives its
// segment and its Socket back, and the next dial builds on both. A handle
// the application kept after Close — the Socket and the generation it was
// returned at — no longer points into the segment: Send, Recv, a receive
// deadline and a second Close on it fail as on any closed socket, and the
// new connection that now owns the segment and the Socket stays byte-exact
// while the stale handle is poked between its sends and receives.
func TestStaleSocketAfterReuse(t *testing.T) {
	for _, inter := range []bool{false, true} {
		name := "intra"
		if inter {
			name = "inter"
		}
		t.Run(name, func(t *testing.T) {
			w := newWorld(t)
			srvHost, dst := w.a, "hostA"
			if inter {
				monitor.Peer(w.ma, w.mb)
				srvHost, dst = w.b, "hostB"
			}
			sp, sl := proc(t, srvHost, "server", 0)
			cp, cl := proc(t, w.a, "client", 1000)
			sp.Spawn("srv", echoForever(t, sl, 7660))
			cp.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
				defer sp.Signal(ctx, host.SIGKILL) // the server would accept forever
				ctx.Sleep(10_000)
				pattern := bytes.Repeat([]byte("stale handle "), 300)
				stale, _, err := cl.Connect(ctx, th, dst, 7660)
				if err != nil {
					t.Errorf("connect: %v", err)
					return
				}
				echoExact(t, ctx, th, stale, pattern)
				seg, qid, gen := stale.Side(), stale.QID(), stale.Gen()
				stale.Close(ctx, th)
				ctx.Sleep(1_000_000) // the server closed too: the connection is released
				if stale.Handle(gen).Side() == seg {
					t.Error("the closed socket still points into its released segment")
				}
				if tx, rx := stale.Handle(gen).Rings(); tx != nil || rx != nil {
					t.Error("the closed socket still reaches rings")
				}
				var s *core.Socket
				for i := 0; i < 4 && s == nil; i++ {
					c, _, err := cl.Connect(ctx, th, dst, 7660)
					if err != nil {
						t.Errorf("connect: %v", err)
						return
					}
					if c.Side() == seg {
						s = c
						continue
					}
					echoExact(t, ctx, th, c, pattern)
					c.Close(ctx, th)
				}
				if s == nil {
					t.Error("four dials never built on the released segment")
					return
				}
				if s != stale || s.Gen() == gen || s.QID() == qid {
					t.Errorf("the new connection (queue %d, was %d) is not on the stale Socket in a new generation", s.QID(), qid)
				}
				pokeClosed(t, ctx, th, stale.Handle(gen))
				if _, err := s.Send(ctx, th, pattern); err != nil {
					t.Errorf("send: %v", err)
				}
				pokeClosed(t, ctx, th, stale.Handle(gen))
				got := make([]byte, 0, len(pattern))
				for buf := make([]byte, len(pattern)); len(got) < len(pattern); {
					n, err := s.Recv(ctx, th, buf)
					if err != nil {
						t.Errorf("recv after %d bytes: %v", len(got), err)
						return
					}
					got = append(got, buf[:n]...)
					pokeClosed(t, ctx, th, stale.Handle(gen))
				}
				if !bytes.Equal(got, pattern) {
					t.Error("the connection on the reused segment did not echo byte-exact")
				}
				echoExact(t, ctx, th, s, pattern) // no deadline of the stale handle's is armed here
				s.Close(ctx, th)
			})
			w.sim.Run()
		})
	}
}

// reuseEnv is a world with a client process and, on the server host, a
// server that echoes forever on reusePort and one on reuseDoomedPort that a
// row may kill.
type reuseEnv struct {
	w      *world
	cl     *core.Libsd
	dst    string
	doomed *host.Process
}

const reusePort, reuseDoomedPort = 7662, 7663

var reusePattern = bytes.Repeat([]byte("dropped "), 200)

// TestOnlyCleanSegmentsComeBack: a segment goes back on its free list only
// when its connection was released cleanly and no second process inherited
// it. Each row ends a connection another way — inherited by a fork and
// closed by both processes, the peer killed mid-connection, the dial
// abandoned — and the client's segment of
// it is not on the free list afterwards and no later dial builds on it,
// while three clean cycles after it leave one segment there.
func TestOnlyCleanSegmentsComeBack(t *testing.T) {
	// Each run ends a connection and returns the client's side of it.
	rows := []struct {
		name  string
		inter bool
		run   func(t *testing.T, e reuseEnv, ctx exec.Context, th *host.Thread) *core.SideState
	}{
		{"fork-intra", false, forkThenClose},
		{"fork-inter", true, forkThenClose},
		{"peer-killed-intra", false, peerKilled},
		{"peer-killed-inter", true, peerKilled},
		{"abandoned-dial", true, func(t *testing.T, e reuseEnv, ctx exec.Context, th *host.Thread) *core.SideState {
			echoOnce(t, ctx, th, e.cl, e.dst, reusePort)
			ctx.Sleep(1_000_000)
			seg := e.cl.NextIdleSide() // what the next dial builds on
			if seg == nil {
				t.Error("a clean cycle left no interSide for the next dial")
				return nil
			}
			if _, _, err := e.cl.ConnectDeadline(ctx, th, e.dst, reuseDoomedPort+1, ctx.Now()+1); !errors.Is(err, core.ETIMEDOUT) {
				t.Errorf("abandoned dial: want ETIMEDOUT, got %v", err)
			}
			return seg
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			w := newWorld(t)
			srvHost, dst := w.a, "hostA"
			if row.inter {
				monitor.Peer(w.ma, w.mb)
				srvHost, dst = w.b, "hostB"
			}
			sp, sl := proc(t, srvHost, "server", 0)
			dp, dl := proc(t, srvHost, "doomed", 0)
			cp, cl := proc(t, w.a, "client", 1000)
			sp.Spawn("srv", echoForever(t, sl, reusePort))
			dp.Spawn("srv", echoForever(t, dl, reuseDoomedPort))
			idle := func() int {
				if row.inter {
					return cl.Holdings().IdleSides
				}
				return w.ma.IdleIntraSocks()
			}
			cp.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
				defer sp.Signal(ctx, host.SIGKILL) // the servers would accept forever
				defer dp.Signal(ctx, host.SIGKILL)
				ctx.Sleep(10_000)
				seg := row.run(t, reuseEnv{w, cl, dst, dp}, ctx, th)
				if seg == nil {
					return
				}
				ctx.Sleep(5_000_000) // every release has run
				if n := idle(); n != 0 {
					t.Errorf("%d segments on the free list, want none", n)
				}
				for i := 0; i < 3; i++ {
					s, _, err := cl.Connect(ctx, th, dst, reusePort)
					if err != nil {
						t.Errorf("connect: %v", err)
						return
					}
					if s.Side() == seg {
						t.Errorf("dial %d built on the dropped segment", i)
					}
					echoExact(t, ctx, th, s, reusePattern)
					s.Close(ctx, th)
					ctx.Sleep(1_000_000)
				}
				if n := idle(); n != 1 {
					t.Errorf("%d segments on the free list after three clean cycles, want 1", n)
				}
			})
			w.sim.Run()
		})
	}
}

// forkThenClose forks the client while it holds a connection; the parent
// closes its descriptor, then the child sends on the socket and closes the
// last one. (A child that closes without sending is
// TestForkedChildClosesUnusedSocket.)
func forkThenClose(t *testing.T, e reuseEnv, ctx exec.Context, th *host.Thread) *core.SideState {
	s, _, err := e.cl.Connect(ctx, th, e.dst, reusePort)
	if err != nil {
		t.Errorf("connect: %v", err)
		return nil
	}
	echoExact(t, ctx, th, s, reusePattern)
	child, childLib, err := e.cl.Fork(ctx, th, "child")
	if err != nil {
		t.Errorf("fork: %v", err)
		return nil
	}
	seg, fd := s.Side(), s.FD()
	s.Close(ctx, th)
	done := false
	child.Spawn("cmain", func(cctx exec.Context, cth *host.Thread) {
		defer func() { done = true }()
		cs, err := childLib.SocketByFD(fd)
		if err != nil {
			t.Errorf("child fd lookup: %v", err)
			return
		}
		if _, err := cs.Send(cctx, cth, []byte("from the child")); err != nil {
			t.Errorf("child send: %v", err)
		}
		cs.Close(cctx, cth)
	})
	for !done {
		ctx.Sleep(10_000)
	}
	return seg
}

// peerKilled kills the server process of an open connection; the client
// reads the reset and closes.
func peerKilled(t *testing.T, e reuseEnv, ctx exec.Context, th *host.Thread) *core.SideState {
	s, _, err := e.cl.Connect(ctx, th, e.dst, reuseDoomedPort)
	if err != nil {
		t.Errorf("connect: %v", err)
		return nil
	}
	echoExact(t, ctx, th, s, reusePattern)
	e.doomed.Signal(ctx, host.SIGKILL)
	if _, err := s.Recv(ctx, th, make([]byte, 8)); !errors.Is(err, core.ECONNRESET) {
		t.Errorf("recv after the peer's death: want ECONNRESET, got %v", err)
	}
	seg := s.Side()
	s.Close(ctx, th)
	return seg
}

// TestIntraSockFreeListBounded: forty intra-host connections open at once
// need forty IntraSocks; closing them all gives every one back to the
// monitor, which keeps monitor.MaxIdleIntraSocks of them for reuse.
func TestIntraSockFreeListBounded(t *testing.T) {
	const conns = monitor.MaxIdleIntraSocks + 8
	w := newWorld(t)
	sp, sl := proc(t, w.a, "server", 0)
	cp, cl := proc(t, w.a, "client", 1000)
	sp.Spawn("srv", func(ctx exec.Context, th *host.Thread) {
		lst, _ := sl.ListenOn(ctx, th, 7664)
		var held []*core.Socket
		for i := 0; i < conns; i++ {
			s, _, err := lst.Accept(ctx)
			if err != nil {
				t.Errorf("accept %d: %v", i, err)
				return
			}
			held = append(held, s)
		}
		for _, s := range held {
			if _, err := s.Recv(ctx, th, make([]byte, 8)); err != io.EOF {
				t.Errorf("want EOF, got %v", err)
			}
			s.Close(ctx, th)
		}
	})
	cp.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
		ctx.Sleep(10_000)
		var held []*core.Socket
		for i := 0; i < conns; i++ {
			s, _, err := cl.Connect(ctx, th, "hostA", 7664)
			if err != nil {
				t.Errorf("connect %d: %v", i, err)
				return
			}
			held = append(held, s)
		}
		for _, s := range held {
			s.Close(ctx, th)
		}
		ctx.Sleep(5_000_000)
		if n := w.ma.IdleIntraSocks(); n != monitor.MaxIdleIntraSocks {
			t.Errorf("the monitor keeps %d idle IntraSocks, want %d", n, monitor.MaxIdleIntraSocks)
		}
	})
	w.sim.Run()
}

// TestSiblingWaitKeepsItsSocket: a Socket goes back to its library only
// once no thread is inside an operation on it. One thread of the client
// waits in Recv on a connection; a second closes the connection and polls
// the process's completions until the server's close has released it, then
// dials three times. While the waiter has not run,
// its Socket is on no free list and no dial gets it; the waiter returns
// EOF, never the bytes of a later connection; and every later connection
// echoes byte-exact.
func TestSiblingWaitKeepsItsSocket(t *testing.T) {
	for _, inter := range []bool{false, true} {
		name := "intra"
		if inter {
			name = "inter"
		}
		t.Run(name, func(t *testing.T) {
			w := newWorld(t)
			srvHost, dst := w.a, "hostA"
			if inter {
				monitor.Peer(w.ma, w.mb)
				srvHost, dst = w.b, "hostB"
			}
			sp, sl := proc(t, srvHost, "server", 0)
			cp, cl := proc(t, w.a, "client", 1000)
			sp.Spawn("srv", echoForever(t, sl, 7664))
			var shared *core.Socket
			waiting, returned := false, false
			cp.Spawn("waiter", func(ctx exec.Context, th *host.Thread) {
				for shared == nil {
					ctx.Sleep(1_000)
				}
				waiting = true
				n, err := shared.Recv(ctx, th, make([]byte, 64))
				returned = true
				if n != 0 || err != io.EOF {
					t.Errorf("the waiting Recv returned %d bytes and %v, want EOF", n, err)
				}
			})
			cp.Spawn("closer", func(ctx exec.Context, th *host.Thread) {
				defer sp.Signal(ctx, host.SIGKILL) // the server would accept forever
				ctx.Sleep(10_000)
				s, _, err := cl.Connect(ctx, th, dst, 7664)
				if err != nil {
					t.Errorf("connect: %v", err)
					return
				}
				shared = s
				for !waiting {
					ctx.Sleep(1_000)
				}
				ctx.Sleep(2_000_000) // the waiter has parked
				seg := s.Side()
				s.Close(ctx, th)
				for s.Side() == seg {
					cl.Pump(ctx)
					ctx.Sleep(50)
				}
				if returned {
					t.Error("the waiter returned before the release: the test shows nothing")
				}
				if n := cl.IdleSockets(); n != 0 {
					t.Errorf("%d Sockets on the free list while a sibling thread waits on one", n)
				}
				pattern := bytes.Repeat([]byte("next connection "), 100)
				for i := 0; i < 3; i++ {
					c, _, err := cl.Connect(ctx, th, dst, 7664)
					if err != nil {
						t.Errorf("connect: %v", err)
						break
					}
					if c == s && !returned {
						t.Errorf("dial %d got the Socket a sibling thread still waits on", i)
					}
					echoExact(t, ctx, th, c, pattern)
					c.Close(ctx, th)
				}
				for !returned {
					ctx.Sleep(10_000)
				}
			})
			w.sim.Run()
			if !returned {
				t.Error("the waiting Recv never returned")
			}
		})
	}
}
