package core_test

import (
	"bytes"
	"testing"

	"socksdirect/internal/core"
	"socksdirect/internal/exec"
	"socksdirect/internal/host"
	"socksdirect/internal/monitor"
	"socksdirect/internal/shm"
)

// Tests of how far an inter-host socket's rings are backed: the sender's
// copy as far as TrySend wrote it, the receiver's copy as far as the NIC
// wrote it, each by the ring's head-then-whole rule.

const headBytes = 256 // shm's head: what a small first write backs

// TestInterEchoBacksTheHead: a cross-host 8 B echo backs no more than the
// head of any of the four ring copies, on either host.
func TestInterEchoBacksTheHead(t *testing.T) {
	w := newWorld(t)
	monitor.Peer(w.ma, w.mb)
	sp, sl := proc(t, w.b, "server", 0)
	cp, cl := proc(t, w.a, "client", 0)
	var srv *core.Socket
	sp.Spawn("srv", func(ctx exec.Context, th *host.Thread) {
		lst, _ := sl.ListenOn(ctx, th, 7540)
		s, _, err := lst.Accept(ctx)
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		srv = s
		echoBack(ctx, th, s)
	})
	cp.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
		ctx.Sleep(10_000)
		s, _, err := cl.Connect(ctx, th, "hostB", 7540)
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		echoExact(t, ctx, th, s, []byte("8 bytes!"))
		for _, c := range []struct {
			host string
			s    *core.Socket
		}{{"client", s}, {"server", srv}} {
			if tx, rx := c.s.Backed(); tx > headBytes || rx > headBytes {
				t.Errorf("%s: an 8 B echo backed %d B of the sender's copy and %d B of the receiver's, want at most %d each",
					c.host, tx, rx, headBytes)
			}
		}
		s.Close(ctx, th)
	})
	w.sim.Run()
}

// TestInterStreamBacksAsWritten: an inter-host echo stream that wraps both
// rings more than twice arrives byte-exact, and the receiver's copy on each
// host, in the head after a first small echo, is backed whole once the
// cursor passes the head. The rows carry the stream over the connection's
// own QP; over the QP a recovery spliced after the first one failed (the
// sender re-reads its copy from the credit line); and over the QP a forked
// child spliced (its endpoint registers the shared receiver copy anew).
func TestInterStreamBacksAsWritten(t *testing.T) {
	for _, mode := range []string{"rdma", "recovered", "forked"} {
		t.Run(mode, func(t *testing.T) {
			w := newWorld(t)
			monitor.Peer(w.ma, w.mb)
			sp, sl := proc(t, w.b, "server", 0)
			cp, cl := proc(t, w.a, "client", 0)
			var srv *core.Socket
			sp.Spawn("srv", func(ctx exec.Context, th *host.Thread) {
				lst, _ := sl.ListenOn(ctx, th, 7541)
				s, _, err := lst.Accept(ctx)
				if err != nil {
					t.Errorf("accept: %v", err)
					return
				}
				srv = s
				echoBack(ctx, th, s)
			})
			stream := func(ctx exec.Context, th *host.Thread, s *core.Socket) {
				chunk := make([]byte, 8000) // under the zero-copy threshold: through the rings
				for i := 0; i < 3*core.RingCap/len(chunk); i++ {
					for j := range chunk {
						chunk[j] = byte(i*7 + j*13)
					}
					if echoExact(t, ctx, th, s, chunk); t.Failed() {
						return
					}
				}
			}
			cp.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
				ctx.Sleep(10_000)
				s, _, err := cl.Connect(ctx, th, "hostB", 7541)
				if err != nil {
					t.Errorf("connect: %v", err)
					return
				}
				echoExact(t, ctx, th, s, []byte("first"))
				if _, rx := s.Backed(); rx > headBytes {
					t.Errorf("a 5 B echo backed %d B of the client's receiver copy", rx)
				}
				tx, rx := s.Rings()
				switch mode {
				case "rdma":
					stream(ctx, th, s)
				case "recovered":
					s.FailQP()
					stream(ctx, th, s)
				case "forked":
					child, childLib, err := cl.Fork(ctx, th, "child")
					if err != nil {
						t.Errorf("fork: %v", err)
						return
					}
					done := false
					child.Spawn("cmain", func(cctx exec.Context, cth *host.Thread) {
						defer func() { done = true }()
						cs, err := childLib.SocketByFD(s.FD())
						if err != nil {
							t.Errorf("child fd lookup: %v", err)
							return
						}
						stream(cctx, cth, cs)
						cs.Close(cctx, cth)
					})
					for end := ctx.Now() + 1_000_000_000; !done; ctx.Sleep(10_000) {
						if ctx.Now() > end {
							t.Error("the child's stream did not end within a second")
							child.Signal(ctx, host.SIGKILL)
							break
						}
					}
				}
				if tx.WriteCursor() < 2*core.RingCap {
					t.Errorf("the stream wrapped the client's ring %d times, want at least 2", tx.WriteCursor()/core.RingCap)
				}
				if n, m := len(rx.Backing(0)), len(srv.Side().RX.Backing(0)); n != core.RingCap || m != core.RingCap {
					t.Errorf("receiver copies backed %d B (client) and %d B (server) after the stream, want %d", n, m, core.RingCap)
				}
				s.Close(ctx, th)
			})
			w.sim.Run()
		})
	}
}

// TestRecycledRingHoldsNoStrayWrite: a peer RDMA-writes into a receiver
// ring past the tail it ever publishes (§3: peers are untrusted). The
// connection closes cleanly, its side goes back on the free list with the
// ring, and the next connection, built on that side, reads nothing of those
// bytes.
func TestRecycledRingHoldsNoStrayWrite(t *testing.T) {
	w := newWorld(t)
	monitor.Peer(w.ma, w.mb)
	sp, sl := proc(t, w.b, "server", 0)
	cp, cl := proc(t, w.a, "client", 0)
	sp.Spawn("srv", func(ctx exec.Context, th *host.Thread) {
		lst, _ := sl.ListenOn(ctx, th, 7542)
		var first *shm.Ring
		for round := 0; round < 2; round++ {
			s, _, err := lst.Accept(ctx)
			if err != nil {
				t.Errorf("accept: %v", err)
				return
			}
			_, rx := s.Rings()
			if round == 0 {
				first = rx
			} else if rx != first {
				t.Error("the next connection is not built on the server's recycled side")
			} else {
				scrubbed(t, "the re-drawn ring", rx) // the stray write did not survive
			}
			echoBack(ctx, th, s)
		}
	})
	cp.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
		ctx.Sleep(10_000)
		for round := 0; round < 2; round++ {
			s, _, err := cl.Connect(ctx, th, "hostB", 7542)
			if err != nil {
				t.Errorf("connect: %v", err)
				return
			}
			if round == 0 {
				if err := s.WritePeerRing(core.RingCap/2, bytes.Repeat([]byte{0x5A}, 64)); err != nil {
					t.Errorf("stray write: %v", err)
				}
			}
			echoExact(t, ctx, th, s, []byte("behind the stray write"))
			s.Close(ctx, th)
			ctx.Sleep(5_000_000)
		}
	})
	w.sim.Run()
}
