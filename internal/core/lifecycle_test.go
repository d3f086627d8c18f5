package core_test

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"testing"

	"socksdirect/internal/core"
	"socksdirect/internal/exec"
	"socksdirect/internal/host"
	"socksdirect/internal/monitor"
	"socksdirect/internal/obs"
	"socksdirect/internal/shm"
	"socksdirect/internal/telemetry"
)

const sockRing = 128 * 1024

// census is everything a closed connection must give back, counted over
// the two hosts and two processes of a churn world — and the one thing it
// keeps on purpose: parked is the QPs of finished connections the processes
// hold for their next dial, qps every other QP on the two NICs.
type census struct {
	segs, qps, parked, mrs, pinned, eps, closing, records int
}

func takeCensus(w *world, libs ...*core.Libsd) census {
	c := census{
		segs:    w.a.SHM.Len() + w.b.SHM.Len(),
		qps:     w.a.NIC.QPCount() + w.b.NIC.QPCount(),
		mrs:     w.a.NIC.MRCount() + w.b.NIC.MRCount(),
		pinned:  w.a.Mem.PinnedCount() + w.b.Mem.PinnedCount(),
		records: w.ma.LiveConnRecords() + w.mb.LiveConnRecords(),
	}
	for _, l := range libs {
		c.eps += l.Endpoints()
		c.closing += l.Closing()
		c.parked += l.ParkedQPs()
	}
	c.qps -= c.parked
	return c
}

// echoServer accepts forever: 8 B in, 8 B out, wait for the client's close,
// close.
func echoServer(t *testing.T, l *core.Libsd, port uint16) func(exec.Context, *host.Thread) {
	return func(ctx exec.Context, th *host.Thread) {
		lst, err := l.ListenOn(ctx, th, port)
		if err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		buf := make([]byte, 8)
		for {
			s, _, err := lst.Accept(ctx)
			if err != nil {
				return
			}
			if _, err := s.Recv(ctx, th, buf); err == nil {
				if _, err := s.Send(ctx, th, buf); err == nil {
					s.Recv(ctx, th, buf) // the client's close
				}
			}
			s.Close(ctx, th)
		}
	}
}

// churn runs warm+n cycles of dial → 8 B echo → close against a fresh
// world and reports the census after the warm-up cycles, the census after
// all of them, and the heap in use at the end.
func churn(t *testing.T, inter bool, n int) (base, end census, heap uint64) {
	t.Helper()
	const warm = 4
	w := newWorld(t)
	srvHost, dst := w.a, "hostA"
	if inter {
		monitor.Peer(w.ma, w.mb)
		srvHost, dst = w.b, "hostB"
	}
	sp, sl := proc(t, srvHost, "server", 0)
	cp, cl := proc(t, w.a, "client", 1000)
	sp.Spawn("srv", echoServer(t, sl, 7400))
	cp.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
		ctx.Sleep(10_000)
		req, reply := []byte("8 bytes!"), make([]byte, 8)
		for i := 0; i < warm+n; i++ {
			if i == warm {
				ctx.Sleep(5_000_000) // the last warm-up close has settled
				base = takeCensus(w, sl, cl)
			}
			s, _, err := cl.Connect(ctx, th, dst, 7400)
			if err != nil {
				t.Errorf("cycle %d: connect: %v", i, err)
				return
			}
			if _, err := s.Send(ctx, th, req); err != nil {
				t.Errorf("cycle %d: send: %v", i, err)
			}
			if m, err := s.Recv(ctx, th, reply); err != nil || !bytes.Equal(reply[:m], req) {
				t.Errorf("cycle %d: echo %q, %v", i, reply[:m], err)
			}
			s.Close(ctx, th)
		}
		ctx.Sleep(5_000_000)
		end = takeCensus(w, sl, cl)
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		heap = ms.HeapInuse
		sp.Signal(ctx, host.SIGKILL) // the server would accept forever
	})
	w.sim.Run()
	return base, end, heap
}

// TestChurnLeak: a connection that was closed on both sides leaves nothing
// behind — segments, QPs, MRs, pinned frames, endpoint-table entries and
// monitor records are back at their pre-churn level however many cycles
// ran, and the heap does not grow with the cycle count.
func TestChurnLeak(t *testing.T) {
	for _, tc := range []struct {
		name        string
		inter       bool
		short, long int
	}{
		{"intra", false, 200, 2000},
		{"inter", true, 50, 200},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.inter && raceEnabled {
				tc.short, tc.long = 15, 60
			}
			hits := telemetry.C(telemetry.ShmRingPoolHits).Load()
			misses := telemetry.C(telemetry.ShmRingPoolMisses).Load()
			reclaims := telemetry.C(telemetry.CoreConnReclaims).Load()
			live := telemetry.G(telemetry.ShmSegmentsLive).Load()
			var heaps [2]uint64
			for i, n := range []int{tc.short, tc.long} {
				base, end, heap := churn(t, tc.inter, n)
				if end != base {
					t.Errorf("%d cycles: census %+v, want the pre-churn %+v", n, end, base)
				}
				if end.closing != 0 {
					t.Errorf("%d cycles: %d sides still waiting for their peer's close", n, end.closing)
				}
				heaps[i] = heap
			}
			if grow := int64(heaps[1]) - int64(heaps[0]); grow > 8<<20 {
				t.Errorf("HeapInuse grew %d B from %d to %d cycles", grow, tc.short, tc.long)
			}
			if d := telemetry.C(telemetry.ShmRingPoolHits).Load() - hits; d < int64(tc.long) {
				t.Errorf("ring_pool_hits moved by %d over %d cycles: rings are not reused", d, tc.short+tc.long)
			}
			if d := telemetry.C(telemetry.ShmRingPoolMisses).Load() - misses; d < 2 || d > 16 {
				t.Errorf("ring_pool_misses moved by %d: want a few rings allocated once per world, not per cycle", d)
			}
			if d := telemetry.C(telemetry.CoreConnReclaims).Load() - reclaims; d < int64(tc.short+tc.long) {
				t.Errorf("conn_reclaims moved by %d over %d cycles", d, tc.short+tc.long)
			}
			if d := telemetry.G(telemetry.ShmSegmentsLive).Load() - live; d != 0 {
				t.Errorf("segments_live ended %+d from where it started", d)
			}
		})
	}
}

// TestRefusedDialLeavesNothing: a remote dial that nobody listens for
// builds its endpoint optimistically; the refusal must give all of it back.
func TestRefusedDialLeavesNothing(t *testing.T) {
	w := newWorld(t)
	monitor.Peer(w.ma, w.mb)
	_, sl := proc(t, w.b, "server", 0)
	cp, cl := proc(t, w.a, "client", 1000)
	var base, end census
	cp.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
		ctx.Sleep(10_000)
		for i := 0; i < 4+40; i++ {
			if i == 4 {
				ctx.Sleep(1_000_000)
				base = takeCensus(w, sl, cl)
				// A dial that gives up on its deadline takes the same way
				// out; its late refusal is picked up by the next dial.
				if _, _, err := cl.ConnectDeadline(ctx, th, "hostB", 7401, ctx.Now()+1); !errors.Is(err, core.ETIMEDOUT) {
					t.Errorf("deadline dial: want ETIMEDOUT, got %v", err)
				}
				ctx.Sleep(1_000_000)
			}
			if _, _, err := cl.Connect(ctx, th, "hostB", 7401); !errors.Is(err, core.ErrNoListener) {
				t.Errorf("dial %d: want ErrNoListener, got %v", i, err)
			}
		}
		ctx.Sleep(1_000_000)
		end = takeCensus(w, sl, cl)
	})
	w.sim.Run()
	if end != base {
		t.Fatalf("after 41 failed dials: census %+v, want %+v", end, base)
	}
}

// pristine fails the test unless r looks freshly allocated.
func pristine(t *testing.T, what string, r *shm.Ring) {
	t.Helper()
	for i, b := range r.Data() {
		if b != 0 {
			t.Fatalf("%s: byte %d of a re-issued ring is %#x", what, i, b)
		}
	}
	if r.WriteCursor() != 0 || r.Tail() != 0 || r.Credit() != 0 || r.Used() != 0 ||
		r.OccHW() != 0 || r.CanRecv() || r.InBurst() {
		t.Fatalf("%s: re-issued ring keeps state: written=%d tail=%d credit=%d used=%d hw=%d",
			what, r.WriteCursor(), r.Tail(), r.Credit(), r.Used(), r.OccHW())
	}
}

// TestRecycledRingsArePristine fills both rings of a connection past a
// wrap, closes both sides and takes the rings the next connection would
// get: the same two objects, all zero, every cursor and credit zero.
func TestRecycledRingsArePristine(t *testing.T) {
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
			const total = 3*sockRing + 777 // wraps each ring twice
			pattern := bytes.Repeat([]byte{0xA5, 0x5A, 0xFF, 0x01}, 2048)
			pump := func(ctx exec.Context, th *host.Thread, s *core.Socket) {
				for sent := 0; sent < total; {
					n := min(len(pattern), total-sent)
					if _, err := s.Send(ctx, th, pattern[:n]); err != nil {
						t.Errorf("send: %v", err)
						return
					}
					sent += n
				}
			}
			drain := func(ctx exec.Context, th *host.Thread, s *core.Socket) {
				buf := make([]byte, 8192)
				for got := 0; got < total; {
					n, err := s.Recv(ctx, th, buf)
					if err != nil {
						t.Errorf("recv after %d B: %v", got, err)
						return
					}
					got += n
				}
			}
			var srvRings [2]*shm.Ring
			sp.Spawn("srv", func(ctx exec.Context, th *host.Thread) {
				lst, _ := sl.ListenOn(ctx, th, 7402)
				s, _, err := lst.Accept(ctx)
				if err != nil {
					t.Errorf("accept: %v", err)
					return
				}
				srvRings[0], srvRings[1] = s.Rings()
				drain(ctx, th, s)
				pump(ctx, th, s)
				if _, err := s.Recv(ctx, th, make([]byte, 8)); err != io.EOF {
					t.Errorf("want EOF from the client's close, got %v", err)
				}
				s.Close(ctx, th)
			})
			cp.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
				ctx.Sleep(10_000)
				s, _, err := cl.Connect(ctx, th, dst, 7402)
				if err != nil {
					t.Errorf("connect: %v", err)
					return
				}
				tx, rx := s.Rings()
				pump(ctx, th, s)
				drain(ctx, th, s)
				s.Close(ctx, th)
				ctx.Sleep(5_000_000)
				if err := s.Close(ctx, th); !errors.Is(err, core.ErrBadFD) {
					t.Errorf("close of a released socket: want ErrBadFD, got %v", err)
				}
				if a, b := s.Rings(); a != nil || b != nil {
					t.Error("a recycled side still points at its rings")
				}
				check := func(h *host.Host, was [2]*shm.Ring) {
					for i := 0; i < 2; i++ {
						r := h.SHM.GetRing(sockRing)
						if r != was[0] && r != was[1] {
							t.Errorf("%s: the free list did not hand back the closed connection's ring", h.Name)
						}
						pristine(t, h.Name, r)
					}
				}
				check(w.a, [2]*shm.Ring{tx, rx})
				if inter {
					check(w.b, srvRings)
				}
			})
			w.sim.Run()
		})
	}
}

// TestForkKeepsConnectionUntilChildCloses: a forked child's reference keeps
// the segment and the rings out of the recycle list after the parent closed
// its FD; the child's close (with the server's) releases them.
func TestForkKeepsConnectionUntilChildCloses(t *testing.T) {
	w := newWorld(t)
	sp, sl := proc(t, w.a, "server", 0)
	cp, cl := proc(t, w.a, "client", 1000)
	hits := telemetry.C(telemetry.ShmRingPoolHits)
	sp.Spawn("srv", func(ctx exec.Context, th *host.Thread) {
		lst, _ := sl.ListenOn(ctx, th, 7403)
		s, _, err := lst.Accept(ctx)
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		buf := make([]byte, 16)
		for {
			if _, err := s.Recv(ctx, th, buf); err != nil {
				break // EOF: the last client reference closed
			}
		}
		s.Close(ctx, th)
	})
	cp.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
		ctx.Sleep(10_000)
		base := w.a.SHM.Len()
		s, _, err := cl.Connect(ctx, th, "hostA", 7403)
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		tx, _ := s.Rings()
		child, childLib, err := cl.Fork(ctx, th, "child")
		if err != nil {
			t.Errorf("fork: %v", err)
			return
		}
		fd := s.FD()
		s.Close(ctx, th) // the parent's reference; the child's keeps the side open
		ctx.Sleep(1_000_000)
		if got := w.a.SHM.Len(); got != base+1 {
			t.Errorf("after the parent's close: %d segments, want %d (the child still holds the socket)", got, base+1)
		}
		h0 := hits.Load()
		if r := w.a.SHM.GetRing(sockRing); r == tx {
			t.Error("ring re-issued while the forked child still holds the connection")
		}
		if hits.Load() != h0 {
			t.Error("free list not empty while the forked child still holds the connection")
		}
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
		ctx.Sleep(1_000_000)
		if got := w.a.SHM.Len(); got != base {
			t.Errorf("after the child's close: %d segments, want %d", got, base)
		}
		if r := w.a.SHM.GetRing(sockRing); hits.Load() != h0+1 {
			t.Errorf("the closed connection's rings did not reach the free list (got %p)", r)
		}
		if n := w.ma.LiveConnRecords(); n != 0 {
			t.Errorf("%d monitor records left", n)
		}
		// The parent's sdstat row outlived rings it no longer has: reading
		// the table (a flight-recorder capture does) must not follow it there.
		obs.Flows()
	})
	w.sim.Run()
}

// TestCrashNeverRecyclesAttachedRing kills the client mid-stream. The
// survivor drains byte-exact and sees exactly one ECONNRESET; its rings —
// a corpse was attached — are never re-issued, neither while it still
// holds the socket nor after its late close, and crash cleanup plus that
// close release the connection exactly once.
func TestCrashNeverRecyclesAttachedRing(t *testing.T) {
	w := newWorld(t)
	sp, sl := proc(t, w.a, "server", 0)
	cp, cl := proc(t, w.a, "client", 1000)
	hits := telemetry.C(telemetry.ShmRingPoolHits)
	reclaims := telemetry.C(telemetry.CoreConnReclaims)
	chunk := bytes.Repeat([]byte("crash-drill "), 100)
	const chunks = 50
	sp.Spawn("srv", func(ctx exec.Context, th *host.Thread) {
		base := w.a.SHM.Len()
		lst, _ := sl.ListenOn(ctx, th, 7404)
		s, _, err := lst.Accept(ctx)
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		tx, rx := s.Rings()
		ctx.Sleep(400_000) // the client has sent everything and died
		var got []byte
		buf := make([]byte, 4096)
		var resets int
		for {
			n, err := s.Recv(ctx, th, buf)
			got = append(got, buf[:n]...)
			if errors.Is(err, core.ECONNRESET) {
				resets++
				continue
			}
			if err != nil {
				break
			}
		}
		if want := bytes.Repeat(chunk, chunks); !bytes.Equal(got, want) {
			t.Errorf("survivor drained %d B, want %d byte-exact", len(got), len(want))
		}
		if resets != 1 {
			t.Errorf("survivor saw %d ECONNRESET, want exactly 1", resets)
		}
		h0, r0 := hits.Load(), reclaims.Load()
		for i := 0; i < 2; i++ {
			if r := w.a.SHM.GetRing(sockRing); r == tx || r == rx {
				t.Error("ring re-issued while the survivor is still attached")
			}
		}
		s.Close(ctx, th)
		if err := s.Close(ctx, th); !errors.Is(err, core.ErrBadFD) {
			t.Errorf("second close: want ErrBadFD, got %v", err) // and no second release
		}
		ctx.Sleep(1_000_000)
		for i := 0; i < 2; i++ {
			if r := w.a.SHM.GetRing(sockRing); r == tx || r == rx {
				t.Error("a crashed connection's ring was re-issued")
			}
		}
		if hits.Load() != h0 {
			t.Error("free list served a ring after a crash")
		}
		if d := reclaims.Load() - r0; d != 1 {
			t.Errorf("connection released %d times, want 1", d)
		}
		if got := w.a.SHM.Len(); got != base {
			t.Errorf("%d segments after crash cleanup and close, want %d", got, base)
		}
		if n := w.ma.LiveConnRecords(); n != 0 {
			t.Errorf("%d monitor records left", n)
		}
		if err := w.ma.CrashConverged(); err != nil {
			t.Error(err)
		}
	})
	cp.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
		ctx.Sleep(10_000)
		s, _, err := cl.Connect(ctx, th, "hostA", 7404)
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		for i := 0; i < chunks; i++ {
			if _, err := s.Send(ctx, th, chunk); err != nil {
				t.Errorf("send %d: %v", i, err)
			}
		}
		cp.Signal(ctx, host.SIGKILL)
	})
	w.sim.Run()
}

// TestSurvivorClosedBeforePeerDied: the other order. The survivor closed
// first and will never look again, so crash cleanup must reclaim the
// segment and the record when the peer dies.
func TestSurvivorClosedBeforePeerDied(t *testing.T) {
	w := newWorld(t)
	sp, sl := proc(t, w.a, "server", 0)
	cp, cl := proc(t, w.a, "client", 1000)
	sp.Spawn("srv", func(ctx exec.Context, th *host.Thread) {
		lst, _ := sl.ListenOn(ctx, th, 7405)
		if _, _, err := lst.Accept(ctx); err != nil {
			t.Errorf("accept: %v", err)
		}
		ctx.Sleep(10_000_000) // holds its end open until killed
	})
	cp.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
		ctx.Sleep(10_000)
		base := w.a.SHM.Len()
		s, _, err := cl.Connect(ctx, th, "hostA", 7405)
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		s.Close(ctx, th)
		ctx.Sleep(500_000)
		if got := w.a.SHM.Len(); got != base+1 {
			t.Errorf("half-closed: %d segments, want %d", got, base+1)
		}
		sp.Signal(ctx, host.SIGKILL)
		ctx.Sleep(1_000_000)
		if got := w.a.SHM.Len(); got != base {
			t.Errorf("after the peer's death: %d segments, want %d", got, base)
		}
		if n := w.ma.LiveConnRecords(); n != 0 {
			t.Errorf("%d monitor records left", n)
		}
		if r := w.a.SHM.GetRing(sockRing); r.WriteCursor() != 0 {
			t.Error("a ring a corpse was attached to reached the free list")
		}
	})
	w.sim.Run()
}

// TestHalfCloseReleasesNothing: a side that closed while its peer stays
// open keeps everything in place until the peer closes too.
func TestHalfCloseReleasesNothing(t *testing.T) {
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
			var base, open, half, end census
			release := false
			sp.Spawn("srv", func(ctx exec.Context, th *host.Thread) {
				lst, _ := sl.ListenOn(ctx, th, 7406)
				s, _, err := lst.Accept(ctx)
				if err != nil {
					t.Errorf("accept: %v", err)
					return
				}
				for !release {
					ctx.Sleep(50_000) // open, and not even reading
				}
				if _, err := s.Send(ctx, th, []byte("still open")); err != nil {
					t.Errorf("send on the open half: %v", err)
				}
				s.Close(ctx, th)
			})
			cp.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
				ctx.Sleep(10_000)
				base = takeCensus(w, sl, cl)
				s, _, err := cl.Connect(ctx, th, dst, 7406)
				if err != nil {
					t.Errorf("connect: %v", err)
					return
				}
				ctx.Sleep(200_000)
				open = takeCensus(w, sl, cl)
				s.Close(ctx, th)
				ctx.Sleep(5_000_000)
				half = takeCensus(w, sl, cl)
				release = true
				ctx.Sleep(5_000_000)
				end = takeCensus(w, sl, cl)
			})
			w.sim.Run()
			if inter {
				open.closing++ // the closed side is now parked in the closing table
			}
			if half != open {
				t.Errorf("half-closed census %+v, want the open connection's %+v", half, open)
			}
			// The first connection of a process leaves one pinned pool (and
			// its MR) on the recycle list and its QP parked; everything else
			// is back.
			if inter {
				base.pinned += 2 * 128
				base.mrs += 2
				base.parked += 2
			}
			if end != base {
				t.Errorf("after both closed: census %+v, want %+v", end, base)
			}
		})
	}
}

// TestZCPoolFreeListBounded: ten connections open at once need ten pinned
// pools and ten QPs per process; closing them all keeps eight of each for
// reuse and retires the other two — MR deregistered, frames unpinned, QP
// closed, the oldest first.
func TestZCPoolFreeListBounded(t *testing.T) {
	w := newWorld(t)
	monitor.Peer(w.ma, w.mb)
	sp, sl := proc(t, w.b, "server", 0)
	cp, cl := proc(t, w.a, "client", 1000)
	const conns = 10
	parked := telemetry.G(telemetry.CoreQPsParked).Load() // of earlier worlds
	sp.Spawn("srv", func(ctx exec.Context, th *host.Thread) {
		lst, _ := sl.ListenOn(ctx, th, 7407)
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
			s, _, err := cl.Connect(ctx, th, "hostB", 7407)
			if err != nil {
				t.Errorf("connect %d: %v", i, err)
				return
			}
			held = append(held, s)
		}
		qps := w.a.NIC.QPCount() + w.b.NIC.QPCount() - 2*conns
		for _, s := range held {
			s.Close(ctx, th)
		}
		ctx.Sleep(20_000_000)
		for _, l := range []*core.Libsd{cl, sl} {
			if n := l.IdleZCPools(); n != 8 {
				t.Errorf("%s keeps %d idle pools, want 8", l.P.Name, n)
			}
			if n := l.ParkedQPs(); n != core.MaxParkedQPs {
				t.Errorf("%s keeps %d parked QPs, want %d", l.P.Name, n, core.MaxParkedQPs)
			}
		}
		if n := w.a.NIC.QPCount() + w.b.NIC.QPCount(); n != qps+2*core.MaxParkedQPs {
			t.Errorf("%d QPs on the NICs, want %d and the parked ones", n, qps)
		}
		if n := telemetry.G(telemetry.CoreQPsParked).Load() - parked; n != 2*core.MaxParkedQPs {
			t.Errorf("sd/core/qps_parked reads %d, want %d", n, 2*core.MaxParkedQPs)
		}
		for _, h := range []*host.Host{w.a, w.b} {
			// Only pool frames are ever pinned in this world.
			if n := h.Mem.PinnedCount(); n != 8*128 {
				t.Errorf("%s: %d pinned frames, want %d", h.Name, n, 8*128)
			}
		}
	})
	w.sim.Run()
}
