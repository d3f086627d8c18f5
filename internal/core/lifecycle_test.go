package core_test

import (
	"bytes"
	"errors"
	"io"
	"runtime"
	"slices"
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
func churn(t *testing.T, inter bool, n int) (base, end monitor.Census, heap uint64) {
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
				base = monitor.TakeCensus(w.a, w.b)
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
		end = monitor.TakeCensus(w.a, w.b)
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
// behind — segments, QPs, MRs, pinned frames, endpoint-table entries,
// monitor records and live sdstat rows are back at their pre-churn level,
// and the segments' free lists at their length, however many cycles ran (a
// thousand or more in the long runs), the flow table keeps no more than
// obs.ClosedFlows closed rows, and the heap does not grow with the cycle
// count.
func TestChurnLeak(t *testing.T) {
	for _, tc := range []struct {
		name        string
		inter       bool
		short, long int
	}{
		{"intra", false, 200, 2000},
		{"inter", true, 50, 1000},
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
				if end.Closing != 0 {
					t.Errorf("%d cycles: %d sides still waiting for their peer's close", n, end.Closing)
				}
				heaps[i] = heap
			}
			if rows, live := len(obs.Flows()), obs.LiveFlows(); rows > live+obs.ClosedFlows {
				t.Errorf("flow table holds %d rows, want at most the %d live ones and %d closed", rows, live, obs.ClosedFlows)
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

// TestClosedSocketWritesNoRow: a socket closed long enough ago that the
// flow table has reused its row's record for later connections has let go
// of it: its handle's Send, Recv and Close fail as on any closed socket — a
// Recv too that the socket had the rest of a message for — and no row, the
// open connection's included, changes. (The Socket itself serves one of the
// later connections by then: the handle is the Socket with the generation
// it was returned at.)
func TestClosedSocketWritesNoRow(t *testing.T) {
	w := newWorld(t)
	sp, sl := proc(t, w.a, "server", 0)
	cp, cl := proc(t, w.a, "client", 1000)
	sp.Spawn("srv", echoServer(t, sl, 7407))
	cp.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
		ctx.Sleep(10_000)
		stale, _, err := cl.Connect(ctx, th, "hostA", 7407)
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		gen := stale.Gen()
		req, reply := []byte("8 bytes!"), make([]byte, 8)
		stale.Send(ctx, th, req)
		if n, err := stale.Recv(ctx, th, reply[:4]); n != 4 || err != nil {
			t.Errorf("half the echo: %d, %v", n, err)
		}
		stale.Close(ctx, th)
		for i := 0; i < obs.ClosedFlows; i++ { // each cycle retires two rows
			echoOnce(t, ctx, th, cl, "hostA", 7407)
		}
		s, _, err := cl.Connect(ctx, th, "hostA", 7407)
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		ctx.Sleep(1_000_000)
		before := obs.Flows()
		if _, err := stale.Handle(gen).Send(ctx, th, req); !errors.Is(err, core.ErrShutdown) {
			t.Errorf("send on the closed socket: want ErrShutdown, got %v", err)
		}
		if _, err := stale.Handle(gen).Recv(ctx, th, reply); err != io.EOF {
			t.Errorf("recv on the closed socket: want EOF, got %v", err)
		}
		if err := stale.Handle(gen).Close(ctx, th); !errors.Is(err, core.ErrBadFD) {
			t.Errorf("close of the closed socket: want ErrBadFD, got %v", err)
		}
		if after := obs.Flows(); !slices.Equal(after, before) {
			t.Errorf("operations on a closed socket changed the flow table")
		}
		s.Close(ctx, th)
		sp.Signal(ctx, host.SIGKILL)
	})
	w.sim.Run()
}

// TestRefusedDialLeavesNothing: a remote dial that nobody listens for
// builds its endpoint optimistically; the refusal must give all of it back.
func TestRefusedDialLeavesNothing(t *testing.T) {
	w := newWorld(t)
	monitor.Peer(w.ma, w.mb)
	proc(t, w.b, "server", 0)
	cp, cl := proc(t, w.a, "client", 1000)
	var base, end monitor.Census
	cp.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
		ctx.Sleep(10_000)
		for i := 0; i < 4+40; i++ {
			if i == 4 {
				ctx.Sleep(1_000_000)
				base = monitor.TakeCensus(w.a, w.b)
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
		end = monitor.TakeCensus(w.a, w.b)
	})
	w.sim.Run()
	if end != base {
		t.Fatalf("after 41 failed dials: census %+v, want %+v", end, base)
	}
}

// echoExact sends want and reads it back, failing the test unless every
// byte returns in order.
func echoExact(t *testing.T, ctx exec.Context, th *host.Thread, s *core.Socket, want []byte) {
	t.Helper()
	if _, err := s.Send(ctx, th, want); err != nil {
		t.Errorf("send: %v", err)
		return
	}
	got := make([]byte, 0, len(want))
	buf := make([]byte, len(want))
	for len(got) < len(want) {
		n, err := s.Recv(ctx, th, buf)
		if err != nil {
			t.Errorf("recv after %d of %d bytes: %v", len(got), len(want), err)
			return
		}
		got = append(got, buf[:n]...)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("echo differs from what was sent (%d bytes)", len(want))
	}
}

// echoBack returns what it receives until the peer closes, then closes.
func echoBack(ctx exec.Context, th *host.Thread, s *core.Socket) {
	buf := make([]byte, 4096)
	for {
		n, err := s.Recv(ctx, th, buf)
		if err != nil {
			break
		}
		if _, err := s.Send(ctx, th, buf[:n]); err != nil {
			break
		}
	}
	s.Close(ctx, th)
}

// TestLateAnswerAfterRecycle: a dial's record and a backlog entry are
// reused once their call is over, so whatever still arrives for the old
// call must not reach the new one.
//
// dial: a remote dial's deadline beats the round trip, and its record goes
// back to the free list; the next dial takes it and is waiting in it when
// the first one's KConnectRes arrives. The answer finds no dial on record,
// the next dial's bytes come back exact, and dials, segments, rings, QPs and
// monitor records end where they started.
//
// accept: a client dies after its connection was dispatched and before the
// listener accepts it. Accept reports the reset and its backlog entry goes
// back to the free list; the next client's connection arrives in it, byte
// exact, and nothing of the dead client's connection stays behind.
func TestLateAnswerAfterRecycle(t *testing.T) {
	pattern := make([]byte, 3000)
	for i := range pattern {
		pattern[i] = byte(i*7 + i>>8)
	}
	t.Run("dial", func(t *testing.T) {
		w := newWorld(t)
		monitor.Peer(w.ma, w.mb)
		sp, sl := proc(t, w.b, "server", 0)
		cp, cl := proc(t, w.a, "client", 1000)
		sp.Spawn("srv", func(ctx exec.Context, th *host.Thread) {
			lst, err := sl.ListenOn(ctx, th, 7410)
			if err != nil {
				t.Errorf("listen: %v", err)
				return
			}
			for {
				s, _, err := lst.Accept(ctx)
				if err != nil {
					return
				}
				echoBack(ctx, th, s) // the abandoned dial's ends on its QP's retries
			}
		})
		var base, end monitor.Census
		cp.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
			ctx.Sleep(10_000)
			echoOnce(t, ctx, th, cl, "hostB", 7410) // warm: pools, rings, a free dial record
			ctx.Sleep(5_000_000)
			base = monitor.TakeCensus(w.a, w.b)
			if _, _, err := cl.ConnectDeadline(ctx, th, "hostB", 7410, ctx.Now()+1); !errors.Is(err, core.ETIMEDOUT) {
				t.Errorf("deadline dial: want ETIMEDOUT, got %v", err)
			}
			if n, f := cl.Holdings().Dials, cl.FreeDials(); n != 0 || f != 1 {
				t.Errorf("after the abandoned dial: %d dials on record, %d free records; want 0 and 1", n, f)
			}
			t0 := ctx.Now()
			s, _, err := cl.Connect(ctx, th, "hostB", 7410)
			if err != nil {
				t.Errorf("dial after the abandoned one: %v", err)
				return
			}
			// The server accepts it once the abandoned dial's socket ended,
			// milliseconds after that dial's answer came in.
			if d := ctx.Now() - t0; d < 1_000_000 {
				t.Errorf("the dial took %d sim-ns: it did not wait behind the abandoned one", d)
			}
			echoExact(t, ctx, th, s, pattern)
			s.Close(ctx, th)
			ctx.Sleep(5_000_000)
			end = monitor.TakeCensus(w.a, w.b)
			sp.Signal(ctx, host.SIGKILL)
		})
		w.sim.Run()
		end.IdleSegs = base.IdleSegs // lists that hold the history of releases
		if end != base {
			t.Errorf("census %+v, want the %+v from before the abandoned dial", end, base)
		}
	})
	t.Run("accept", func(t *testing.T) {
		w := newWorld(t)
		sp, sl := proc(t, w.a, "server", 0)
		dp, dl := proc(t, w.a, "doomed", 1000)
		cp, cl := proc(t, w.a, "client", 1000)
		var lst *core.Listener
		sp.Spawn("srv", func(ctx exec.Context, th *host.Thread) {
			var err error
			if lst, err = sl.ListenOn(ctx, th, 7411); err != nil {
				t.Errorf("listen: %v", err)
			}
		})
		dp.Spawn("dial", func(ctx exec.Context, th *host.Thread) {
			ctx.Sleep(10_000)
			dl.Connect(ctx, th, "hostA", 7411) // waits for the server's ACK until it dies
		})
		var base, end monitor.Census
		cp.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
			ctx.Sleep(5_000)
			base = monitor.TakeCensus(w.a, w.b)
			ctx.Sleep(100_000) // the doomed dial is in the listener's backlog
			if n := lst.Pending(); n != 1 {
				t.Errorf("%d connections in the backlog, want the doomed one", n)
			}
			dp.Signal(ctx, host.SIGKILL)
			ctx.Sleep(1_000_000)
			sp.Spawn("acc", func(ctx exec.Context, th *host.Thread) {
				if _, _, err := lst.Accept(ctx); !errors.Is(err, core.ECONNRESET) {
					t.Errorf("accept of the dead client's connection: want ECONNRESET, got %v", err)
				}
				if f := sl.FreeAccepts(); f != 1 {
					t.Errorf("%d free backlog entries after the failed accept, want 1", f)
				}
				s, _, err := lst.Accept(ctx)
				if err != nil {
					t.Errorf("accept: %v", err)
					return
				}
				echoBack(ctx, th, s)
			})
			s, _, err := cl.Connect(ctx, th, "hostA", 7411)
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			echoExact(t, ctx, th, s, pattern)
			s.Close(ctx, th)
			ctx.Sleep(1_000_000)
			end = monitor.TakeCensus(w.a, w.b)
			sp.Signal(ctx, host.SIGKILL)
		})
		w.sim.Run()
		end.IdleSegs = base.IdleSegs // lists that hold the history of releases
		if end != base {
			t.Errorf("census %+v, want the %+v from before the doomed dial", end, base)
		}
	})
}

// flowRow returns the sdstat row of one endpoint; a zero row if it has none.
func flowRow(host string, pid int, qid uint64) obs.FlowSnapshot {
	for _, f := range obs.Flows() {
		if f.Host == host && f.PID == int64(pid) && f.QID == qid {
			return f
		}
	}
	return obs.FlowSnapshot{}
}

// TestFlowRowProbe: a live socket's sdstat row reads its send ring's
// occupancy high-water, the monitor epoch, its transport and its state from
// the socket itself (the socket is the flow's obs.Prober); a closed one's
// row keeps the values it had at the close, though its rings have since
// been recycled and scrubbed. A peer's death reads "reset" once ECONNRESET
// surfaced, and "closed" after the close.
func TestFlowRowProbe(t *testing.T) {
	for _, inter := range []bool{false, true} {
		name := "intra"
		if inter {
			name = "inter"
		}
		t.Run(name, func(t *testing.T) {
			w := newWorld(t)
			release := false
			buf := make([]byte, 3000)
			var cp *host.Process
			_, cp = connected(t, w, inter, 7412,
				func(ctx exec.Context, th *host.Thread, s *core.Socket) {
					for !release {
						ctx.Sleep(10_000)
					}
					echoBack(ctx, th, s)
				},
				func(ctx exec.Context, th *host.Thread, s *core.Socket) {
					if _, err := s.Send(ctx, th, buf); err != nil {
						t.Errorf("send: %v", err)
						return
					}
					ctx.Sleep(100_000) // unread by the server: the ring holds it
					tx, _ := s.Rings()
					hw := tx.OccHW()
					if hw < uint64(len(buf)) {
						t.Errorf("send ring high-water %d after %d unread bytes", hw, len(buf))
					}
					live := flowRow("hostA", cp.PID, s.QID())
					if live.RingHW != int64(hw) || live.Epoch != w.ma.Epoch() || live.State != "established" {
						t.Errorf("live row: ring_hw %d epoch %d %s, want %d, %d, established",
							live.RingHW, live.Epoch, live.State, hw, w.ma.Epoch())
					}
					release = true
					s.Close(ctx, th)
					hw = tx.OccHW()      // with the close's MShut; the server has yet to close
					ctx.Sleep(1_000_000) // both sides closed: the rings are back on the free list
					if tx.OccHW() != 0 {
						t.Errorf("the closed connection's send ring was not scrubbed (high-water %d)", tx.OccHW())
					}
					closed := flowRow("hostA", cp.PID, s.QID())
					if closed.RingHW != int64(hw) || closed.Epoch != w.ma.Epoch() || closed.State != "closed" {
						t.Errorf("closed row: ring_hw %d epoch %d %s, want the frozen %d, %d, closed",
							closed.RingHW, closed.Epoch, closed.State, hw, w.ma.Epoch())
					}
				})
			w.sim.Run()
		})
	}
	t.Run("reset", func(t *testing.T) {
		w := newWorld(t)
		var sp, cp *host.Process
		sp, cp = connected(t, w, false, 7413,
			func(ctx exec.Context, th *host.Thread, s *core.Socket) {
				s.Recv(ctx, th, make([]byte, 8)) // until its process is killed
			},
			func(ctx exec.Context, th *host.Thread, s *core.Socket) {
				ctx.Sleep(100_000)
				resets := flowRow("hostA", cp.PID, s.QID()).Resets // the table outlives a test's world
				sp.Signal(ctx, host.SIGKILL)
				if _, err := s.Recv(ctx, th, make([]byte, 8)); !errors.Is(err, core.ECONNRESET) {
					t.Errorf("recv after the peer's death: %v, want ECONNRESET", err)
				}
				row := flowRow("hostA", cp.PID, s.QID())
				if row.Transport != "shm" || row.State != "reset" || row.Resets != resets+1 {
					t.Errorf("row after ECONNRESET: %s %s, %d more resets; want shm reset, 1", row.Transport, row.State, row.Resets-resets)
				}
				s.Close(ctx, th)
				if row = flowRow("hostA", cp.PID, s.QID()); row.State != "closed" {
					t.Errorf("row after the close: %s, want closed", row.State)
				}
			})
		w.sim.Run()
	})
}

// pristine fails the test unless r looks freshly allocated.
func pristine(t *testing.T, what string, r *shm.Ring) {
	t.Helper()
	for i, b := range r.Backing(0) {
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

// scrubbed fails the test unless r holds nothing past what its current
// connection wrote: no byte of an earlier connection is readable.
func scrubbed(t *testing.T, what string, r *shm.Ring) {
	t.Helper()
	end := max(r.WriteCursor(), r.Tail())
	for i, b := range r.Backing(0)[end:] {
		if b != 0 {
			t.Fatalf("%s: byte %d of a re-issued ring is %#x", what, int(end)+i, b)
		}
	}
}

// TestRecycledRingsArePristine fills both rings of a connection past a
// wrap, closes both sides and dials again: the recycled sockets carry the
// same two ring objects, scrubbed — all zero past the open's MAck, and the
// ring nothing was sent on yet pristine, every cursor and credit zero.
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
				for round := 0; round < 2; round++ {
					s, _, err := lst.Accept(ctx)
					if err != nil {
						t.Errorf("accept: %v", err)
						return
					}
					if round == 0 {
						srvRings[0], srvRings[1] = s.Rings()
						drain(ctx, th, s)
						pump(ctx, th, s)
					} else if tx, rx := s.Rings(); tx != srvRings[0] || rx != srvRings[1] {
						t.Errorf("%s: the recycled socket does not carry the closed connection's rings", srvHost.Name)
					} else {
						scrubbed(t, srvHost.Name+" tx", tx)
						scrubbed(t, srvHost.Name+" rx", rx)
					}
					if _, err := s.Recv(ctx, th, make([]byte, 8)); err != io.EOF {
						t.Errorf("want EOF from the client's close, got %v", err)
					}
					s.Close(ctx, th)
				}
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
				s, _, err = cl.Connect(ctx, th, dst, 7402)
				if err != nil {
					t.Errorf("connect again: %v", err)
					return
				}
				if a, b := s.Rings(); a != tx || b != rx {
					t.Error("hostA: the recycled socket does not carry the closed connection's rings")
				} else {
					pristine(t, "hostA tx", tx) // nothing sent on it yet
					scrubbed(t, "hostA rx", rx) // the MAck, and nothing else
				}
				s.Close(ctx, th)
			})
			w.sim.Run()
		})
	}
}

// TestForkKeepsConnectionUntilChildCloses: a forked child's reference keeps
// the segment open after the parent closed its FD; the child's close (with
// the server's) releases it. A side two processes held is never recycled:
// its IntraSock and rings stay off the monitor's free list throughout.
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
		idle, h0 := w.ma.IdleIntraSocks(), hits.Load()
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
		if w.ma.IdleIntraSocks() != idle {
			t.Error("connection recycled while the forked child still holds it")
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
		if w.ma.IdleIntraSocks() != idle || hits.Load() != h0 {
			t.Error("a connection a forked child held was recycled")
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

// TestForkedInterSideIsNeverRecycled: a forked child closes its copy of an
// inter-host socket without using it, so the parent's release is clean,
// but the child's Socket still points at the side. The side is not kept:
// the parent's next dial is built on another, and the child's closed
// Socket cannot reach it.
func TestForkedInterSideIsNeverRecycled(t *testing.T) {
	w := newWorld(t)
	monitor.Peer(w.ma, w.mb)
	sp, sl := proc(t, w.b, "server", 0)
	cp, cl := proc(t, w.a, "client", 1000)
	sp.Spawn("srv", func(ctx exec.Context, th *host.Thread) {
		lst, _ := sl.ListenOn(ctx, th, 7414)
		for i := 0; i < 2; i++ {
			s, _, err := lst.Accept(ctx)
			if err != nil {
				t.Errorf("accept: %v", err)
				return
			}
			echoBack(ctx, th, s)
		}
	})
	cp.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
		ctx.Sleep(10_000)
		s, _, err := cl.Connect(ctx, th, "hostB", 7414)
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		idle := cl.Holdings().IdleSides
		child, childLib, err := cl.Fork(ctx, th, "child")
		if err != nil {
			t.Errorf("fork: %v", err)
			return
		}
		cs, err := childLib.SocketByFD(s.FD())
		if err != nil {
			t.Errorf("child fd lookup: %v", err)
			return
		}
		done := false
		child.Spawn("cmain", func(cctx exec.Context, cth *host.Thread) {
			cs.Close(cctx, cth)
			done = true
		})
		for !done {
			ctx.Sleep(10_000)
		}
		echoExact(t, ctx, th, s, []byte("the parent's last words"))
		s.Close(ctx, th)
		ctx.Sleep(5_000_000)
		if n := cl.Holdings().IdleSides; n != idle {
			t.Errorf("%d idle sides after the release, want %d: a side two processes held was kept", n, idle)
		}
		s2, _, err := cl.Connect(ctx, th, "hostB", 7414)
		if err != nil {
			t.Errorf("connect again: %v", err)
			return
		}
		if cs.Side() == s2.Side() {
			t.Error("the child's closed Socket points into the next connection")
		}
		echoExact(t, ctx, th, s2, []byte("on a side of its own"))
		s2.Close(ctx, th)
	})
	w.sim.Run()
}

// TestForkedSocketIsNeverHandedOut: a Socket whose side a forked child
// shares goes back to no free list, on one host or across two: not when
// the parent closes its copy while the child holds the side, nor when the
// child's close releases the connection. Every later dial of the parent
// gets another Socket, and the parent's keeps its generation.
func TestForkedSocketIsNeverHandedOut(t *testing.T) {
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
			sp.Spawn("srv", echoForever(t, sl, 7415))
			sp.Spawn("others", echoForever(t, sl, 7416))
			cp.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
				defer sp.Signal(ctx, host.SIGKILL) // the server would accept forever
				ctx.Sleep(10_000)
				s, _, err := cl.Connect(ctx, th, dst, 7415)
				if err != nil {
					t.Errorf("connect: %v", err)
					return
				}
				gen := s.Gen()
				child, childLib, err := cl.Fork(ctx, th, "child")
				if err != nil {
					t.Errorf("fork: %v", err)
					return
				}
				cs, err := childLib.SocketByFD(s.FD())
				if err != nil {
					t.Errorf("child fd lookup: %v", err)
					return
				}
				dialOthers := func(when string) {
					for i := 0; i < 3; i++ {
						c, _, err := cl.Connect(ctx, th, dst, 7416)
						if err != nil {
							t.Errorf("connect: %v", err)
							return
						}
						if c == s || c == cs {
							t.Errorf("%s: a dial got a Socket the fork shares", when)
						}
						echoExact(t, ctx, th, c, []byte("a connection of its own"))
						c.Close(ctx, th)
						ctx.Sleep(1_000_000)
					}
				}
				idle := cl.IdleSockets()
				s.Close(ctx, th) // the child's reference keeps the side open
				ctx.Sleep(1_000_000)
				if n := cl.IdleSockets(); n != idle {
					t.Errorf("%d idle Sockets after the parent's close, want %d", n, idle)
				}
				dialOthers("while the child holds the side")
				done := false
				child.Spawn("cmain", func(cctx exec.Context, cth *host.Thread) {
					cs.Close(cctx, cth)
					done = true
				})
				for !done {
					ctx.Sleep(10_000)
				}
				ctx.Sleep(5_000_000) // the server closes too: the connection is released
				if n := childLib.IdleSockets(); n != 0 {
					t.Errorf("the child's library keeps %d Sockets", n)
				}
				dialOthers("after the release")
				if s.Gen() != gen {
					t.Errorf("the parent's Socket moved from generation %d to %d", gen, s.Gen())
				}
			})
			w.sim.Run()
		})
	}
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
		idle := w.ma.IdleIntraSocks()
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
		if w.ma.IdleIntraSocks() != idle {
			t.Error("connection recycled while the survivor is still attached")
		}
		s.Close(ctx, th)
		if err := s.Close(ctx, th); !errors.Is(err, core.ErrBadFD) {
			t.Errorf("second close: want ErrBadFD, got %v", err) // and no second release
		}
		ctx.Sleep(1_000_000)
		if w.ma.IdleIntraSocks() != idle || hits.Load() != h0 {
			t.Error("a crashed connection was recycled")
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
		base, idle := w.a.SHM.Len(), w.ma.IdleIntraSocks()
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
		if w.ma.IdleIntraSocks() != idle {
			t.Error("a connection a corpse was attached to reached the free list")
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
			var base, open, half, end monitor.Census
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
				base = monitor.TakeCensus(w.a, w.b)
				s, _, err := cl.Connect(ctx, th, dst, 7406)
				if err != nil {
					t.Errorf("connect: %v", err)
					return
				}
				ctx.Sleep(200_000)
				open = monitor.TakeCensus(w.a, w.b)
				s.Close(ctx, th)
				ctx.Sleep(5_000_000)
				half = monitor.TakeCensus(w.a, w.b)
				release = true
				ctx.Sleep(5_000_000)
				end = monitor.TakeCensus(w.a, w.b)
			})
			w.sim.Run()
			open.Flows-- // the closed side's row is final
			if inter {
				open.Closing++ // the closed side is now parked in the closing table
			}
			if half != open {
				t.Errorf("half-closed census %+v, want the open connection's %+v", half, open)
			}
			// The first connection leaves its segments on their free lists,
			// across hosts each with its pinned pool, and its QPs parked;
			// everything else is back.
			base.IdleSegs++
			if inter {
				base.IdleSegs++
				base.ParkedQPs += 2
			}
			if end != base {
				t.Errorf("after both closed: census %+v, want %+v", end, base)
			}
		})
	}
}

// TestZCPoolFreeListBounded: ten connections open at once need ten pinned
// pools, ten QPs and ten interSides per process; closing them all keeps
// eight sides, each with its pool, and eight QPs for reuse and retires the
// other two — the ninth side's pool unpinned and its MR deregistered, the
// side to the garbage collector, the oldest QPs closed. The census counts
// nothing else.
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
		base := monitor.TakeCensus(w.a, w.b)
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
			if n := l.Holdings().ParkedQPs; n != core.MaxParkedQPs {
				t.Errorf("%s keeps %d parked QPs, want %d", l.P.Name, n, core.MaxParkedQPs)
			}
			if n := l.Holdings().IdleSides; n != core.MaxIdleSides {
				t.Errorf("%s keeps %d idle interSides, want %d", l.P.Name, n, core.MaxIdleSides)
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
		end := monitor.TakeCensus(w.a, w.b)
		base.IdleSegs += 2 * core.MaxIdleSides
		base.ParkedQPs += 2 * core.MaxParkedQPs
		if end != base {
			t.Errorf("census %+v, want %+v: the idle sides' pools are theirs", end, base)
		}
	})
	w.sim.Run()
}

// TestRefusedDialKeepsItsSide: a dial nobody listens for is refused before
// its endpoint reached the wire, so its side is clean though no Socket ever
// held it. The side goes back on the free list with its rings and pinned
// pool, and the process's next dial is built on it: no frame pinned, no ring
// made.
func TestRefusedDialKeepsItsSide(t *testing.T) {
	w := newWorld(t)
	monitor.Peer(w.ma, w.mb)
	sp, sl := proc(t, w.b, "server", 0)
	cp, cl := proc(t, w.a, "client", 1000)
	sp.Spawn("srv", func(ctx exec.Context, th *host.Thread) {
		ctx.Sleep(2_000_000) // the first dial finds no listener
		lst, _ := sl.ListenOn(ctx, th, 7413)
		s, _, err := lst.Accept(ctx)
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		echoBack(ctx, th, s)
	})
	cp.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
		ctx.Sleep(10_000)
		if _, _, err := cl.Connect(ctx, th, "hostB", 7413); !errors.Is(err, core.ErrNoListener) {
			t.Errorf("first dial: want ErrNoListener, got %v", err)
			return
		}
		side := cl.NextIdleSide()
		if side == nil {
			t.Error("the refused dial's side was not kept")
			return
		}
		tx, rx, pinned := side.TX, side.RX, w.a.Mem.PinnedCount()
		ctx.Sleep(3_000_000)
		s, _, err := cl.Connect(ctx, th, "hostB", 7413)
		if err != nil {
			t.Errorf("second dial: %v", err)
			return
		}
		if s.Side() != side {
			t.Error("the next dial is not built on the refused dial's side")
		}
		if a, b := s.Rings(); a != tx || b != rx {
			t.Error("the next dial made new rings")
		}
		if n := w.a.Mem.PinnedCount(); n != pinned {
			t.Errorf("the next dial pinned %d frames, want none", n-pinned)
		}
		echoExact(t, ctx, th, s, []byte("on a recycled side"))
		s.Close(ctx, th)
	})
	w.sim.Run()
}

// TestClosingSideHeardAfterRestart: a side closed here waits in the closing
// table for its peer's close. Its monitor restarts meanwhile, and then the
// peer process dies without closing: the successor must know the side, so
// that the death notice reaches it and it is released while its own process
// lives on.
func TestClosingSideHeardAfterRestart(t *testing.T) {
	w := newWorld(t)
	monitor.Peer(w.ma, w.mb)
	sp, sl := proc(t, w.b, "server", 0)
	cp, cl := proc(t, w.a, "client", 1000)
	sp.Spawn("srv", func(ctx exec.Context, th *host.Thread) {
		lst, _ := sl.ListenOn(ctx, th, 7412)
		if _, _, err := lst.Accept(ctx); err != nil {
			t.Errorf("accept: %v", err)
		}
	})
	cp.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
		ctx.Sleep(10_000)
		s, _, err := cl.Connect(ctx, th, "hostB", 7412)
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		s.Close(ctx, th)
		ctx.Sleep(1_000_000)
		if n := cl.Holdings().Closing; n != 1 {
			t.Errorf("%d sides closing before the restart, want the one whose peer is open", n)
		}
		monitor.Restart(w.a)
		ctx.Sleep(5_000_000)
		sp.Signal(ctx, host.SIGKILL)
		ctx.Sleep(10_000_000)
		if c := monitor.TakeCensus(w.a); c.Closing != 0 || c.Segs != 0 || c.Records != 0 {
			t.Errorf("after the peer's death: %+v on hostA, want no side, segment or record left", c)
		}
	})
	w.sim.Run()
}
