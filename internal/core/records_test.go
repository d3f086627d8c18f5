package core_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"socksdirect/internal/core"
	"socksdirect/internal/exec"
	"socksdirect/internal/host"
	"socksdirect/internal/monitor"
)

// recWorld is one row's deployment: the two-monitor world with its channel
// up, the monitors to audit when the run ends (a restart replaces an entry,
// a row that kills a monitor strikes it), and the most records seen mid-run
// (-1: the row has no moment at which a record must show).
type recWorld struct {
	*world
	t    *testing.T
	mons map[string]*monitor.Monitor
	peak int
}

func (r *recWorld) sample() {
	n := 0
	for _, m := range r.mons {
		n += m.LiveConnRecords()
	}
	r.peak = max(r.peak, n)
}

// hosts returns the server's host and the name a client on hostA dials.
func (r *recWorld) hosts(inter bool) (*host.Host, string) {
	if inter {
		return r.b, "hostB"
	}
	return r.a, "hostA"
}

var eight = []byte("8 bytes!")

// acceptOne listens, accepts one connection and hands it to body.
func acceptOne(r *recWorld, l *core.Libsd, port uint16, body func(exec.Context, *host.Thread, *core.Socket)) func(exec.Context, *host.Thread) {
	return func(ctx exec.Context, th *host.Thread) {
		lst, err := l.ListenOn(ctx, th, port)
		if err != nil {
			r.t.Errorf("listen: %v", err)
			return
		}
		s, _, err := lst.Accept(ctx)
		if err != nil {
			r.t.Errorf("accept: %v", err)
			return
		}
		body(ctx, th, s)
	}
}

// serveEcho answers n 8-byte requests.
func serveEcho(r *recWorld, ctx exec.Context, th *host.Thread, s *core.Socket, n int) {
	buf := make([]byte, 8)
	for i := 0; i < n; i++ {
		m, err := s.Recv(ctx, th, buf)
		if err == nil {
			_, err = s.Send(ctx, th, buf[:m])
		}
		if err != nil {
			r.t.Errorf("server echo %d: %v", i, err)
			return
		}
	}
}

// dialEcho dials and echoes once over the new connection.
func dialEcho(r *recWorld, ctx exec.Context, th *host.Thread, l *core.Libsd, dst string, port uint16) *core.Socket {
	s, _, err := l.Connect(ctx, th, dst, port)
	if err != nil {
		r.t.Errorf("connect %s:%d: %v", dst, port, err)
		return nil
	}
	echo(r, ctx, th, s)
	return s
}

func echo(r *recWorld, ctx exec.Context, th *host.Thread, s *core.Socket) {
	buf := make([]byte, 8)
	if _, err := s.Send(ctx, th, eight); err != nil {
		r.t.Errorf("client send: %v", err)
	}
	if m, err := s.Recv(ctx, th, buf); err != nil || string(buf[:m]) != string(eight) {
		r.t.Errorf("client echo %q, %v", buf[:m], err)
	}
}

// untilEnd reads until the peer's close or death shows.
func untilEnd(ctx exec.Context, th *host.Thread, s *core.Socket) error {
	buf := make([]byte, 8)
	for {
		if _, err := s.Recv(ctx, th, buf); err != nil {
			return err
		}
	}
}

// closeRow: dial, echo, and a graceful close from either side first.
func closeRow(inter, clientFirst bool) func(*recWorld) {
	return func(r *recWorld) {
		sh, dst := r.hosts(inter)
		sp, sl := proc(r.t, sh, "server", 0)
		cp, cl := proc(r.t, r.a, "client", 1000)
		sp.Spawn("srv", acceptOne(r, sl, 7900, func(ctx exec.Context, th *host.Thread, s *core.Socket) {
			serveEcho(r, ctx, th, s, 1)
			if clientFirst {
				untilEnd(ctx, th, s)
			}
			s.Close(ctx, th)
		}))
		cp.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
			ctx.Sleep(10_000)
			s := dialEcho(r, ctx, th, cl, dst, 7900)
			if s == nil {
				return
			}
			r.sample()
			if !clientFirst {
				untilEnd(ctx, th, s)
			}
			s.Close(ctx, th)
		})
	}
}

// refusedRow: nobody listens on the port.
func refusedRow(inter bool) func(*recWorld) {
	return func(r *recWorld) {
		_, dst := r.hosts(inter)
		cp, cl := proc(r.t, r.a, "client", 1000)
		cp.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
			ctx.Sleep(10_000)
			if _, _, err := cl.Connect(ctx, th, dst, 7901); !errors.Is(err, core.ErrNoListener) {
				r.t.Errorf("dial: want ErrNoListener, got %v", err)
			}
			r.peak = -1 // nothing to see: the refusal made no record, or took it along
		})
	}
}

// abandonedRow: the dialer's deadline beats the round trip; the server
// accepts a connection nobody holds, sees it reset and closes it.
func abandonedRow(r *recWorld) {
	sp, sl := proc(r.t, r.b, "server", 0)
	cp, cl := proc(r.t, r.a, "client", 1000)
	sp.Spawn("srv", acceptOne(r, sl, 7902, func(ctx exec.Context, th *host.Thread, s *core.Socket) {
		r.sample()
		if err := untilEnd(ctx, th, s); !errors.Is(err, core.ErrPeerDead) {
			r.t.Errorf("accepted socket of an abandoned dial: %v, want a reset", err)
		}
		s.Close(ctx, th)
	}))
	cp.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
		ctx.Sleep(10_000)
		if _, _, err := cl.ConnectDeadline(ctx, th, "hostB", 7902, ctx.Now()+1); !errors.Is(err, core.ETIMEDOUT) {
			r.t.Errorf("deadline dial: want ETIMEDOUT, got %v", err)
		}
	})
}

// stolenRow: two listener processes on hostB, one never accepting; what is
// dispatched to it is stolen by the other. Both connections close.
func stolenRow(r *recWorld) {
	p1, l1 := proc(r.t, r.b, "awake", 0)
	p2, l2 := proc(r.t, r.b, "asleep", 0)
	cp, cl := proc(r.t, r.a, "client", 1000)
	p1.Spawn("srv", func(ctx exec.Context, th *host.Thread) {
		lst, err := l1.ListenOn(ctx, th, 7903)
		if err != nil {
			r.t.Errorf("listen: %v", err)
			return
		}
		for i := 0; i < 2; i++ {
			s, _, err := lst.Accept(ctx)
			if err != nil {
				r.t.Errorf("accept %d: %v", i, err)
				return
			}
			serveEcho(r, ctx, th, s, 1)
			untilEnd(ctx, th, s)
			s.Close(ctx, th)
		}
	})
	p2.Spawn("srv", func(ctx exec.Context, th *host.Thread) {
		if _, err := l2.ListenOn(ctx, th, 7903); err != nil {
			r.t.Errorf("listen: %v", err)
		}
		ctx.Sleep(20_000_000)
	})
	for i := 0; i < 2; i++ {
		cp.Spawn(fmt.Sprintf("dialer%d", i), func(ctx exec.Context, th *host.Thread) {
			ctx.Sleep(10_000)
			if s := dialEcho(r, ctx, th, cl, "hostB", 7903); s != nil {
				r.sample()
				s.Close(ctx, th)
			}
		})
	}
}

// crashRow: one side is SIGKILLed with the connection open; the other sees
// the reset and closes.
func crashRow(inter, killClient bool) func(*recWorld) {
	return func(r *recWorld) {
		sh, dst := r.hosts(inter)
		sp, sl := proc(r.t, sh, "server", 0)
		cp, cl := proc(r.t, r.a, "client", 1000)
		sp.Spawn("srv", acceptOne(r, sl, 7904, func(ctx exec.Context, th *host.Thread, s *core.Socket) {
			serveEcho(r, ctx, th, s, 1)
			if !killClient {
				ctx.Sleep(200_000)
				sp.Signal(ctx, host.SIGKILL)
				return
			}
			if err := untilEnd(ctx, th, s); !errors.Is(err, core.ECONNRESET) {
				r.t.Errorf("server after the client's death: %v, want ECONNRESET", err)
			}
			s.Close(ctx, th)
		}))
		cp.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
			ctx.Sleep(10_000)
			s := dialEcho(r, ctx, th, cl, dst, 7904)
			if s == nil {
				return
			}
			r.sample()
			if killClient {
				ctx.Sleep(200_000)
				cp.Signal(ctx, host.SIGKILL)
				return
			}
			if err := untilEnd(ctx, th, s); !errors.Is(err, core.ECONNRESET) {
				r.t.Errorf("client after the server's death: %v, want ECONNRESET", err)
			}
			s.Close(ctx, th)
		})
	}
}

// contestedRow: two client threads share one intra-host socket, so the
// monitor holds a token queue for it; then both processes are SIGKILLed.
func contestedRow(r *recWorld) {
	sp, sl := proc(r.t, r.a, "server", 0)
	cp, cl := proc(r.t, r.a, "client", 1000)
	sp.Spawn("srv", acceptOne(r, sl, 7905, func(ctx exec.Context, th *host.Thread, s *core.Socket) {
		untilEnd(ctx, th, s)
	}))
	cp.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
		ctx.Sleep(10_000)
		s, _, err := cl.Connect(ctx, th, "hostA", 7905)
		if err != nil {
			r.t.Errorf("connect: %v", err)
			return
		}
		done := 0
		for wk := 0; wk < 2; wk++ {
			cp.Spawn("worker", func(wctx exec.Context, wth *host.Thread) {
				for i := 0; i < 10; i++ {
					if _, err := s.Send(wctx, wth, eight); err != nil {
						r.t.Errorf("worker send: %v", err)
						break
					}
				}
				done++
			})
		}
		for done < 2 {
			ctx.Yield() // stay cooperative so revocations are honoured
		}
		if r.ma.TokensGranted == 0 {
			r.t.Error("the send token was never contested through the monitor")
		}
		r.sample()
		sp.Signal(ctx, host.SIGKILL)
		cp.Signal(ctx, host.SIGKILL)
	})
}

// bothCrashInterRow: the client process dies, the server sees the reset,
// then dies too without closing.
func bothCrashInterRow(r *recWorld) {
	sp, sl := proc(r.t, r.b, "server", 0)
	cp, cl := proc(r.t, r.a, "client", 1000)
	sp.Spawn("srv", acceptOne(r, sl, 7906, func(ctx exec.Context, th *host.Thread, s *core.Socket) {
		serveEcho(r, ctx, th, s, 1)
		if err := untilEnd(ctx, th, s); !errors.Is(err, core.ECONNRESET) {
			r.t.Errorf("server after the client's death: %v, want ECONNRESET", err)
		}
		sp.Signal(ctx, host.SIGKILL)
	}))
	cp.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
		ctx.Sleep(10_000)
		if dialEcho(r, ctx, th, cl, "hostB", 7906) != nil {
			r.sample()
			cp.Signal(ctx, host.SIGKILL)
		}
	})
}

// hostDeathRow: hostB's monitor goes silent, hostA confirms the host dead
// and sweeps its records; then the owner of the swept connection dies.
func hostDeathRow(r *recWorld) {
	sp, sl := proc(r.t, r.b, "server", 0)
	cp, cl := proc(r.t, r.a, "client", 1000)
	sp.Spawn("srv", acceptOne(r, sl, 7907, func(ctx exec.Context, th *host.Thread, s *core.Socket) {
		serveEcho(r, ctx, th, s, 1)
		untilEnd(ctx, th, s)
	}))
	cp.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
		ctx.Sleep(10_000)
		s := dialEcho(r, ctx, th, cl, "hostB", 7907)
		if s == nil {
			return
		}
		r.sample()
		r.mb.Stop()
		delete(r.mons, "hostB") // the casualty keeps what it had
		// hostA counts silent heartbeats only while it has control traffic
		// of its own: refused local dials will do.
		for i := 0; i < 140; i++ {
			cl.Connect(ctx, th, "hostA", 9)
			ctx.Sleep(25_000_000)
		}
		if r.ma.MemberState("hostB") != monitor.MemberDead {
			r.t.Error("hostB was never confirmed dead")
		}
		if err := untilEnd(ctx, th, s); !errors.Is(err, core.ECONNRESET) {
			r.t.Errorf("swept connection: %v, want ECONNRESET", err)
		}
		sp.Signal(ctx, host.SIGKILL)
		cp.Signal(ctx, host.SIGKILL)
	})
}

// migrateRow: the client's container moves from hostA to hostC mid-stream
// and echoes once from there, which splices its QP from hostC. Then:
//   - "detach": both ends close;
//   - "crash": the container is SIGKILLed at hostC, and the server sees one
//     reset — hostC's monitor holds the record that fans the death out;
//   - "source-host-death": hostA's monitor dies and hostB confirms it dead;
//     the connection, which no longer runs through hostA, keeps echoing and
//     closes cleanly.
func migrateRow(then string) func(*recWorld) {
	return func(r *recWorld) {
		mc := monitor.Start(r.c, r.kc)
		monitor.Peer(mc, r.mb)
		r.mons["hostC"] = mc
		sp, sl := proc(r.t, r.b, "server", 0)
		cp, cl := proc(r.t, r.a, "container", 0)
		sp.Spawn("srv", acceptOne(r, sl, 7908, func(ctx exec.Context, th *host.Thread, s *core.Socket) {
			switch then {
			case "crash":
				serveEcho(r, ctx, th, s, 2)
				if err := untilEnd(ctx, th, s); !errors.Is(err, core.ECONNRESET) {
					r.t.Errorf("server after the migrated client's death: %v, want ECONNRESET", err)
				}
				if err := untilEnd(ctx, th, s); errors.Is(err, core.ECONNRESET) {
					r.t.Error("a second ECONNRESET")
				}
			case "source-host-death":
				serveEcho(r, ctx, th, s, 3)
				if err := untilEnd(ctx, th, s); errors.Is(err, core.ErrPeerDead) {
					r.t.Errorf("server after the client's clean close: %v, want EOF", err)
				}
			default:
				serveEcho(r, ctx, th, s, 2)
				untilEnd(ctx, th, s)
			}
			s.Close(ctx, th)
		}))
		if then == "source-host-death" {
			// hostB counts silent heartbeats only while it has control
			// traffic of its own: refused local dials will do.
			sp.Spawn("refused", func(ctx exec.Context, th *host.Thread) {
				for i := 0; i < 160 && r.mb.MemberState("hostA") != monitor.MemberDead; i++ {
					ctx.Sleep(25_000_000)
					sl.Connect(ctx, th, "hostB", 9)
				}
			})
		}
		cp.Spawn("main", func(ctx exec.Context, th *host.Thread) {
			ctx.Sleep(10_000)
			s := dialEcho(r, ctx, th, cl, "hostB", 7908)
			if s == nil {
				return
			}
			r.sample()
			np, nl, err := core.Migrate(cl, r.c, "container")
			if err != nil {
				r.t.Errorf("migrate: %v", err)
				return
			}
			np.Spawn("main", func(ctx exec.Context, th *host.Thread) {
				ms, err := nl.SocketByFD(s.FD())
				if err != nil {
					r.t.Errorf("fd after migration: %v", err)
					return
				}
				echo(r, ctx, th, ms)
				r.sample()
				switch then {
				case "crash":
					ctx.Sleep(200_000)
					np.Signal(ctx, host.SIGKILL)
					return
				case "source-host-death":
					r.ma.Stop()
					delete(r.mons, "hostA") // the casualty keeps what it had
					for i := 0; i < 160 && r.mb.MemberState("hostA") != monitor.MemberDead; i++ {
						ctx.Sleep(25_000_000)
					}
					if r.mb.MemberState("hostA") != monitor.MemberDead {
						r.t.Error("hostA was never confirmed dead")
					}
					echo(r, ctx, th, ms)
				}
				ms.Close(ctx, th)
			})
		})
	}
}

// restartRow: a monitor restarts under an established connection, the
// processes re-register it, it carries on and both ends close.
func restartRow(inter bool, restart string) func(*recWorld) {
	return func(r *recWorld) {
		sh, dst := r.hosts(inter)
		sp, sl := proc(r.t, sh, "server", 0)
		cp, cl := proc(r.t, r.a, "client", 1000)
		sp.Spawn("srv", acceptOne(r, sl, 7909, func(ctx exec.Context, th *host.Thread, s *core.Socket) {
			serveEcho(r, ctx, th, s, 2)
			untilEnd(ctx, th, s)
			s.Close(ctx, th)
		}))
		cp.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
			ctx.Sleep(10_000)
			s := dialEcho(r, ctx, th, cl, dst, 7909)
			if s == nil {
				return
			}
			h := r.a
			if restart == "hostB" {
				h = r.b
			}
			next := monitor.Restart(h)
			r.mons[restart] = next
			ctx.Sleep(5_000_000) // the re-registration reports are in
			if next.LiveConnRecords() == 0 {
				r.t.Error("the restarted monitor heard of no connection")
			}
			r.sample()
			echo(r, ctx, th, s)
			s.Close(ctx, th)
		})
	}
}

// recoveryRow: the connection's QP dies mid-stream and is replaced through
// KReQP / KReQPPeer; the stream goes on and both ends close.
func recoveryRow(r *recWorld) {
	sp, sl := proc(r.t, r.b, "server", 0)
	cp, cl := proc(r.t, r.a, "client", 1000)
	sp.Spawn("srv", acceptOne(r, sl, 7910, func(ctx exec.Context, th *host.Thread, s *core.Socket) {
		serveEcho(r, ctx, th, s, 2)
		untilEnd(ctx, th, s)
		s.Close(ctx, th)
	}))
	cp.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
		ctx.Sleep(10_000)
		s := dialEcho(r, ctx, th, cl, "hostB", 7910)
		if s == nil {
			return
		}
		w0 := readWire()
		s.FailQP()
		echo(r, ctx, th, s)
		if d := readWire().since(w0); d.recoveries != 1 {
			r.t.Errorf("%d recoveries, want 1", d.recoveries)
		}
		r.sample()
		s.Close(ctx, th)
	})
}

// TestMonitorRecordsReturnToBaseline is the teardown table: every way a
// connection can end leaves every monitor with the connection records it had
// before the dial, and with nothing that refers to a dead process.
func TestMonitorRecordsReturnToBaseline(t *testing.T) {
	rows := []struct {
		name string
		run  func(*recWorld)
	}{
		{"close/intra/client-first", closeRow(false, true)},
		{"close/intra/server-first", closeRow(false, false)},
		{"close/inter/client-first", closeRow(true, true)},
		{"close/inter/server-first", closeRow(true, false)},
		{"refused/intra", refusedRow(false)},
		{"refused/inter", refusedRow(true)},
		{"abandoned-dial", abandonedRow},
		{"stolen-accept", stolenRow},
		{"client-crash/intra", crashRow(false, true)},
		{"client-crash/inter", crashRow(true, true)},
		{"server-crash/intra", crashRow(false, false)},
		{"server-crash/inter", crashRow(true, false)},
		{"both-crash/contested-token", contestedRow},
		{"both-crash/inter-client-then-server", bothCrashInterRow},
		{"host-death-sweep-then-owner-crash", hostDeathRow},
		{"migrate-detach", migrateRow("detach")},
		{"migrate-then-crash", migrateRow("crash")},
		{"migrate-then-source-host-death", migrateRow("source-host-death")},
		{"monitor-restart/intra", restartRow(false, "hostA")},
		{"monitor-restart/inter-client-side", restartRow(true, "hostA")},
		{"monitor-restart/inter-server-side", restartRow(true, "hostB")},
		{"qp-recovery", recoveryRow},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			w := newWorld(t)
			monitor.Peer(w.ma, w.mb)
			r := &recWorld{world: w, t: t, mons: map[string]*monitor.Monitor{"hostA": w.ma, "hostB": w.mb}}
			for name, m := range r.mons {
				if n := m.LiveConnRecords(); n != 0 {
					t.Fatalf("%s: %d records before any dial", name, n)
				}
			}
			row.run(r)
			w.sim.Run()
			if r.peak == 0 {
				t.Error("no monitor held a record mid-run: the row proves nothing")
			}
			for name, m := range r.mons {
				if n := m.LiveConnRecords(); n != 0 {
					t.Errorf("%s: %d connection records left, want the 0 from before the dial", name, n)
				}
				if err := m.CrashConverged(); err != nil {
					t.Errorf("%s: %v", name, err)
				}
			}
		})
	}
}

// TestCrashCleanupOrderRepeats: a client holding 12 intra-host connections
// is killed. The monitor tells the twelve servers one after the other — 2 000
// sim-ns apart when each is a process of its own, in one batch of wake-ups
// when they are threads of one — so the order it goes in shows in when each
// sees its reset: it must be the connections' order, the same every run, not
// a map's.
func TestCrashCleanupOrderRepeats(t *testing.T) {
	const conns = 12
	run := func(t *testing.T, oneProc bool) string {
		w := newWorld(t)
		cp, cl := proc(t, w.a, "client", 1000)
		sp0, sl0 := proc(t, w.a, "server", 0)
		var resets []string
		for i := 0; i < conns; i++ {
			sp, sl := sp0, sl0
			if !oneProc && i > 0 {
				sp, sl = proc(t, w.a, fmt.Sprintf("server%d", i), 0)
			}
			sp.Spawn(fmt.Sprintf("srv%d", i), func(ctx exec.Context, th *host.Thread) {
				lst, err := sl.ListenOn(ctx, th, uint16(7920+i))
				if err != nil {
					t.Errorf("listen %d: %v", i, err)
					return
				}
				s, _, err := lst.Accept(ctx)
				if err != nil {
					t.Errorf("accept %d: %v", i, err)
					return
				}
				if err := untilEnd(ctx, th, s); !errors.Is(err, core.ECONNRESET) {
					t.Errorf("server %d: %v, want ECONNRESET", i, err)
				}
				resets = append(resets, fmt.Sprintf("%d@%d", i, ctx.Now()))
				s.Close(ctx, th)
			})
		}
		cp.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
			ctx.Sleep(100_000)
			for i := 0; i < conns; i++ {
				if _, _, err := cl.Connect(ctx, th, "hostA", uint16(7920+i)); err != nil {
					t.Errorf("connect %d: %v", i, err)
				}
			}
			ctx.Sleep(400_000) // every server is parked on its empty ring
			cp.Signal(ctx, host.SIGKILL)
		})
		w.sim.Run()
		if len(resets) != conns {
			t.Fatalf("%d of %d servers saw the reset", len(resets), conns)
		}
		return strings.Join(resets, " ")
	}
	for _, tc := range []struct {
		name    string
		oneProc bool
	}{{"twelve-processes", false}, {"twelve-threads", true}} {
		t.Run(tc.name, func(t *testing.T) {
			first := run(t, tc.oneProc)
			for i := 1; i < 30; i++ {
				if again := run(t, tc.oneProc); again != first {
					t.Fatalf("run %d reset the servers in another order or at other times:\n  %s\n  %s", i, first, again)
				}
			}
			t.Log(first)
		})
	}
}
