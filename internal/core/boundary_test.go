package core_test

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"testing"

	"socksdirect/internal/core"
	"socksdirect/internal/exec"
	"socksdirect/internal/host"
	"socksdirect/internal/mem"
	"socksdirect/internal/monitor"
	"socksdirect/internal/obs"
	"socksdirect/internal/telemetry"
)

// Boundary goldens: the exact virtual times at which the stack's blocking
// waits leave their polling phase — by deadline, by the 4 096-poll switch
// to interrupt mode, by the control wait's ping interval and silence limit,
// by a token revocation, a SIGKILL or a credit return arriving mid-wait. A
// poll loop whose idle predicate misses one of its body's conditions, or
// counts its iterations differently, moves a line here.
//
// The goldens live in testdata/boundary.golden; -update-boundary rewrites
// it, which is only ever right on a commit whose virtual times are the
// reference.
//
// Each scenario logs what its threads observe (operation, result, the
// thread's clock), then every control message the monitors handled with
// its time (the tracer's "ctl/" and "remote/" events), then the time the
// run ended: with nothing else to do, that is when the last daemon loop
// parked.

// boundaryWorld is newWorld bounded at one virtual second: no scenario
// runs that long, and one that does is a wait that does not end.
func boundaryWorld(t *testing.T) *world {
	return newWorldCfg(t, exec.SimConfig{MaxVirtualTime: 1_000_000_000})
}

type blog struct{ lines []string }

func (b *blog) at(ctx exec.Context, format string, args ...any) {
	b.lines = append(b.lines, fmt.Sprintf("%s @%d", fmt.Sprintf(format, args...), ctx.Now()))
}

// errName keeps the goldens readable and independent of error strings.
func errName(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, core.ETIMEDOUT):
		return "ETIMEDOUT"
	case errors.Is(err, core.ECONNRESET):
		return "ECONNRESET"
	case errors.Is(err, core.ErrProcessKilled):
		return "killed"
	case errors.Is(err, core.EWOULDBLOCK):
		return "EWOULDBLOCK"
	case errors.Is(err, core.EAGAIN):
		return "EAGAIN"
	case errors.Is(err, core.EPIPE):
		return "EPIPE"
	case err == io.EOF:
		return "EOF"
	case errors.Is(err, mem.ErrUnmapped):
		return "unmapped"
	}
	return err.Error()
}

// connected runs srv and cli on the two ends of one connection, intra-host
// (both on hostA) or inter-host (server on hostB); the client dials at
// 10 µs. Either may be nil. It returns the two processes for scenarios that
// kill one.
func connected(t testing.TB, w *world, inter bool, port uint16,
	srv, cli func(ctx exec.Context, th *host.Thread, s *core.Socket)) (sp, cp *host.Process) {
	sh, dst := w.a, "hostA"
	if inter {
		monitor.Peer(w.ma, w.mb)
		sh, dst = w.b, "hostB"
	}
	sp, sl := proc(t, sh, "server", 0)
	cp, cl := proc(t, w.a, "client", 0)
	sp.Spawn("srv", func(ctx exec.Context, th *host.Thread) {
		lst, err := sl.ListenOn(ctx, th, port)
		if err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		s, _, err := lst.Accept(ctx)
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		if srv != nil {
			srv(ctx, th, s)
		}
	})
	cp.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
		ctx.Sleep(10_000)
		s, _, err := cl.Connect(ctx, th, dst, port)
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		if cli != nil {
			cli(ctx, th, s)
		}
	})
	return sp, cp
}

type boundaryScenario struct {
	name string
	run  func(t *testing.T, w *world, b *blog)
}

var boundaryScenarios = []boundaryScenario{
	// Recv deadlines: one inside the polling phase, one past the 4 096
	// empty polls (the park, counted in sd/core/recv_sleeps, is the switch
	// to interrupt mode; the deadline's timer ends it).
	{"recv-deadline-intra", func(t *testing.T, w *world, b *blog) { recvDeadlines(t, w, b, false) }},
	{"recv-deadline-inter", func(t *testing.T, w *world, b *blog) { recvDeadlines(t, w, b, true) }},

	// Accept deadlines, likewise; the long one parks on the backlog's
	// wait queue.
	{"accept-deadline", func(t *testing.T, w *world, b *blog) {
		p, l := proc(t, w.a, "server", 0)
		p.Spawn("srv", func(ctx exec.Context, th *host.Thread) {
			lst, err := l.ListenOn(ctx, th, 7601)
			b.at(ctx, "listen %s", errName(err))
			for _, d := range []int64{30_000, 400_000} {
				lst.SetDeadline(ctx.Now() + d)
				_, _, err := lst.Accept(ctx)
				b.at(ctx, "accept +%d %s", d, errName(err))
			}
		})
	}},

	// Control waits: a dial polls for its answer, 2.3 µs away on one host,
	// a QP creation or more across two.
	{"connect-intra", func(t *testing.T, w *world, b *blog) { dials(t, w, b, false) }},
	{"connect-inter", func(t *testing.T, w *world, b *blog) { dials(t, w, b, true) }},
	// The awaited answer dispatched by another thread's poll: a sibling
	// blocked in Recv polls the process's control queues too, and two
	// dials in flight drain each other's. Either way the waiter's own
	// queues stay empty while what it waits for happens.
	{"connect-sibling-polls", func(t *testing.T, w *world, b *blog) {
		_, sl := proc(t, w.a, "server", 0)
		sl.P.Spawn("srv", echoServer(t, sl, 7611))
		connected(t, w, false, 7614, nil,
			func(ctx exec.Context, th *host.Thread, s *core.Socket) {
				cl := th.Proc.Libsd.(*core.Libsd)
				for i := 0; i < 2; i++ {
					th.Proc.Spawn(fmt.Sprintf("dialer%d", i), func(ctx2 exec.Context, th2 *host.Thread) {
						ctx2.Sleep(50_000 - ctx2.Now())
						for j := 0; j < 3; j++ {
							dial, echo := echoOnce(t, ctx2, th2, cl, "hostA", 7611)
							b.at(ctx2, "%s dial %d echo %d closed", th2.H.Name(), dial, echo)
						}
					})
				}
				s.SetRecvDeadline(120_000)
				_, err := s.Recv(ctx, th, make([]byte, 8))
				b.at(ctx, "recv %s", errName(err))
			})
	}},
	// No monitor at all: the wait ends at ctlDeadAfter of silence.
	{"ctl-silence", func(t *testing.T, w *world, b *blog) {
		p, l := proc(t, w.a, "client", 0)
		p.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
			ctx.Sleep(50_000)
			w.ma.Stop()
			ctx.Sleep(50_000)
			_, _, err := l.Connect(ctx, th, "hostA", 7602)
			b.at(ctx, "connect %s", errName(err))
		})
	}},
	// A live local monitor and a peer that never answers: the wait pings
	// every ctlPingEvery (the KPings in the trace) until the dial's own
	// deadline ends it.
	{"ctl-pings", func(t *testing.T, w *world, b *blog) {
		monitor.Peer(w.ma, w.mb)
		p, l := proc(t, w.a, "client", 0)
		p.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
			ctx.Sleep(50_000)
			w.mb.Stop()
			ctx.Sleep(50_000)
			_, _, err := l.ConnectDeadline(ctx, th, "hostB", 7603, ctx.Now()+7_000_000)
			b.at(ctx, "connect %s", errName(err))
		})
	}},

	// The daemons alone: one Listen, then the router and the four shard
	// loops park after their first empty pass; the run ends there.
	{"daemon-park", func(t *testing.T, w *world, b *blog) {
		p, l := proc(t, w.a, "server", 0)
		p.Spawn("srv", func(ctx exec.Context, th *host.Thread) {
			ctx.Sleep(25_000)
			_, err := l.ListenOn(ctx, th, 7604)
			b.at(ctx, "listen %s", errName(err))
		})
	}},

	// A second thread asks for the receive token while the first is
	// blocked in Recv: the revocation arrives mid-wait, and the two then
	// pass the token back and forth through the monitor until data comes.
	{"token-revoke-midwait", func(t *testing.T, w *world, b *blog) {
		connected(t, w, false, 7605,
			func(ctx exec.Context, th *host.Thread, s *core.Socket) {
				for _, at := range []int64{75_000, 90_000} {
					ctx.Sleep(at - ctx.Now())
					_, err := s.Send(ctx, th, []byte("8 bytes!"))
					b.at(ctx, "send %s", errName(err))
				}
			},
			func(ctx exec.Context, th *host.Thread, s *core.Socket) {
				th.Proc.Spawn("cli2", func(ctx2 exec.Context, th2 *host.Thread) {
					ctx2.Sleep(60_000 - ctx2.Now())
					n, err := s.Recv(ctx2, th2, make([]byte, 8))
					b.at(ctx2, "cli2 recv %d %s", n, errName(err))
				})
				n, err := s.Recv(ctx, th, make([]byte, 8))
				b.at(ctx, "cli recv %d %s", n, errName(err))
			})
	}},

	// SIGKILL mid-wait: of the waiting process itself, and of its peer.
	{"sigkill-self-intra", func(t *testing.T, w *world, b *blog) { sigkill(t, w, b, false, false) }},
	{"sigkill-peer-intra", func(t *testing.T, w *world, b *blog) { sigkill(t, w, b, false, true) }},
	{"sigkill-self-inter", func(t *testing.T, w *world, b *blog) { sigkill(t, w, b, true, false) }},
	{"sigkill-peer-inter", func(t *testing.T, w *world, b *blog) { sigkill(t, w, b, true, true) }},

	// A sender blocked on a full ring, released when the receiver starts
	// reading and returns credits.
	{"ring-full-intra", func(t *testing.T, w *world, b *blog) { ringFull(t, w, b, false) }},
	{"ring-full-inter", func(t *testing.T, w *world, b *blog) { ringFull(t, w, b, true) }},

	// The same-shaped waits: a zero-copy send larger than the receiver's
	// pool waiting for slot returns, and epoll waiting for a socket.
	{"zc-slot-wait", func(t *testing.T, w *world, b *blog) {
		const n = 2 * core.ZCPoolPages * mem.PageSize
		connected(t, w, true, 7606,
			func(ctx exec.Context, th *host.Thread, s *core.Socket) {
				dst := th.Proc.AS.Alloc(n)
				for rec := 0; rec < n; {
					m, err := s.RecvVA(ctx, th, dst+mem.VAddr(rec), n-rec)
					if err != nil {
						b.at(ctx, "recvVA %s", errName(err))
						return
					}
					rec += m
					ctx.Sleep(20_000) // a slow reader: slots come back late
				}
				b.at(ctx, "recvVA %d ok", n)
			},
			func(ctx exec.Context, th *host.Thread, s *core.Socket) {
				src := th.Proc.AS.Alloc(n)
				_, err := s.SendVA(ctx, th, src, n)
				b.at(ctx, "sendVA %s", errName(err))
			})
	}},
	{"epoll-wait", func(t *testing.T, w *world, b *blog) {
		connected(t, w, false, 7607,
			func(ctx exec.Context, th *host.Thread, s *core.Socket) {
				ctx.Sleep(150_000 - ctx.Now())
				_, err := s.Send(ctx, th, []byte("8 bytes!"))
				b.at(ctx, "send %s", errName(err))
			},
			func(ctx exec.Context, th *host.Thread, s *core.Socket) {
				ep := th.Proc.Libsd.(*core.Libsd).NewEpoll()
				ep.Add(s.FD(), core.EPOLLIN)
				n, err := ep.Wait(ctx, make([]core.Event, 4))
				b.at(ctx, "epoll %d %s", n, errName(err))
			})
	}},
}

func recvDeadlines(t *testing.T, w *world, b *blog, inter bool) {
	connected(t, w, inter, 7610, nil,
		func(ctx exec.Context, th *host.Thread, s *core.Socket) {
			b.at(ctx, "connected")
			sleeps := telemetry.C(telemetry.CoreRecvSleeps)
			for _, d := range []int64{20_000, 400_000} {
				s.SetRecvDeadline(ctx.Now() + d)
				parks := sleeps.Load()
				_, err := s.Recv(ctx, th, make([]byte, 8))
				b.at(ctx, "recv +%d %s, parked %d", d, errName(err), sleeps.Load()-parks)
			}
		})
}

func dials(t *testing.T, w *world, b *blog, inter bool) {
	dst, sh := "hostA", w.a
	if inter {
		monitor.Peer(w.ma, w.mb)
		dst, sh = "hostB", w.b
	}
	sp, sl := proc(t, sh, "server", 0)
	cp, cl := proc(t, w.a, "client", 1000)
	sp.Spawn("srv", echoServer(t, sl, 7611))
	cp.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
		ctx.Sleep(10_000)
		for i := 0; i < 4; i++ {
			dial, echo := echoOnce(t, ctx, th, cl, dst, 7611)
			b.at(ctx, "dial %d echo %d closed", dial, echo)
		}
		sp.Signal(ctx, host.SIGKILL)
	})
}

func sigkill(t *testing.T, w *world, b *blog, inter, peer bool) {
	connectedAt := int64(0)
	sp, cp := connected(t, w, inter, 7612, nil,
		func(ctx exec.Context, th *host.Thread, s *core.Socket) {
			connectedAt = ctx.Now()
			_, err := s.Recv(ctx, th, make([]byte, 8))
			b.at(ctx, "recv %s", errName(err))
		})
	victim := cp
	if peer {
		victim = sp
	}
	w.sim.Spawn("killer", func(ctx exec.Context) {
		for connectedAt == 0 {
			ctx.Sleep(1_000)
		}
		ctx.Sleep(connectedAt + 60_000 - ctx.Now()) // the receiver is mid-wait, still polling
		victim.Signal(ctx, host.SIGKILL)
		b.at(ctx, "killed %s", victim.Name)
	})
}

func ringFull(t *testing.T, w *world, b *blog, inter bool) {
	const msgs, size = 40, 8192 // 320 KiB through a 128 KiB ring
	connected(t, w, inter, 7613,
		func(ctx exec.Context, th *host.Thread, s *core.Socket) {
			ctx.Sleep(500_000 - ctx.Now())
			buf := make([]byte, size)
			for got := 0; got < msgs*size; {
				n, err := s.Recv(ctx, th, buf)
				if err != nil {
					b.at(ctx, "recv %s", errName(err))
					return
				}
				got += n
			}
			b.at(ctx, "received all")
		},
		func(ctx exec.Context, th *host.Thread, s *core.Socket) {
			buf := make([]byte, size)
			for i := 0; i < msgs; i++ {
				t0 := ctx.Now()
				_, err := s.Send(ctx, th, buf)
				if err != nil || ctx.Now()-t0 > 10_000 {
					b.at(ctx, "send %d blocked %d %s", i, ctx.Now()-t0, errName(err))
				}
			}
			b.at(ctx, "sent all")
		})
}

// runBoundary runs one scenario and returns its log; counted adds the line
// of exit counters (boundary_exits_test.go).
func runBoundary(t *testing.T, run func(*testing.T, *world, *blog), counted bool) string {
	obs.Reset()
	w := boundaryWorld(t)
	var b blog
	c0 := readExits()
	run(t, w, &b)
	end := func() int64 {
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("a wait that does not end: %v", r)
			}
		}()
		return w.sim.Run()
	}()
	// Events in emission order: each drew its Span from one counter.
	evs := obs.AllSpans()
	slices.SortFunc(evs, func(a, b obs.Span) int { return cmp.Compare(a.Span, b.Span) })
	for _, e := range evs {
		if c := e.Ev.Component(); e.Hop == obs.HopEvent && (c == "monitor" || c == "core") {
			b.lines = append(b.lines, fmt.Sprintf("  %s %s @%d", c, e.Name(), e.Start))
		}
	}
	b.lines = append(b.lines, fmt.Sprintf("end @%d", end))
	if c := readExits(); counted {
		b.lines = append(b.lines, fmt.Sprintf("ewouldblock +%d deadline_timeouts +%d resets +%d",
			c.wouldblock-c0.wouldblock, c.timeouts-c0.timeouts, c.resets-c0.resets))
	}
	return strings.Join(b.lines, "\n")
}

var updateBoundary = flag.Bool("update-boundary", false, "rewrite testdata/boundary.golden from this run")

const boundaryGolden = "testdata/boundary.golden"

func TestBoundaryGoldens(t *testing.T) {
	want := map[string]string{}
	if golden, err := os.ReadFile(boundaryGolden); err == nil {
		for _, sec := range strings.Split(string(golden), "== ")[1:] {
			name, body, _ := strings.Cut(sec, "\n")
			want[name] = strings.TrimSpace(body)
		}
	} else if !*updateBoundary {
		t.Fatal(err)
	}
	var all strings.Builder
	for i, sc := range append(boundaryScenarios, exitScenarios...) {
		t.Run(sc.name, func(t *testing.T) {
			got := runBoundary(t, sc.run, i >= len(boundaryScenarios))
			fmt.Fprintf(&all, "== %s\n%s\n", sc.name, got)
			if !*updateBoundary && got != want[sc.name] {
				t.Errorf("virtual time moved at a wait boundary; got:\n%s\nwant:\n%s", got, want[sc.name])
			}
		})
		delete(want, sc.name)
	}
	if *updateBoundary {
		if err := os.WriteFile(boundaryGolden, []byte(all.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for name := range want {
		t.Errorf("golden scenario %q no longer runs", name)
	}
}
