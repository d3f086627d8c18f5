package core_test

import (
	"fmt"
	"testing"

	"socksdirect/internal/core"
	"socksdirect/internal/exec"
	"socksdirect/internal/host"
	"socksdirect/internal/mem"
	"socksdirect/internal/monitor"
	"socksdirect/internal/telemetry"
)

// More inputs to the boundary goldens: the errno table of libsd's blocking
// waits (ARCHITECTURE.md "Blocking"). One scenario per wait site and exit
// that the scenarios of boundary_test.go do not reach: O_NONBLOCK and a
// deadline where each applies, the thread's own death, the peer's, monitor
// silence, a monitor restart mid-wait. Each logs the errno and the time the
// wait ended at and, as its last line, how far sd/core/ewouldblock,
// sd/core/deadline_timeouts and sd/core/resets moved.

// exitCounts is the three counters an exit may move.
type exitCounts struct{ wouldblock, timeouts, resets int64 }

func readExits() exitCounts {
	return exitCounts{
		telemetry.C(telemetry.CoreEWouldBlock).Load(),
		telemetry.C(telemetry.CoreDeadlineTimeouts).Load(),
		telemetry.C(telemetry.CoreResets).Load(),
	}
}

// at runs fn at virtual time when, on a thread of no process.
func at(w *world, when int64, fn func(ctx exec.Context)) {
	w.sim.Spawn("at", func(ctx exec.Context) {
		ctx.Sleep(when - ctx.Now())
		fn(ctx)
	})
}

// killAt kills the processes at virtual time when: what ends a scenario whose
// waiters would poll for ever, and the exit under test of the ones that kill
// the waiter or its peer.
func killAt(w *world, b *blog, when int64, ps ...*host.Process) {
	at(w, when, func(ctx exec.Context) {
		for _, p := range ps {
			p.Signal(ctx, host.SIGKILL)
			b.at(ctx, "killed %s", p.Name)
		}
	})
}

// zcTail leaves the server's thread A, from 20 µs, waiting for the tail of a
// zero-copy message whose descriptor came and whose tail never does, and runs
// also on the server's socket, from 40 µs, on a second thread B. The tail
// wait holds the receive token and gives it to nobody, so B waits for its
// takeover. prep runs on A before the RecvVA.
func zcTail(t *testing.T, w *world, b *blog,
	prep func(ctx exec.Context, s *core.Socket),
	also func(ctx exec.Context, th *host.Thread, s *core.Socket)) (sp, cp *host.Process) {
	const whole = 4 * mem.PageSize
	return connected(t, w, false, 7630,
		func(ctx exec.Context, th *host.Thread, s *core.Socket) {
			if also != nil {
				th.Proc.Spawn("B", func(ctx2 exec.Context, th2 *host.Thread) {
					ctx2.Sleep(40_000 - ctx2.Now())
					also(ctx2, th2, s)
				})
			}
			ctx.Sleep(20_000 - ctx.Now())
			if prep != nil {
				prep(ctx, s)
			}
			dst := th.Proc.AS.Alloc(2 * whole)
			n, err := s.RecvVA(ctx, th, dst, 2*whole)
			b.at(ctx, "A recvVA %d %s", n, errName(err))
		},
		func(ctx exec.Context, th *host.Thread, s *core.Socket) {
			err := s.SendZCHead(ctx, th, th.Proc.AS.Alloc(whole), whole, 100)
			b.at(ctx, "zc head sent %s", errName(err))
		})
}

// recvB is B's half of the token scenarios: one Recv.
func recvB(b *blog) func(exec.Context, *host.Thread, *core.Socket) {
	return func(ctx exec.Context, th *host.Thread, s *core.Socket) {
		_, err := s.Recv(ctx, th, make([]byte, 8))
		b.at(ctx, "B recv %s", errName(err))
	}
}

// fullRing fills the send ring of the client's end of a connection whose
// server never reads, and logs how the send that blocks ends.
func fullRing(t *testing.T, w *world, b *blog, inter bool, prep func(ctx exec.Context, s *core.Socket)) (sp, cp *host.Process) {
	return connected(t, w, inter, 7631, nil,
		func(ctx exec.Context, th *host.Thread, s *core.Socket) {
			if prep != nil {
				prep(ctx, s)
			}
			buf := make([]byte, 8192)
			for i := 0; ; i++ {
				if _, err := s.Send(ctx, th, buf); err != nil {
					b.at(ctx, "send %d %s", i, errName(err))
					return
				}
			}
		})
}

// poolDry sends, zero-copy and across hosts, half a pool more than the
// receiver's pool holds to a server that never reads: the third chunk waits
// for slots.
func poolDry(t *testing.T, w *world, b *blog, prep func(ctx exec.Context, s *core.Socket)) (sp, cp *host.Process) {
	const n = 3 * core.ZCPoolPages / 2 * mem.PageSize
	return connected(t, w, true, 7632, nil,
		func(ctx exec.Context, th *host.Thread, s *core.Socket) {
			if prep != nil {
				prep(ctx, s)
			}
			src := th.Proc.AS.Alloc(n)
			_, err := s.SendVA(ctx, th, src, n)
			b.at(ctx, "sendVA %s", errName(err))
		})
}

// unaccepted dials, at 10 µs, a server that listens and never accepts: the
// dial's answer comes and the Fig. 6 ACK does not, so the dial sits in
// Wait-Server.
func unaccepted(t *testing.T, w *world, b *blog, deadline int64) (sp, cp *host.Process) {
	sp, sl := proc(t, w.a, "server", 0)
	cp, cl := proc(t, w.a, "client", 0)
	sp.Spawn("srv", func(ctx exec.Context, th *host.Thread) {
		_, err := sl.ListenOn(ctx, th, 7633)
		b.at(ctx, "listen %s", errName(err))
	})
	cp.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
		ctx.Sleep(10_000)
		_, _, err := cl.ConnectDeadline(ctx, th, "hostA", 7633, deadline)
		b.at(ctx, "connect %s", errName(err))
	})
	return sp, cp
}

// forked connects across hosts, forks the client at 300 µs and has the child
// send on the inherited socket at 310 µs: its first use, which asks the
// monitors for a QP of its own (§4.1.2) and waits for the splice.
func forked(t *testing.T, w *world, b *blog, child **host.Process) (sp, cp *host.Process) {
	return connected(t, w, true, 7634,
		func(ctx exec.Context, th *host.Thread, s *core.Socket) {
			n, err := s.Recv(ctx, th, make([]byte, 8))
			b.at(ctx, "server recv %d %s", n, errName(err))
		},
		func(ctx exec.Context, th *host.Thread, s *core.Socket) {
			ctx.Sleep(300_000 - ctx.Now())
			cp, cl, err := th.Proc.Libsd.(*core.Libsd).Fork(ctx, th, "child")
			b.at(ctx, "fork %s", errName(err))
			if err != nil {
				return
			}
			*child = cp
			cp.Spawn("cmain", func(ctx2 exec.Context, th2 *host.Thread) {
				ctx2.Sleep(310_000 - ctx2.Now())
				cs, _ := cl.SocketByFD(s.FD())
				_, err := cs.Send(ctx2, th2, []byte("8 bytes!"))
				b.at(ctx2, "child send %s", errName(err))
			})
		})
}

var exitScenarios = []boundaryScenario{
	// O_NONBLOCK and the deadline at the would-block points that the recv
	// and accept deadline scenarios leave: a full send ring, an empty
	// receive ring, an empty backlog, a zero-copy pool with no slot free.
	{"send-full-nonblock", func(t *testing.T, w *world, b *blog) {
		sp, cp := fullRing(t, w, b, false, func(ctx exec.Context, s *core.Socket) { s.SetNonblock(true) })
		killAt(w, b, 100_000, sp, cp)
	}},
	{"send-full-deadline", func(t *testing.T, w *world, b *blog) {
		sp, cp := fullRing(t, w, b, true, func(ctx exec.Context, s *core.Socket) { s.SetSendDeadline(ctx.Now() + 50_000) })
		killAt(w, b, 400_000, sp, cp)
	}},
	{"recv-empty-nonblock", func(t *testing.T, w *world, b *blog) {
		connected(t, w, false, 7635, nil,
			func(ctx exec.Context, th *host.Thread, s *core.Socket) {
				s.SetNonblock(true)
				_, err := s.Recv(ctx, th, make([]byte, 8))
				b.at(ctx, "recv %s", errName(err))
			})
	}},
	{"accept-empty-nonblock", func(t *testing.T, w *world, b *blog) {
		p, l := proc(t, w.a, "server", 0)
		p.Spawn("srv", func(ctx exec.Context, th *host.Thread) {
			lst, err := l.ListenOn(ctx, th, 7636)
			b.at(ctx, "listen %s", errName(err))
			lst.SetNonblock(true)
			_, _, err = lst.Accept(ctx)
			b.at(ctx, "accept %s", errName(err))
		})
	}},
	{"zc-pool-nonblock", func(t *testing.T, w *world, b *blog) {
		sp, cp := poolDry(t, w, b, func(ctx exec.Context, s *core.Socket) { s.SetNonblock(true) })
		killAt(w, b, 600_000, sp, cp)
	}},
	{"zc-pool-deadline", func(t *testing.T, w *world, b *blog) {
		sp, cp := poolDry(t, w, b, func(ctx exec.Context, s *core.Socket) { s.SetSendDeadline(ctx.Now() + 400_000) })
		killAt(w, b, 900_000, sp, cp)
	}},
	// The tail of a zero-copy message honours the deadline, and returns the
	// pages it has, but not O_NONBLOCK: shedding there would tear the
	// message.
	{"zc-tail-deadline", func(t *testing.T, w *world, b *blog) {
		zcTail(t, w, b, func(ctx exec.Context, s *core.Socket) {
			s.SetNonblock(true)
			s.SetRecvDeadline(ctx.Now() + 50_000)
		}, nil)
	}},

	// The takeover of a token held by a thread that will not give it up.
	{"token-nonblock", func(t *testing.T, w *world, b *blog) {
		sp, cp := zcTail(t, w, b, func(ctx exec.Context, s *core.Socket) { s.SetNonblock(true) }, recvB(b))
		killAt(w, b, 100_000, sp, cp)
	}},
	{"token-deadline", func(t *testing.T, w *world, b *blog) { // one deadline, two waits under it
		zcTail(t, w, b, func(ctx exec.Context, s *core.Socket) { s.SetRecvDeadline(ctx.Now() + 50_000) }, recvB(b))
	}},
	{"token-asks-again", func(t *testing.T, w *world, b *blog) { // every tokenAskAgain: three ctl/takeover in 5 ms
		sp, cp := zcTail(t, w, b, nil, recvB(b))
		killAt(w, b, 5_000_000, sp, cp)
	}},
	{"token-silence", func(t *testing.T, w *world, b *blog) {
		sp, cp := zcTail(t, w, b, nil, recvB(b))
		at(w, 50_000, func(exec.Context) { w.ma.Stop() })
		killAt(w, b, 12_000_000, sp, cp)
	}},

	// The waiter's own death and its peer's, site by site (a Recv's are the
	// sigkill-* scenarios).
	{"token-self-dies", func(t *testing.T, w *world, b *blog) {
		sp, cp := zcTail(t, w, b, nil, recvB(b))
		killAt(w, b, 60_000, sp, cp)
	}},
	{"token-peer-dies", func(t *testing.T, w *world, b *blog) { // and the tail wait's: one reset between them
		sp, cp := zcTail(t, w, b, nil, recvB(b))
		killAt(w, b, 60_000, cp)
		killAt(w, b, 100_000, sp)
	}},
	{"send-full-self-dies", func(t *testing.T, w *world, b *blog) {
		sp, cp := fullRing(t, w, b, true, nil)
		killAt(w, b, 400_000, cp, sp)
	}},
	{"send-full-peer-dies", func(t *testing.T, w *world, b *blog) {
		sp, cp := fullRing(t, w, b, false, nil)
		killAt(w, b, 60_000, sp)
		killAt(w, b, 100_000, cp)
	}},
	{"zc-pool-self-dies", func(t *testing.T, w *world, b *blog) {
		sp, cp := poolDry(t, w, b, nil)
		killAt(w, b, 600_000, cp, sp)
	}},
	{"zc-pool-peer-dies", func(t *testing.T, w *world, b *blog) {
		sp, cp := poolDry(t, w, b, nil)
		killAt(w, b, 600_000, sp)
		killAt(w, b, 900_000, cp)
	}},
	{"epoll-self-dies", func(t *testing.T, w *world, b *blog) {
		sp, cp := connected(t, w, false, 7637, nil,
			func(ctx exec.Context, th *host.Thread, s *core.Socket) {
				ep := th.Proc.Libsd.(*core.Libsd).NewEpoll()
				ep.Add(s.FD(), core.EPOLLIN)
				n, err := ep.Wait(ctx, make([]core.Event, 4))
				b.at(ctx, "epoll %d %s", n, errName(err))
			})
		killAt(w, b, 60_000, cp, sp)
	}},
	{"accept-self-dies", func(t *testing.T, w *world, b *blog) { // one still polling, one parked
		for i, when := range []int64{30_000, 200_000} {
			p, l := proc(t, w.a, fmt.Sprintf("server%d", i), 0)
			p.Spawn("srv", func(ctx exec.Context, th *host.Thread) {
				lst, _ := l.ListenOn(ctx, th, uint16(7640+i))
				_, _, err := lst.Accept(ctx)
				b.at(ctx, "%s accept %s", p.Name, errName(err))
			})
			killAt(w, b, when, p)
		}
	}},
	{"ack-deadline", func(t *testing.T, w *world, b *blog) {
		unaccepted(t, w, b, 60_000)
	}},
	{"ack-peer-dies", func(t *testing.T, w *world, b *blog) {
		sp, _ := unaccepted(t, w, b, 0)
		killAt(w, b, 60_000, sp)
	}},
	{"ack-self-dies", func(t *testing.T, w *world, b *blog) {
		sp, cp := unaccepted(t, w, b, 0)
		killAt(w, b, 60_000, cp, sp)
	}},

	// Control waits against a monitor that says nothing (a dial's is
	// ctl-silence), or with the waiter killed meanwhile.
	{"listen-silence", func(t *testing.T, w *world, b *blog) {
		p, l := proc(t, w.a, "server", 0)
		w.ma.Stop()
		p.Spawn("srv", func(ctx exec.Context, th *host.Thread) {
			ctx.Sleep(10_000)
			_, err := l.ListenOn(ctx, th, 7650)
			b.at(ctx, "listen %s", errName(err))
		})
	}},
	{"fork-silence", func(t *testing.T, w *world, b *blog) {
		p, l := proc(t, w.a, "parent", 0)
		w.ma.Stop()
		p.Spawn("main", func(ctx exec.Context, th *host.Thread) {
			ctx.Sleep(10_000)
			_, _, err := l.Fork(ctx, th, "child")
			b.at(ctx, "fork %s", errName(err))
		})
	}},
	{"ctl-self-dies", func(t *testing.T, w *world, b *blog) { // in bind, dial and fork
		w.ma.Stop()
		var ps []*host.Process
		for i, op := range []func(exec.Context, *host.Thread, *core.Libsd) error{
			func(ctx exec.Context, th *host.Thread, l *core.Libsd) error {
				_, err := l.ListenOn(ctx, th, 7651)
				return err
			},
			func(ctx exec.Context, th *host.Thread, l *core.Libsd) error {
				_, _, err := l.Connect(ctx, th, "hostA", 7651)
				return err
			},
			func(ctx exec.Context, th *host.Thread, l *core.Libsd) error {
				_, _, err := l.Fork(ctx, th, "child")
				return err
			},
		} {
			p, l := proc(t, w.a, fmt.Sprintf("p%d", i), 0)
			ps = append(ps, p)
			p.Spawn("main", func(ctx exec.Context, th *host.Thread) {
				ctx.Sleep(10_000)
				b.at(ctx, "%s %s", p.Name, errName(op(ctx, th, l)))
			})
		}
		killAt(w, b, 1_000_000, ps...)
	}},

	// The child's first QP is spliced as a recovery is: a silent request is
	// abandoned at its attempt deadline and sent again after the backoff —
	// here until a successor, 25 ms later, answers — and the child's death
	// or the peer's ends the send around it.
	{"splice-silence", func(t *testing.T, w *world, b *blog) {
		var child *host.Process
		forked(t, w, b, &child)
		at(w, 320_000, func(exec.Context) { w.ma.Stop() }) // the child has the token and is creating its QP
		at(w, 25_000_000, func(exec.Context) { monitor.Restart(w.a) })
	}},
	{"splice-self-dies", func(t *testing.T, w *world, b *blog) {
		var child *host.Process
		sp, cp := forked(t, w, b, &child)
		at(w, 320_000, func(exec.Context) { w.ma.Stop() })
		at(w, 1_000_000, func(ctx exec.Context) {
			child.Signal(ctx, host.SIGKILL)
			b.at(ctx, "killed child")
		})
		killAt(w, b, 1_100_000, cp, sp)
	}},
	{"splice-peer-dies", func(t *testing.T, w *world, b *blog) {
		var child *host.Process
		sp, cp := forked(t, w, b, &child)
		killAt(w, b, 320_000, sp)
		killAt(w, b, 20_000_000, cp)
	}},

	// A monitor restarted mid-wait: the request goes out again, once, to the
	// successor — the steal hint of a listener polling in Accept (a second
	// ctl/accept_hint in the trace), the SYN of a dial (a second ctl/connect).
	{"accept-epoch-rehint", func(t *testing.T, w *world, b *blog) {
		p, l := proc(t, w.a, "server", 0)
		p.Spawn("srv", func(ctx exec.Context, th *host.Thread) {
			lst, err := l.ListenOn(ctx, th, 7652)
			b.at(ctx, "listen %s", errName(err))
			lst.SetDeadline(80_000)
			_, _, err = lst.Accept(ctx)
			b.at(ctx, "accept %s", errName(err))
		})
		at(w, 40_000, func(exec.Context) { monitor.Restart(w.a) })
	}},
	{"dial-epoch-resend", func(t *testing.T, w *world, b *blog) {
		monitor.Peer(w.ma, w.mb)
		p, l := proc(t, w.a, "client", 0)
		p.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
			ctx.Sleep(20_000)
			w.mb.Stop()
			_, _, err := l.ConnectDeadline(ctx, th, "hostB", 7653, 3_000_000)
			b.at(ctx, "connect %s", errName(err))
		})
		at(w, 1_000_000, func(exec.Context) { monitor.Restart(w.a) })
	}},

	// A listener parked in Accept is woken for a SYN while a sibling thread
	// of its process is parked in Recv: a parked thread is outside the
	// library, so the signal handler runs (§4.4 challenge 2). With the Recv
	// parked inside, the first dial ended at its deadline and the second
	// never.
	{"accept-sibling-in-recv", func(t *testing.T, w *world, b *blog) {
		sp, sl := proc(t, w.a, "server", 0)
		cp, cl := proc(t, w.a, "client", 0)
		sp.Spawn("srv", func(ctx exec.Context, th *host.Thread) {
			lst, _ := sl.ListenOn(ctx, th, 7654)
			for i := 0; i < 3; i++ {
				s, _, err := lst.Accept(ctx)
				b.at(ctx, "accept %d %s", i, errName(err))
				if i == 0 {
					th.Proc.Spawn("sibling", func(ctx2 exec.Context, th2 *host.Thread) {
						_, err := s.Recv(ctx2, th2, make([]byte, 8))
						b.at(ctx2, "sibling recv %s", errName(err))
					})
				}
			}
		})
		cp.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
			ctx.Sleep(10_000)
			for i, d := range []int64{0, 50_000_000, 0} {
				if i > 0 {
					ctx.Sleep(5_000_000) // both server threads are parked by now
				}
				if d != 0 {
					d += ctx.Now()
				}
				t0 := ctx.Now()
				_, _, err := cl.ConnectDeadline(ctx, th, "hostA", 7654, d)
				b.at(ctx, "dial %d %s after %d", i, errName(err), ctx.Now()-t0)
			}
			sp.Signal(ctx, host.SIGKILL)
		})
	}},
}
