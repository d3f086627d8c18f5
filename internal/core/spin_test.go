package core_test

import (
	"errors"
	"runtime"
	"testing"

	"socksdirect/internal/core"
	"socksdirect/internal/costmodel"
	"socksdirect/internal/exec"
	"socksdirect/internal/host"
	"socksdirect/internal/monitor"
	"socksdirect/internal/obs"
)

// What a blocked wait costs the host: the scheduler plays the empty polls
// itself (exec.Context.Spin), so a thread is switched to when there is
// something for it to do, not once per simulated poll.

// TestBlockedRecvResumes: an inter-host 8-byte round trip is ~2 µs of
// simulated waiting, some 50 empty polls on each side. It cost 96 resumes
// when every poll was one; it may cost 20.
func TestBlockedRecvResumes(t *testing.T) {
	w := boundaryWorld(t)
	const warm, ops = 20, 200
	var resumes, played int64
	connected(t, w, true, 7620,
		func(ctx exec.Context, th *host.Thread, s *core.Socket) {
			buf := make([]byte, 8)
			for i := 0; i < warm+ops; i++ {
				if _, err := s.Recv(ctx, th, buf); err != nil {
					t.Errorf("server recv %d: %v", i, err)
					return
				}
				s.Send(ctx, th, buf)
			}
		},
		func(ctx exec.Context, th *host.Thread, s *core.Socket) {
			buf := make([]byte, 8)
			for i := 0; i < warm+ops; i++ {
				if i == warm {
					resumes, played = w.sim.Resumes(), w.sim.Played()
				}
				s.Send(ctx, th, buf)
				if _, err := s.Recv(ctx, th, buf); err != nil {
					t.Errorf("client recv %d: %v", i, err)
					return
				}
			}
			resumes, played = w.sim.Resumes()-resumes, w.sim.Played()-played
		})
	w.sim.Run()
	t.Logf("per round trip: %.1f resumes, %.1f stops played by the scheduler", float64(resumes)/ops, float64(played)/ops)
	if resumes > 20*ops {
		t.Errorf("%d resumes for %d round trips, want at most 20 each", resumes, ops)
	}
	if played < 50*ops {
		t.Errorf("the scheduler played %d stops for %d round trips: the receivers are not spinning through it", played, ops)
	}
}

// TestDialCycleResumes: an intra-host dial, 8-byte echo and close is 0.3 µs
// during which two application threads wait and the monitor's router and
// four shard loops serve the control messages. It may cost 30 resumes and
// 60 scheduler events (resumes plus played polls) in all: 26.2 + 11.2. It
// cost 26.8 + 154.5 while the listener's process was signalled for every
// SYN, the client polling through the signal's 2 µs, and 33.5 + 512 with
// each shard spinning 255 polls after every message instead of parking when
// a pass finds nothing.
func TestDialCycleResumes(t *testing.T) {
	w := boundaryWorld(t)
	sp, sl := proc(t, w.a, "server", 0)
	cp, cl := proc(t, w.a, "client", 1000)
	sp.Spawn("srv", echoServer(t, sl, 7621))
	const warm, cycles = 5, 100
	var resumes, played int64
	cp.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
		ctx.Sleep(10_000)
		for i := 0; i < warm+cycles; i++ {
			if i == warm {
				resumes, played = w.sim.Resumes(), w.sim.Played()
			}
			echoOnce(t, ctx, th, cl, "hostA", 7621)
		}
		resumes, played = w.sim.Resumes()-resumes, w.sim.Played()-played
		sp.Signal(ctx, host.SIGKILL)
	})
	w.sim.Run()
	t.Logf("%.1f resumes + %.1f played per dial-echo-close cycle",
		float64(resumes)/cycles, float64(played)/cycles)
	if resumes > 30*cycles {
		t.Errorf("%d resumes for %d cycles, want at most 30 each", resumes, cycles)
	}
	if events := resumes + played; events > 60*cycles {
		t.Errorf("%d scheduler events for %d cycles, want at most 60 each", events, cycles)
	}
}

// heapAllocs is the process's heap allocation count so far.
func heapAllocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// TestDialCycleAllocs: an intra-host dial, 8-byte echo and close allocates
// only what outlives it — the two Sockets (users keep them after Close) and
// the IntraSock, whose segment is an entry of the registry's map — plus the
// test's request buffer: 5.0 a cycle (7.1 while the flow table kept every
// closed row: two new ones a cycle). The per-dial records (the pending dial
// with its SYN and control wait, the dispatched connection, the monitor's
// connection record, the two sdstat rows) come from free lists on their
// owners, the FD table holds entries by value and a socket's SHM endpoint is
// part of the Socket. A refused dial allocates nothing.
func TestDialCycleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const warm, cycles = 20, 100
	t.Run("echo", func(t *testing.T) {
		w := boundaryWorld(t)
		sp, sl := proc(t, w.a, "server", 0)
		cp, cl := proc(t, w.a, "client", 1000)
		sp.Spawn("srv", echoServer(t, sl, 7623))
		var allocs uint64
		cp.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
			ctx.Sleep(10_000)
			for i := 0; i < dialWarm+cycles; i++ {
				if i == dialWarm {
					allocs = heapAllocs()
				}
				echoOnce(t, ctx, th, cl, "hostA", 7623)
			}
			allocs = heapAllocs() - allocs
			sp.Signal(ctx, host.SIGKILL)
		})
		w.sim.Run()
		per := float64(allocs) / cycles
		t.Logf("%.2f allocations per dial-echo-close cycle", per)
		if per > dialCycleAllocs {
			t.Errorf("%.2f allocations per cycle, want at most %v", per, dialCycleAllocs)
		}
	})
	t.Run("refused", func(t *testing.T) {
		w := boundaryWorld(t)
		w.a.Limits.Backlog = 1
		sp, sl := proc(t, w.a, "server", 0)
		cp, cl := proc(t, w.a, "client", 1000)
		sp.Spawn("srv", func(ctx exec.Context, th *host.Thread) {
			if _, err := sl.ListenOn(ctx, th, 7624); err != nil {
				t.Errorf("listen: %v", err)
			}
			ctx.Sleep(100_000_000) // never accepts: the first dial holds the one backlog slot
		})
		var allocs uint64
		cp.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
			ctx.Sleep(10_000)
			if _, _, err := cl.ConnectDeadline(ctx, th, "hostA", 7624, ctx.Now()+1_000_000); !errors.Is(err, core.ETIMEDOUT) {
				t.Errorf("pinning dial: want ETIMEDOUT, got %v", err)
			}
			for i := 0; i < warm+cycles; i++ {
				if i == warm {
					allocs = heapAllocs()
				}
				if _, _, err := cl.Connect(ctx, th, "hostA", 7624); !errors.Is(err, core.ECONNREFUSED) {
					t.Errorf("dial %d: want ECONNREFUSED, got %v", i, err)
				}
			}
			allocs = heapAllocs() - allocs
			sp.Signal(ctx, host.SIGKILL)
		})
		w.sim.Run()
		per := float64(allocs) / cycles
		t.Logf("%.2f allocations per refused dial", per)
		if per > refusedDialAllocs {
			t.Errorf("%.2f allocations per refused dial, want at most %v", per, refusedDialAllocs)
		}
	})
}

// TestInterDialCycleAllocs is TestDialCycleAllocs across two hosts: every
// warm cycle goes out on the QP pair the last one parked and allocates what
// outlives it — the two Sockets and each end's interSide — plus the test's
// request buffer: 6.2 a cycle (8.2 with two new flow rows a cycle, 39.0 when
// the monitor channel made a landing buffer per message and decoded into a
// fresh one, and an inter-host side was twelve objects).
func TestInterDialCycleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const warm, cycles = dialWarm, 100
	w := boundaryWorld(t)
	monitor.Peer(w.ma, w.mb)
	sp, sl := proc(t, w.b, "server", 0)
	cp, cl := proc(t, w.a, "client", 1000)
	sp.Spawn("srv", echoServer(t, sl, 7625))
	var allocs uint64
	cp.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
		ctx.Sleep(10_000)
		for i := 0; i < warm+cycles; i++ {
			if i == warm {
				allocs = heapAllocs()
			}
			echoOnce(t, ctx, th, cl, "hostB", 7625)
		}
		allocs = heapAllocs() - allocs
		sp.Signal(ctx, host.SIGKILL)
	})
	w.sim.Run()
	per := float64(allocs) / cycles
	t.Logf("%.2f allocations per two-host dial-echo-close cycle", per)
	if per > interDialCycleAllocs {
		t.Errorf("%.2f allocations per cycle, want at most %v", per, interDialCycleAllocs)
	}
}

// The budgets of TestDialCycleAllocs and TestInterDialCycleAllocs, and the
// warm-up of their dial-echo-close cycles: a cycle retires two sdstat rows,
// so the table holds obs.ClosedFlows closed rows halfway through the warm-up,
// and every later row reuses the record of one it evicts.
const (
	dialWarm             = obs.ClosedFlows
	dialCycleAllocs      = 7
	refusedDialAllocs    = 0.1
	interDialCycleAllocs = 7
)

// TestDataPathAllocs: an 8-byte ping-pong and a 1 KiB stream, on one host
// and across two, allocate nothing once warm: at most 0.05 an op, where an
// op is a round trip or a streamed message. Like the BENCH suite, it warms
// up, collects garbage, refills the pools the collection emptied, and keeps
// the fewer allocations of two back-to-back windows. The runtime's own
// allocations land in one window, and a sync.Pool moving buffers between
// Ps grows its chain now and then (0.01 an op across two hosts); an
// allocation per Send or Recv lands in both windows, at 1 an op or more.
func TestDataPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	const warm, refill, n = 64, 8, 1000
	for _, tc := range []struct {
		name          string
		inter, stream bool
	}{
		{"intra-pingpong-8B", false, false},
		{"inter-pingpong-8B", true, false},
		{"intra-stream-1KiB", false, true},
		{"inter-stream-1KiB", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			size := 8
			if tc.stream {
				size = 1024
			}
			// recvAll receives exactly len(buf)*times bytes into buf.
			recvAll := func(ctx exec.Context, th *host.Thread, s *core.Socket, buf []byte, times int) {
				for got := 0; got < len(buf)*times; {
					m, err := s.Recv(ctx, th, buf[:min(len(buf), len(buf)*times-got)])
					if err != nil {
						t.Errorf("recv: %v", err)
						return
					}
					got += m
				}
			}
			send := func(ctx exec.Context, th *host.Thread, s *core.Socket, buf []byte) {
				if _, err := s.Send(ctx, th, buf); err != nil {
					t.Errorf("send: %v", err)
				}
			}
			// A stream sends its ops back to back, and the server
			// acknowledges the last with one byte, so a window ends when
			// all of it has been received.
			var per float64
			w := boundaryWorld(t)
			connected(t, w, tc.inter, 7626, func(ctx exec.Context, th *host.Thread, s *core.Socket) {
				buf := make([]byte, size)
				for _, k := range []int{warm, refill, n, n} {
					if tc.stream {
						recvAll(ctx, th, s, buf, k)
						send(ctx, th, s, buf[:1])
						continue
					}
					for range k {
						recvAll(ctx, th, s, buf, 1)
						send(ctx, th, s, buf)
					}
				}
			}, func(ctx exec.Context, th *host.Thread, s *core.Socket) {
				buf := make([]byte, size)
				ops := func(k int) {
					for range k {
						send(ctx, th, s, buf)
						if !tc.stream {
							recvAll(ctx, th, s, buf, 1)
						}
					}
					if tc.stream {
						recvAll(ctx, th, s, buf[:1], 1)
					}
				}
				ops(warm)
				runtime.GC()
				ops(refill)
				a0 := heapAllocs()
				ops(n)
				a1 := heapAllocs()
				ops(n)
				a2 := heapAllocs()
				per = float64(min(a1-a0, a2-a1)) / n
			})
			w.sim.Run()
			t.Logf("%.3f allocations per op", per)
			if per > 0.05 {
				t.Errorf("%.3f allocations per op, want at most 0.05", per)
			}
		})
	}
}

// TestDialReturnsWhenAnswered is the lost wake-up a careless idle predicate
// produces: the control wait's own poll dispatches the awaited KConnectRes,
// the queues are empty again, and a predicate that looks only at the queues
// calls the wait idle until its next ping is due, 2 ms later. The wait must
// come back for the iteration after the dispatch, as the loop did: 180
// sim-ns for a warm dial, fewer than 64 polls.
func TestDialReturnsWhenAnswered(t *testing.T) {
	w := boundaryWorld(t)
	sp, sl := proc(t, w.a, "server", 0)
	cp, cl := proc(t, w.a, "client", 1000)
	sp.Spawn("srv", echoServer(t, sl, 7622))
	costs := costmodel.Default
	burst := 63 * (costs.RingOp + exec.DefaultYieldCost)
	cp.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
		ctx.Sleep(10_000)
		for i := 0; i < 5; i++ {
			if dial, _ := echoOnce(t, ctx, th, cl, "hostA", 7622); dial >= burst {
				t.Errorf("dial %d took %d sim-ns, more than 63 polls (%d): it did not return when answered", i, dial, burst)
			}
		}
		sp.Signal(ctx, host.SIGKILL)
	})
	w.sim.Run()
}
