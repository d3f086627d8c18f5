package core_test

import (
	"testing"

	"socksdirect/internal/core"
	"socksdirect/internal/costmodel"
	"socksdirect/internal/exec"
	"socksdirect/internal/host"
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

// TestDialCycleResumes: an intra-host dial, 8-byte echo and close is 2.2 µs
// during which two application threads wait and the monitor's router and
// four shard loops serve the control messages. It may cost 30 resumes and
// 200 scheduler events (resumes plus played polls) in all; with each shard
// spinning 255 polls after every message, instead of parking when a pass
// finds nothing, it cost 33.5 + 512.
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
	if events := resumes + played; events > 200*cycles {
		t.Errorf("%d scheduler events for %d cycles, want at most 200 each", events, cycles)
	}
}

// TestDialReturnsWhenAnswered is the lost wake-up a careless idle predicate
// produces: the control wait's own poll dispatches the awaited KConnectRes,
// the queues are empty again, and a predicate that looks only at the queues
// calls the wait idle until its next ping is due, 2 ms later. The wait must
// come back for the iteration after the dispatch, as the loop did: 2 300
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
