package experiments

import (
	"errors"
	"strings"
	"testing"

	sd "socksdirect"
	"socksdirect/internal/fault"
	"socksdirect/internal/telemetry"
)

// TestOverloadSoak runs the overload-survival drill: a slow-receiver
// storm with armed deadlines, a dial flood against a capped backlog, a
// remote dial race against a capped shard inbox, and a bufpool quota
// squeeze — all while healthy pairs stream. Run under -race in CI with
// the full 10k-dial flood; plain `go test` uses the faster default.
func TestOverloadSoak(t *testing.T) {
	defer ctlRingsNeverFull(t)()
	cfg := OverloadConfig{}
	if !testing.Short() && !raceEnabled {
		cfg.Dials = 2000
	}
	r := Overload(cfg)
	t.Logf("\n%s", r)
	if !r.Passed() {
		t.Fatalf("overload drill failed:\n%s", r)
	}
}

// TestOverloadLeavesTheRegistryAlone: the drill reads its counters as
// deltas from its own start and resets only the distribution it reports,
// so a Capture/Diff around it — sdbench's drill wrapper — sees no counter
// run backwards, even after the process has counted other traffic.
func TestOverloadLeavesTheRegistryAlone(t *testing.T) {
	PingPong(SysSD, 8, true, 2000) // traffic the process counted before the drill
	before := telemetry.Capture()
	if before[telemetry.CoreSendOps] == 0 {
		t.Fatal("the warm-up moved no counter")
	}
	Overload(OverloadConfig{Dials: 50, RemoteDials: 8, Rounds: 8})
	d := telemetry.Capture().Diff(before)
	for _, k := range d.Keys() {
		// A counter has no derived keys: a gauge has <name>/hw, a
		// distribution <name>/sum, and those keys carry the suffix.
		_, gauge := d[k+"/hw"]
		_, dist := d[k+"/sum"]
		derived := false
		for _, suf := range []string{"/hw", "/sum", "/p50", "/p99"} {
			if _, ok := d[strings.TrimSuffix(k, suf)]; ok && strings.HasSuffix(k, suf) {
				derived = true
			}
		}
		if !gauge && !dist && !derived && d[k] < 0 {
			t.Errorf("counter %s moved %d across the drill", k, d[k])
		}
	}
}

// TestDeadlineDuringPartition pins the deadline×failure interaction: a
// receiver with an armed deadline whose inter-host peer is cut off by a
// fabric partition must surface ETIMEDOUT when the deadline fires — not
// hang until the partition heals, and not misreport a peer death.
func TestDeadlineDuringPartition(t *testing.T) {
	w := newWorld()

	inj := fault.New(w.a.Clk)
	inj.AddLink("rdma", w.a.NIC.Port("hostB"), w.b.NIC.Port("hostA"))
	// Partition shortly after the stream starts; heal long after the
	// deadline so ETIMEDOUT cannot be explained by recovery.
	sched := []fault.Event{
		{At: 1_000_000, Kind: fault.Partition, Link: "rdma", Dur: 2_000_000_000},
	}
	if err := inj.Run(sched); err != nil {
		t.Fatal(err)
	}

	var gotErr error
	var firedAt int64
	sp := w.hb.NewProcess("srv", 0)
	cp := w.ha.NewProcess("cli", 0)
	sp.Go("srv", func(st *sd.T) {
		ln, err := st.Listen(7800)
		if err != nil {
			return
		}
		c, err := ln.Accept()
		if err != nil {
			return
		}
		// Send one chunk pre-partition so the connection is warm, then go
		// quiet: the partition swallows anything later anyway.
		c.Send(make([]byte, 64))
		st.Sleep(3_000_000_000)
		c.Close()
	})
	cp.Go("cli", func(ct *sd.T) {
		ct.Sleep(10_000)
		c, err := ct.Dial("hostB", 7800)
		if err != nil {
			gotErr = err
			return
		}
		buf := make([]byte, 64)
		if _, err := c.Recv(buf); err != nil {
			gotErr = err
			return
		}
		// Warm byte arrived; now the partition is up and nothing more
		// will. The deadline must cut the wait.
		c.SetRecvDeadline(ct.Now() + 50_000_000) // 50 ms, inside the 2 s outage
		_, gotErr = c.Recv(buf)
		firedAt = ct.Now()
	})
	w.sim.Run()

	if !errors.Is(gotErr, sd.ETIMEDOUT) {
		t.Fatalf("recv during partition: got %v, want ETIMEDOUT", gotErr)
	}
	if firedAt > 1_000_000_000 {
		t.Fatalf("deadline fired at %dns — waited for the partition to heal instead", firedAt)
	}
}

// TestDeadlineRacesPeerCrash pins the other deadline×failure corner: the
// peer is killed right around the receiver's deadline. Whichever errno
// wins the race, the receiver must not hang, must see at most one
// ECONNRESET, and the connection must stay in a terminal state (EOF
// after a reset, per the crash-drill contract).
func TestDeadlineRacesPeerCrash(t *testing.T) {
	for _, lead := range []int64{-5_000_000, 0, 5_000_000} {
		w := newWorld()
		reaper := w.ha.NewProcess("reaper", 0)
		var errs []error
		var victim *sd.Process

		sp := w.ha.NewProcess("srv", 0)
		cp := w.ha.NewProcess("cli", 0)
		victim = sp
		sp.Go("srv", func(st *sd.T) {
			ln, err := st.Listen(7801)
			if err != nil {
				return
			}
			c, err := ln.Accept()
			if err != nil {
				return
			}
			c.Send(make([]byte, 64))
			st.Sleep(1_000_000_000) // hold the socket until killed
		})
		cp.Go("cli", func(ct *sd.T) {
			ct.Sleep(10_000)
			c, err := ct.Dial("hostA", 7801)
			if err != nil {
				return
			}
			buf := make([]byte, 64)
			if _, err := c.Recv(buf); err != nil {
				errs = append(errs, err)
				return
			}
			deadline := ct.Now() + 20_000_000
			c.SetRecvDeadline(deadline)
			// Two recvs: the first meets the race, the second must find a
			// terminal state either way (EOF after reset; ETIMEDOUT again
			// while the corpse's teardown is still in flight is also
			// legal — the deadline stays armed).
			for i := 0; i < 2; i++ {
				if _, err := c.Recv(buf); err != nil {
					errs = append(errs, err)
				}
			}
		})
		reaper.Go("kill", func(rt *sd.T) {
			rt.Sleep(20_000_000 + lead) // straddle the deadline
			rt.Kill(victim)
		})
		w.sim.Run()

		if len(errs) != 2 {
			t.Fatalf("lead %d: receiver hung or under-reported: errs=%v", lead, errs)
		}
		resets := 0
		for _, err := range errs {
			switch {
			case errors.Is(err, sd.ECONNRESET):
				resets++
			case errors.Is(err, sd.ETIMEDOUT), errors.Is(err, sd.EOF):
			default:
				t.Fatalf("lead %d: unexpected errno %v (all: %v)", lead, err, errs)
			}
		}
		if resets > 1 {
			t.Fatalf("lead %d: %d ECONNRESETs, want at most one (%v)", lead, resets, errs)
		}
	}
}
