package experiments

import (
	"testing"

	"socksdirect/internal/telemetry"
)

// TestMonitorRestartSoak is the acceptance drill for monitor restart
// survivability: both hosts' monitors are killed and restarted mid-transfer
// across 8 streaming pairs (4 SHM + 4 RDMA). Established connections must
// deliver byte-exact streams with zero resets through the downtime;
// control-plane operations issued while a monitor is down must return
// ETIMEDOUT/EAGAIN within the bounded-wait deadline and succeed on retry;
// the successor incarnations must drop the dead epoch's mail
// (stale_dropped > 0), complete state resurrection (reregistrations > 0),
// converge, and leak nothing.
//
// 1 KiB chunks rather than sdbench mrestart's 4 KiB: coverage comes from
// the pacing (one chunk per ms, so every stream straddles both restart
// windows at 20–110 ms), not from byte volume, and the smaller copies
// keep the -race run well inside CI's 120 s budget.
func TestMonitorRestartSoak(t *testing.T) {
	defer ctlRingsNeverFull(t)()
	r := MRestart(4, 4, 1024, 150)
	t.Logf("\n%s", r)
	if r.StreamErrors != 0 || r.PrefixErrors != 0 || r.Unfinished != 0 {
		t.Errorf("data plane was not restart-independent: %d op errors, %d prefix errors, %d unfinished",
			r.StreamErrors, r.PrefixErrors, r.Unfinished)
	}
	if r.ProbeTimeouts < 1 {
		t.Errorf("no downtime dial observed a bounded timeout (got %d)", r.ProbeTimeouts)
	}
	if r.ProbeHangs != 0 {
		t.Errorf("%d downtime dials blocked past the deadline (worst %d ns)", r.ProbeHangs, r.WorstDialNs)
	}
	if r.ProbeOK != 2 {
		t.Errorf("only %d/2 probers recovered after restart", r.ProbeOK)
	}
	if r.RestartsSeen < 2 {
		t.Errorf("expected 2 restarts, counted %d", r.RestartsSeen)
	}
	if r.StaleDropped == 0 {
		t.Error("no stale (dead-epoch) control messages were dropped")
	}
	if r.ReRegs == 0 {
		t.Error("no process completed a re-registration report")
	}
	if r.PoolLeak != 0 {
		t.Errorf("bufpool leaked %d buffers", r.PoolLeak)
	}
	if r.Converge != "" {
		t.Errorf("successor monitors did not converge: %s", r.Converge)
	}
	if !r.Passed() {
		t.Errorf("drill failed:\n%s", r)
	}
}

// ctlRingsNeverFull returns the check that sd/monitor/ctl_ring_full has not
// moved since the call. The control rings are sized (8 KiB) above what the
// drills put in flight; a drill that fills one has outgrown them, and a full
// ring would move its virtual time.
func ctlRingsNeverFull(t *testing.T) func() {
	c := telemetry.C(telemetry.MonCtlRingFull)
	before := c.Load()
	return func() {
		t.Helper()
		if d := c.Load() - before; d != 0 {
			t.Errorf("%d control sends found their ring full", d)
		}
	}
}
