package experiments

import (
	"testing"
)

// TestChaosSoak runs the scripted fault schedule (1% loss burst + 2 s
// partition on the RDMA link) against two echo pairs and demands
// byte-exact delivery plus evidence that each pair rode the partition out
// and re-established its QP (sd/fault/recoveries, one per pair). The
// simulation is deterministic, so
// this is a regression test, not a flake source; a recovery deadlock shows
// up as an incomplete run (the sim quiesces with clients unfinished)
// rather than a test hang.
func TestChaosSoak(t *testing.T) {
	rounds, chunk := 240, 1024
	if testing.Short() {
		rounds = 200 // still spans the 2.2 s fault window at 12 ms/round
	}
	r := Chaos(rounds, chunk)
	t.Logf("%s", r)
	if !r.CompletedA || !r.CompletedB {
		t.Fatalf("incomplete run: pairA=%v pairB=%v (stalled socket => lost wakeup or recovery deadlock)",
			r.CompletedA, r.CompletedB)
	}
	if r.MismatchA != 0 || r.MismatchB != 0 {
		t.Errorf("payload corruption: pairA=%d pairB=%d mismatched chunks",
			r.MismatchA, r.MismatchB)
	}
	if r.Recoveries < 2 {
		t.Errorf("%d QP re-establishments completed, want one per pair (attempts=%d)", r.Recoveries, r.Attempts)
	}
	if r.Injected < 2 {
		t.Errorf("fault schedule did not apply: injected=%d", r.Injected)
	}
}

// TestChaosRecoversAtEveryOrdinal: host ordinals are folded into
// connection IDs, which pick the monitor shards and the recovery jitter,
// so Chaos meets a different schedule when its hosts are numbered after
// others. With the router parked and no tie-break, one of those schedules
// healed the monitor channel from both ends at once, each end kept its own
// pair, and no QP recovery completed. Chaos runs after 0, 1, 2 and 3 bare
// hosts on its own Sim; every run must recover, and no two may be alike.
func TestChaosRecoversAtEveryOrdinal(t *testing.T) {
	var runs []ChaosResult
	for skip := 0; skip < 4; skip++ {
		r := chaos(200, 1024, skip)
		if !r.Passed() {
			t.Errorf("after %d bare hosts:\n%s", skip, r)
		}
		r.counters = nil // a snapshot of its own in every run
		for i, q := range runs {
			if q == r {
				t.Errorf("after %d and %d bare hosts: the same run\n%#v", i, skip, r)
			}
		}
		runs = append(runs, r)
	}
}

// TestChaosPoolBalance is the system-level leak check for the pooled
// data path: after a full chaos run — loss burst, partition, go-back-N
// retransmission storms, QP error flushes and re-establishment, which
// closes the dead QPs — every ref-counted staging buffer must have found
// its way back to the pool. The sim quiesces only
// when no frames or timers remain, so a nonzero delta here is a real
// reference-count leak, not in-flight traffic.
func TestChaosPoolBalance(t *testing.T) {
	r := Chaos(120, 512)
	if !r.CompletedA || !r.CompletedB {
		t.Fatalf("incomplete chaos run: pairA=%v pairB=%v", r.CompletedA, r.CompletedB)
	}
	if r.Recoveries < 2 {
		t.Errorf("%d QP re-establishments completed, want one per pair", r.Recoveries)
	}
	if r.PoolLeak != 0 {
		t.Errorf("buffer pool leak: %d outstanding after the chaos run, before its world ended", r.PoolLeak)
	}
}
