package experiments

import (
	"testing"

	"socksdirect/internal/monitor"
)

// TestClusterSoak runs the 8-host cluster chaos drill: concurrent SIGKILL
// crashes, a monitor restart, a container live migration, a transient
// duplex partition, an asymmetric one-way cut, and a permanent host death
// — all mid-transfer — then asserts byte-exact delivery on every
// surviving flow, exactly one ECONNRESET per severed flow, cluster-wide
// membership convergence with exactly one death fan-out per survivor,
// bounded control-plane waits, and zero bufpool drift. The simulation is
// deterministic: a failure here is a regression, not a flake.
func TestClusterSoak(t *testing.T) {
	r := ClusterSoak()
	t.Logf("%s", r)

	if r.Hosts < 6 {
		t.Fatalf("drill ran %d hosts, want >= 6", r.Hosts)
	}
	if r.PrefixErrors != 0 {
		t.Errorf("%d flows delivered corrupted bytes", r.PrefixErrors)
	}
	if r.Hung != 0 {
		t.Errorf("%d severed flows never reached an errno (lost wakeup)", r.Hung)
	}
	if r.BadErrnos != 0 {
		t.Errorf("%d severed flows saw the wrong errno sequence", r.BadErrnos)
	}
	if want := r.Flows - r.Completed; r.GoodResets != want {
		t.Errorf("good resets = %d, want %d (exactly one ECONNRESET per severed flow)",
			r.GoodResets, want)
	}
	if !r.MigrOK {
		t.Error("migrated flow did not complete byte-exact")
	}
	if r.SurvivorsConverged != r.Survivors {
		t.Errorf("membership converged on %d/%d survivors", r.SurvivorsConverged, r.Survivors)
	}
	if r.Fanouts != int64(r.Survivors) {
		t.Errorf("host-death fanouts = %d, want exactly %d (one per survivor)",
			r.Fanouts, r.Survivors)
	}
	if r.GossipTx < 1 {
		t.Error("no KMHostDead gossip was sent; convergence was all-horizon")
	}
	if r.WorstDialNs > clusterDialBound {
		t.Errorf("a churner dial took %.2fms, bound %.0fms (unbounded control-plane wait)",
			float64(r.WorstDialNs)/1e6, float64(clusterDialBound)/1e6)
	}
	if r.PoolLeak != 0 {
		t.Errorf("bufpool drifted by %d buffers across the run", r.PoolLeak)
	}
	if r.Converge != "" {
		t.Errorf("a survivor monitor failed CrashConverged: %s", r.Converge)
	}
	// The dead host shows as dead (not suspect) in every survivor's view.
	for _, mem := range r.Membership {
		if mem.Host == "srv3" && mem.State != monitor.MemberDead {
			t.Errorf("survivor %s sees srv3 as %v, want dead", mem.Viewer, mem.State)
		}
	}
	if !r.Passed() {
		t.Errorf("acceptance bar not met:\n%s", r)
	}
}
