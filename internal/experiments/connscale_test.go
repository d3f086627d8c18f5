package experiments

import "testing"

// TestConnScaleDrill is the drill's own tier-1 coverage: a small
// population must still exercise every monitor shard and every listener
// port, and the bookkeeping (rounding, quotas, peak tracking) must be
// exact — the full-scale run in `sdbench connscale` relies on it.
func TestConnScaleDrill(t *testing.T) {
	cfg := ConnScaleConfig{Population: 800, Churn: 200}
	r := ConnScaleDrill(cfg)
	if r.Population < 800 || r.Population%r.Population != 0 {
		t.Fatalf("population rounded to %d, want >= 800", r.Population)
	}
	if r.Connects != r.Population+r.Churn {
		t.Fatalf("connects %d, want population+churn = %d", r.Connects, r.Population+r.Churn)
	}
	if r.Accepts != r.Connects {
		t.Fatalf("accepts %d != connects %d", r.Accepts, r.Connects)
	}
	// Peak concurrency must reach the full population: churn runs while
	// every ramped socket is still open.
	if r.PeakConcurrent < r.Population {
		t.Fatalf("peak concurrency %d never reached the population %d", r.PeakConcurrent, r.Population)
	}
	if r.ConnectsPerSec <= 0 || r.ConnectP99Ns <= 0 || r.ConnectP50Ns <= 0 {
		t.Fatalf("degenerate connect metrics: %+v", r)
	}
	// A dial's wait for its answer polls; nothing in it sleeps. When the
	// control wait slept 100 µs after 64 polls the tail was 46 median dials.
	if r.ConnectP99Ns > 10*r.ConnectP50Ns {
		t.Errorf("connect p99 %d ns is more than 10x the p50 %d ns: a dial waited out something", r.ConnectP99Ns, r.ConnectP50Ns)
	}
	if r.AcceptP50Ns <= 0 || r.AcceptsPerSec <= 0 {
		t.Fatalf("degenerate accept metrics: %+v", r)
	}
	if r.Dispatched < r.Connects {
		t.Fatalf("monitor dispatched %d < %d connects", r.Dispatched, r.Connects)
	}
	// The whole point of the sharded control plane: every shard's
	// dispatch loop must have carried part of the load, with a sane
	// latency distribution.
	for _, sh := range r.Shards {
		if sh.Events == 0 {
			t.Errorf("shard %d handled no control messages", sh.Shard)
		}
		if sh.P50Ns <= 0 || sh.P99Ns < sh.P50Ns {
			t.Errorf("shard %d degenerate dispatch quantiles p50=%d p99=%d",
				sh.Shard, sh.P50Ns, sh.P99Ns)
		}
	}
}
