package experiments

import (
	"runtime"
	"testing"

	sd "socksdirect"
	"socksdirect/internal/core"
	"socksdirect/internal/obs"
)

// TestConnScaleDrill is the drill's own tier-1 coverage: a small
// population must still exercise every monitor shard and every listener
// port, and the bookkeeping (rounding, quotas, peak tracking) must be
// exact — the full-scale run in `sdbench connscale` relies on it.
func TestConnScaleDrill(t *testing.T) {
	defer ctlRingsNeverFull(t)()
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

// TestHeldSocketsCostTheirMetadata: 2 000 idle intra-host connections
// held at the default 128 KiB rings take no more than 10 % more live heap
// than at 256 B rings. A ring is backed on its first write, so a held
// socket costs its metadata and what its set-up wrote, not its capacity
// (§6 holds 10^5 of them).
func TestHeldSocketsCostTheirMetadata(t *testing.T) {
	const n = 2000
	small := heldHeap(t, n, 256)
	dflt := heldHeap(t, n, 0)
	t.Logf("live heap for %d held connections: %d B at 256 B rings, %d B at the default %d B",
		n, small, dflt, core.RingCap)
	if float64(dflt) > 1.10*float64(small) {
		t.Fatalf("held connections at the default rings take %d B of live heap, more than 1.10 x %d B at 256 B rings",
			dflt, small)
	}
}

// heldHeap returns the live heap a world holding n idle intra-host
// connections adds, with its host's rings at ringCap bytes (0: the
// default). The obs flow table keeps an earlier world's sockets alive
// until it is reset, so it is reset first.
func heldHeap(t *testing.T, n, ringCap int) uint64 {
	var ms runtime.MemStats
	obs.Reset()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := ms.HeapAlloc
	w := newWorld()
	w.a.Limits.RingCap = ringCap
	const port = 7600
	held := make([]*sd.Conn, 0, 2*n)
	w.ha.NewProcess("srv", 0).Go("acceptor", func(t *sd.T) {
		acceptLoop(t, port, n, func(c *sd.Conn) { held = append(held, c) })
	})
	w.ha.NewProcess("cli", 1000).Go("dialer", func(t *sd.T) {
		var st dialStats
		for range n {
			c, err := st.connect(t, "hostA", port, 100, 20_000)
			if err != nil {
				return
			}
			held = append(held, c)
		}
	})
	w.sim.Run()
	if len(held) != 2*n {
		t.Fatalf("%d ends held, want %d", len(held), 2*n)
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(w)
	runtime.KeepAlive(held)
	return ms.HeapAlloc - before
}
