package main

import (
	"math"
	"runtime"
	"sort"
	"time"

	"socksdirect/internal/obs"
	"socksdirect/internal/telemetry"
)

// refill is the number of ops run between the pre-window runtime.GC() and
// the first MemStats mark: the GC empties the sync.Pool victim caches
// (packet pool, buffer pool), and their one-time refill must not be billed
// to the first measured op. Same figure as experiments.benchRefill.
const refill = 8

// rep is one repetition of one workload: a fresh cluster, a byte-verified
// warm-up, then a window of exactly w.ops measured ops. The workload's
// client thread drives it through drive (or open/opDone directly); every
// field below the blank line is a result.
type rep struct {
	w    *workload
	seed uint64
	ops  int // measured ops (w.ops, or fewer in -short and traced runs)
	warm int // byte-verified, untimed ops before the window
	tr   *tracer
	// corruptAt is the index of the one message whose payload the sending
	// side flips a byte of; -1 outside the self-test.
	corruptAt int

	start     time.Time // before the cluster is built
	hostOpen  time.Time
	hostClose time.Time
	simOpen   int64
	simClose  int64
	lat       []int64 // per-op simulated latency, in op completion order
	failed    int
	repMem    [2]runtime.MemStats // around the whole repetition
	winMem    [3]runtime.MemStats // window open, half way, close
	tel       [2]telemetry.Snapshot
}

func newRep(w *workload, seed uint64, ops int, traced bool) *rep {
	ops -= ops % w.clients
	warm := ops / 50
	if warm < 64 {
		warm = 64
	}
	warm -= warm % w.clients
	r := &rep{w: w, seed: seed, ops: ops, warm: warm, corruptAt: -1, lat: make([]int64, 0, ops)}
	if traced {
		r.tr = &tracer{spans: make([]span, 0, ops*w.spansPerOp+64), rootOf: make([]int32, ops)}
	}
	return r
}

// run executes the repetition. It is the only place a cluster is built, so
// setup time and whole-repetition allocations are read here.
func (r *rep) run() {
	// The observability registries are process-global and remember every
	// connection ever made; cleared, repetitions do not slow each other down.
	telemetry.Default.Reset()
	obs.Reset()
	runtime.GC()
	runtime.ReadMemStats(&r.repMem[0])
	r.start = time.Now()
	if r.tr != nil {
		r.tr.base = r.start
	}
	r.w.run(r)
	runtime.ReadMemStats(&r.repMem[1])
	if len(r.lat) != r.ops || r.hostClose.IsZero() {
		// The window never closed: some thread bailed out on an error.
		r.failed += r.ops - len(r.lat) + 1
	}
}

// check counts one failed op unless ok.
func (r *rep) check(ok bool) {
	if !ok {
		r.failed++
	}
}

// drive runs the standard single-client schedule on the calling simulated
// thread: warm ops with every byte verified, GC, refill, then the measured
// window. op performs op i and returns its simulated latency.
func (r *rep) drive(t T, op func(i int, verifyAll bool) int64) {
	i := 0
	for ; i < r.warm; i++ {
		op(i, true)
	}
	runtime.GC()
	for ; i < r.warm+refill; i++ {
		op(i, false)
	}
	r.open(t)
	for end := i + r.ops; i < end; i++ {
		r.opDone(t, op(i, false))
	}
}

// first is the index of the first measured op in the schedule drive runs.
func (r *rep) first() int { return r.warm + refill }

// open starts the measured window. The host clock is read last and, in
// opDone, first, so bookkeeping stays outside the host window.
func (r *rep) open(t T) {
	if r.tr != nil {
		r.tel[0] = telemetry.Capture()
	}
	runtime.ReadMemStats(&r.winMem[0])
	r.simOpen = t.Now()
	r.hostOpen = time.Now()
	if r.tr != nil {
		r.tr.open(t.Now())
	}
}

// opDone records one completed measured op; the op that fills the window
// closes it.
func (r *rep) opDone(t T, lat int64) {
	r.lat = append(r.lat, lat)
	if t.ln != nil {
		t.ln.nextOp(t.Now(), len(r.lat) == r.ops)
	}
	switch len(r.lat) {
	case r.ops / 2:
		runtime.ReadMemStats(&r.winMem[1])
	case r.ops:
		r.hostClose = time.Now()
		r.simClose = t.Now()
		runtime.ReadMemStats(&r.winMem[2])
		if r.tr != nil {
			r.tel[1] = telemetry.Capture()
		}
	}
}

// result is what one repetition contributes to the ledger.
type result struct {
	HostNsPerOp float64
	SimOpsPerS  float64
	SimP50Ns    float64
	SimTailNs   float64
	RepAllocs   float64 // whole repetition, per measured op
	RepBytes    float64
	SetupS      float64
	AllocsPerOp float64 // steady state: min of the window's two halves
	BytesPerOp  float64
	Samples     int // latencies behind the sim_* quantiles
	Attempted   int
	Failed      int
}

// endToEnd lists the repetition's end-to-end values in the order of the
// endToEnd catalogue.
func (res result) endToEnd() []float64 {
	return []float64{res.HostNsPerOp, res.SimOpsPerS, res.SimP50Ns, res.SimTailNs, res.RepAllocs, res.RepBytes, res.SetupS}
}

func (r *rep) result() result {
	n := float64(r.ops)
	res := result{Samples: len(r.lat), Attempted: r.warm + refill + len(r.lat), Failed: r.failed}
	if r.hostClose.IsZero() {
		return res
	}
	res.HostNsPerOp = float64(r.hostClose.Sub(r.hostOpen).Nanoseconds()) / n
	res.SimOpsPerS = n / (float64(r.simClose-r.simOpen) / 1e9)
	sorted := append([]int64(nil), r.lat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	res.SimP50Ns = float64(quantile(sorted, 0.50))
	res.SimTailNs = float64(quantile(sorted, tailQuantile(len(sorted))))
	res.RepAllocs = float64(r.repMem[1].Mallocs-r.repMem[0].Mallocs) / n
	res.RepBytes = float64(r.repMem[1].TotalAlloc-r.repMem[0].TotalAlloc) / n
	res.SetupS = r.hostOpen.Sub(r.start).Seconds()
	half := float64(r.ops / 2)
	m := &r.winMem
	res.AllocsPerOp = math.Min(float64(m[1].Mallocs-m[0].Mallocs)/half, float64(m[2].Mallocs-m[1].Mallocs)/(n-half))
	res.BytesPerOp = math.Min(float64(m[1].TotalAlloc-m[0].TotalAlloc)/half, float64(m[2].TotalAlloc-m[1].TotalAlloc)/(n-half))
	return res
}

// tailQuantile is the highest of p99.9 / p99 / p95 that leaves at least ten
// samples beyond it.
func tailQuantile(samples int) float64 {
	switch {
	case samples >= 10_000:
		return 0.999
	case samples >= 1_000:
		return 0.99
	}
	return 0.95
}

// quantile reads quantile q of an ascending slice (nearest rank, as
// experiments.benchCluster does).
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(q*float64(len(sorted)-1))]
}

// summary is the spread of one metric across repetitions.
type summary struct {
	Min, Median, Max, IQR float64
	N                     int
}

func summarize(v []float64) summary {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return summary{}
	}
	at := func(q float64) float64 { // linear interpolation between ranks
		p := q * float64(n-1)
		lo := int(p)
		if lo+1 >= n {
			return s[n-1]
		}
		return s[lo] + (p-float64(lo))*(s[lo+1]-s[lo])
	}
	return summary{Min: s[0], Median: at(0.5), Max: s[n-1], IQR: at(0.75) - at(0.25), N: n}
}
