// Package telemetry is the stack-wide observability core: atomic counters,
// gauges and log-bucketed distributions behind a hierarchical named
// registry (events and spans are internal/obs's). Every layer
// of the reproduction — shm rings, RDMA QPs, token arbitration, the
// monitor control plane, the simulated kernel — increments metrics here, so
// sdbench can *measure* the paper's overhead attributions (Tables 3–4)
// instead of asserting them from the cost model.
//
// Design constraints, in order:
//
//   - dependency-free: imports nothing outside the standard library, so any
//     package (including shm and mem at the bottom of the stack) may use it;
//   - allocation-free on the hot path: metric handles are resolved once
//     (package-level vars at the instrumentation site) and mutation is one
//     or two atomic operations;
//   - disableable: SetEnabled(false) turns every mutation into a single
//     atomic flag load, for benchmarking the instrumentation itself.
//
// Metric names are slash-separated paths, e.g. "sd/shm/ring/credit_returns"
// (see names.go for the registered namespace). Snapshot/Diff give
// per-experiment deltas.
package telemetry

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// on is the global kill switch. Metrics default to enabled; the registry
// stays correct either way (disabled mutations are simply dropped).
var on atomic.Bool

func init() { on.Store(true) }

// SetEnabled toggles all metric mutation globally.
func SetEnabled(v bool) { on.Store(v) }

// Enabled reports whether metrics are being recorded.
func Enabled() bool { return on.Load() }

// Counter is a monotonically increasing event count.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() {
	if !on.Load() {
		return
	}
	c.v.Add(1)
}

// Add adds n (n must be >= 0 for the value to stay monotonic).
func (c *Counter) Add(n int64) {
	if !on.Load() {
		return
	}
	c.v.Add(n)
}

// Load returns the current count.
func (c *Counter) Load() int64 { return c.v.Load() }

// reset is used by Registry.Reset (tests and sdbench between experiments).
func (c *Counter) reset() { c.v.Store(0) }

// Gauge is an instantaneous level with a high-water mark.
type Gauge struct{ v, hw atomic.Int64 }

// Set stores v and raises the high-water mark if exceeded.
func (g *Gauge) Set(v int64) {
	if !on.Load() {
		return
	}
	g.v.Store(v)
	g.raise(v)
}

// Add adjusts the level by d and returns the new value.
func (g *Gauge) Add(d int64) int64 {
	if !on.Load() {
		return g.v.Load()
	}
	v := g.v.Add(d)
	g.raise(v)
	return v
}

func (g *Gauge) raise(v int64) {
	for {
		cur := g.hw.Load()
		if v <= cur || g.hw.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Load returns the current level.
func (g *Gauge) Load() int64 { return g.v.Load() }

// High returns the high-water mark.
func (g *Gauge) High() int64 { return g.hw.Load() }

func (g *Gauge) reset() { g.v.Store(0); g.hw.Store(0) }

// distBuckets is sized for the full int64 range under the 16-sub-bucket
// log layout of bucketOf (max index for 2^63-1 is 959).
const distBuckets = 960

// Distribution records a stream of int64 observations (sizes, batch
// lengths, durations) into log-scale buckets with 16 sub-buckets per
// octave, giving <= ~3% relative quantile error with zero allocation.
type Distribution struct {
	count, sum atomic.Int64
	min, max   atomic.Int64
	buckets    [distBuckets]atomic.Int64
	hasMin     atomic.Bool
}

// bucketOf maps a non-negative value to its bucket index: exact below 16,
// then 16 sub-buckets per power of two.
func bucketOf(v int64) int {
	if v < 16 {
		return int(v)
	}
	exp := bits.Len64(uint64(v)) - 5 // shift so the mantissa lands in [16,32)
	mant := v >> uint(exp)
	return exp*16 + int(mant)
}

// bucketMid returns the representative value of a bucket (midpoint).
func bucketMid(idx int) int64 {
	if idx < 32 { // v<16 exact, first octave [16,32) has width-1 buckets
		return int64(idx)
	}
	exp := idx/16 - 1
	mant := int64(16 + idx%16)
	lo := mant << uint(exp)
	return lo + (int64(1)<<uint(exp))/2
}

// Observe records one value (negative values clamp to zero).
func (d *Distribution) Observe(v int64) {
	if !on.Load() {
		return
	}
	if v < 0 {
		v = 0
	}
	d.count.Add(1)
	d.sum.Add(v)
	d.buckets[bucketOf(v)].Add(1)
	if d.hasMin.CompareAndSwap(false, true) {
		d.min.Store(v)
		d.max.Store(v)
		return
	}
	for {
		cur := d.min.Load()
		if v >= cur || d.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := d.max.Load()
		if v <= cur || d.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// Count returns the number of observations.
func (d *Distribution) Count() int64 { return d.count.Load() }

// Sum returns the exact sum of observations.
func (d *Distribution) Sum() int64 { return d.sum.Load() }

// Mean returns the exact arithmetic mean.
func (d *Distribution) Mean() float64 {
	n := d.count.Load()
	if n == 0 {
		return 0
	}
	return float64(d.sum.Load()) / float64(n)
}

// Min and Max are exact extremes.
func (d *Distribution) Min() int64 { return d.min.Load() }
func (d *Distribution) Max() int64 { return d.max.Load() }

// Quantile returns the value at quantile q in (0,1], bucket-resolution
// accurate and clamped to [Min, Max].
func (d *Distribution) Quantile(q float64) int64 {
	n := d.count.Load()
	if n == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	var seen int64
	for i := 0; i < distBuckets; i++ {
		seen += d.buckets[i].Load()
		if seen >= rank {
			v := bucketMid(i)
			if v < d.Min() {
				v = d.Min()
			}
			if v > d.Max() {
				v = d.Max()
			}
			return v
		}
	}
	return d.Max()
}

// Reset forgets every observation, for a measurement that reads one
// distribution's quantiles over its own window (handles stay valid).
func (d *Distribution) Reset() {
	d.count.Store(0)
	d.sum.Store(0)
	d.min.Store(0)
	d.max.Store(0)
	d.hasMin.Store(false)
	for i := range d.buckets {
		d.buckets[i].Store(0)
	}
}

// Registry is a hierarchical namespace of metrics. Lookup (Counter/Gauge/
// Distribution) is get-or-create and safe for concurrent use; handles are
// stable for the life of the registry, so call sites resolve once and keep
// the pointer.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	dists    map[string]*Distribution
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		dists:    make(map[string]*Distribution),
	}
}

// Default is the process-wide registry every instrumented package uses.
var Default = NewRegistry()

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; ok {
		return c
	}
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; ok {
		return g
	}
	g = &Gauge{}
	r.gauges[name] = g
	return g
}

// Distribution returns the named distribution, creating it if needed.
func (r *Registry) Distribution(name string) *Distribution {
	r.mu.RLock()
	d, ok := r.dists[name]
	r.mu.RUnlock()
	if ok {
		return d
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if d, ok = r.dists[name]; ok {
		return d
	}
	d = &Distribution{}
	r.dists[name] = d
	return d
}

// C, G and D are shorthands on the Default registry, intended for
// package-level handle resolution at the instrumentation site:
//
//	var cCreditReturns = telemetry.C("sd/shm/ring/credit_returns")
func C(name string) *Counter      { return Default.Counter(name) }
func G(name string) *Gauge        { return Default.Gauge(name) }
func D(name string) *Distribution { return Default.Distribution(name) }

// Reset zeroes every metric in the registry (handles stay valid).
func (r *Registry) Reset() {
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, c := range r.counters {
		c.reset()
	}
	for _, g := range r.gauges {
		g.reset()
	}
	for _, d := range r.dists {
		d.Reset()
	}
}

// Snapshot is a point-in-time flat view of a registry. Derived keys:
//
//	<name>         counter value / gauge level / (dist) observation count
//	<name>/hw      gauge high-water mark
//	<name>/sum     distribution sum
//	<name>/p50,/p99  distribution quantiles (not meaningful to Diff)
type Snapshot map[string]int64

// Snapshot captures every metric currently in the registry.
func (r *Registry) Snapshot() Snapshot {
	s := make(Snapshot)
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, c := range r.counters {
		s[name] = c.Load()
	}
	for name, g := range r.gauges {
		s[name] = g.Load()
		s[name+"/hw"] = g.High()
	}
	for name, d := range r.dists {
		s[name] = d.Count()
		s[name+"/sum"] = d.Sum()
		s[name+"/p50"] = d.Quantile(0.50)
		s[name+"/p99"] = d.Quantile(0.99)
	}
	return s
}

// Snapshot captures the Default registry.
func Capture() Snapshot { return Default.Snapshot() }

// Diff returns s - earlier, element-wise, including keys absent from
// earlier (treated as zero). Counter and count/sum entries become true
// deltas; gauge levels and quantiles become level changes — callers
// attributing work to an interval should read the counter keys.
func (s Snapshot) Diff(earlier Snapshot) Snapshot {
	out := make(Snapshot, len(s))
	for k, v := range s {
		out[k] = v - earlier[k]
	}
	return out
}

// Get returns a value by key (zero when absent).
func (s Snapshot) Get(key string) int64 { return s[key] }

// Keys returns all keys in sorted order.
func (s Snapshot) Keys() []string {
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Format renders the snapshot as aligned "name value" lines, skipping
// zero-valued entries when skipZero is set.
func (s Snapshot) Format(skipZero bool) string {
	var b strings.Builder
	w := 0
	keys := s.Keys()
	for _, k := range keys {
		if len(k) > w {
			w = len(k)
		}
	}
	for _, k := range keys {
		if skipZero && s[k] == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-*s  %d\n", w, k, s[k])
	}
	return b.String()
}
