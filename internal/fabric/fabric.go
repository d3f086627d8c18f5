// Package fabric simulates the physical network between hosts: a routed
// switch (Net) whose edges are full-duplex links with propagation delay,
// wire-rate serialization and optional loss/jitter injection, plus an
// intra-host loopback ("hairpin") path. The RDMA layer (internal/rdma) runs
// on top of it; the kernel TCP stack and the user-space TCP baselines share
// the same wire characteristics so every system under comparison sees the
// same wire.
//
// Delivery timing uses exec.Clock.After, so latencies are exact virtual
// nanoseconds.
package fabric

import (
	"math/rand"
	"sync"
	"sync/atomic"

	"socksdirect/internal/exec"
	"socksdirect/internal/telemetry"
)

// Package-wide metric handles (resolved once; see internal/telemetry).
var (
	mTxFrames = telemetry.C(telemetry.FabricTxFrames)
	mTxBytes  = telemetry.C(telemetry.FabricTxBytes)
	mRxFrames = telemetry.C(telemetry.FabricRxFrames)
	mRxBytes  = telemetry.C(telemetry.FabricRxBytes)
	mDrops    = telemetry.C(telemetry.FabricDrops)
)

// Releasable is implemented by pooled frames (e.g. the RDMA layer's
// packets). Send takes ownership of one reference per call: the fabric
// releases it when the frame is dropped (loss, partition) or after the
// delivery handler returns. Handlers must therefore copy out any payload
// bytes they need before returning. Frames that do not implement the
// interface are garbage-collected as usual.
type Releasable interface{ ReleaseFrame() }

func releaseFrame(frame any) {
	if r, ok := frame.(Releasable); ok {
		r.ReleaseFrame()
	}
}

// Config describes one direction of a link.
type Config struct {
	// PropDelay is the one-way fixed latency in ns: NIC pipeline + wire
	// (+ doorbell/DMA when modelling an RDMA path).
	PropDelay int64
	// GbitPerSec is the serialization rate; 0 disables bandwidth limits.
	GbitPerSec float64
	// LossRate drops frames with this probability (transport tests).
	LossRate float64
	// JitterNs adds uniform random extra delay in [0, JitterNs) to model
	// reordering-prone fabrics. Zero keeps FIFO order.
	JitterNs int64
	// Seed makes loss/jitter deterministic.
	Seed int64
	// PerFrameOverheadBytes models headers on the wire (Ethernet+IP+
	// transport) for serialization-delay purposes.
	PerFrameOverheadBytes int
}

// Stats counts traffic on one endpoint.
type Stats struct {
	TxFrames, TxBytes uint64
	RxFrames, RxBytes uint64
	Drops             uint64
}

// counters is the endpoint-internal atomic form of Stats: Rx increments
// happen in timer (delivery) context concurrently with sender-side Tx
// updates and Stats() readers, so each field must be independently atomic.
type counters struct {
	txFrames, txBytes atomic.Uint64
	rxFrames, rxBytes atomic.Uint64
	drops             atomic.Uint64
}

// Endpoint is one side of a link (a NIC port). Handler is invoked at
// delivery time in timer context and must not block.
type Endpoint struct {
	clk     exec.Clock
	name    string
	peer    *Endpoint
	cfg     Config
	handler func(frame any, wireBytes int)

	nextFree int64 // when the TX wire is next idle
	rng      *rand.Rand
	stats    counters

	// Runtime-mutable fault knobs (initialized from cfg; see SetLossRate
	// and friends). Fault injection mutates them mid-run, so the TX path
	// reads them instead of cfg.
	lossRate     float64
	jitterNs     int64
	extraDelayNs int64 // added one-way delay (delay-spike injection)
	partitioned  bool  // drop everything (full partition)
}

// NewLink creates a full-duplex link between two new endpoints with
// symmetric configuration.
func NewLink(clk exec.Clock, nameA, nameB string, cfg Config) (*Endpoint, *Endpoint) {
	a := &Endpoint{clk: clk, name: nameA, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed ^ 0x5a5a)),
		lossRate: cfg.LossRate, jitterNs: cfg.JitterNs}
	b := &Endpoint{clk: clk, name: nameB, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed ^ 0xa5a5)),
		lossRate: cfg.LossRate, jitterNs: cfg.JitterNs}
	a.peer, b.peer = b, a
	return a, b
}

// NewLoopback creates an endpoint whose frames hairpin back to itself
// (CPU→NIC→CPU within a host, the intra-host path of RSocket/LibVMA).
func NewLoopback(clk exec.Clock, name string, cfg Config) *Endpoint {
	e := &Endpoint{clk: clk, name: name, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed ^ 0x10b)),
		lossRate: cfg.LossRate, jitterNs: cfg.JitterNs}
	e.peer = e
	return e
}

// SetLossRate changes the drop probability at runtime (fault injection).
func (e *Endpoint) SetLossRate(p float64) {
	e.lossRate = p
}

// SetExtraDelay adds a fixed one-way delay on top of PropDelay (delay
// spikes). Zero restores the configured latency.
func (e *Endpoint) SetExtraDelay(ns int64) {
	e.extraDelayNs = ns
}

// SetPartitioned blackholes the TX direction entirely while true. Frames
// sent during a partition count as drops.
func (e *Endpoint) SetPartitioned(on bool) {
	e.partitioned = on
}

// SetHandler installs the receive pipeline. Must be set before traffic.
func (e *Endpoint) SetHandler(h func(frame any, wireBytes int)) { e.handler = h }

// Name returns the endpoint name.
func (e *Endpoint) Name() string { return e.name }

// Stats returns a snapshot of the endpoint's counters.
func (e *Endpoint) Stats() Stats {
	return Stats{
		TxFrames: e.stats.txFrames.Load(),
		TxBytes:  e.stats.txBytes.Load(),
		RxFrames: e.stats.rxFrames.Load(),
		RxBytes:  e.stats.rxBytes.Load(),
		Drops:    e.stats.drops.Load(),
	}
}

// Send transmits a frame of the given payload size toward the peer. The
// frame value crosses as-is (the simulation does not serialize bytes); the
// size is used for wire-time accounting. Send never blocks: a frame that
// exceeds the wire's instantaneous capacity is queued behind it in time.
func (e *Endpoint) Send(frame any, payloadBytes int) {
	wire := payloadBytes + e.cfg.PerFrameOverheadBytes
	now := e.clk.Now()

	e.stats.txFrames.Add(1)
	e.stats.txBytes.Add(uint64(payloadBytes))
	mTxFrames.Inc()
	mTxBytes.Add(int64(payloadBytes))

	if e.partitioned || (e.lossRate > 0 && e.rng.Float64() < e.lossRate) {
		e.stats.drops.Add(1)
		mDrops.Inc()
		releaseFrame(frame) // the wire ate this copy; return its staging
		return
	}
	ser := int64(0)
	if e.cfg.GbitPerSec > 0 {
		ser = int64(float64(wire*8) / e.cfg.GbitPerSec) // bits / Gbps = ns
	}
	start := e.nextFree
	if now > start {
		start = now
	}
	e.nextFree = start + ser
	deliverAt := e.nextFree + e.cfg.PropDelay + e.extraDelayNs
	if e.jitterNs > 0 {
		deliverAt += e.rng.Int63n(e.jitterNs)
	}
	peer := e.peer

	// Delivery events are pooled with a pre-bound trampoline: scheduling a
	// frame allocates neither a closure nor a timer box, which is what
	// keeps the per-packet fabric cost at zero steady-state allocations.
	d := deliveryPool.Get().(*delivery)
	d.peer = peer
	d.frame = frame
	d.payloadBytes = payloadBytes
	d.wire = wire
	e.clk.After(deliverAt-now, d.fn)
}

// delivery is one scheduled frame arrival. fn is bound to run once, when
// the object first leaves the pool, and reused for every subsequent
// transit through it.
type delivery struct {
	peer         *Endpoint
	frame        any
	payloadBytes int
	wire         int
	fn           func()
}

var deliveryPool sync.Pool

func init() {
	deliveryPool.New = func() any {
		d := &delivery{}
		d.fn = d.run
		return d
	}
}

func (d *delivery) run() {
	peer, frame, payloadBytes, wire := d.peer, d.frame, d.payloadBytes, d.wire
	d.peer, d.frame = nil, nil
	deliveryPool.Put(d) // fields are copied out; safe to recycle before handling
	peer.stats.rxFrames.Add(1)
	peer.stats.rxBytes.Add(uint64(payloadBytes))
	mRxFrames.Inc()
	mRxBytes.Add(int64(payloadBytes))
	h := peer.handler
	if h != nil {
		h(frame, wire)
	}
	releaseFrame(frame) // the fabric's reference for this transmitted copy
}
