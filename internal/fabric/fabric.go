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

	"socksdirect/internal/bufpool"
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

// Releasable is implemented by recycled frames (e.g. the RDMA layer's
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

// Endpoint is one side of a link (a NIC port). Handler is invoked at
// delivery time in timer context and must not block.
type Endpoint struct {
	clk     exec.Clock
	name    string
	peer    *Endpoint
	cfg     Config
	handler func(frame any, wireBytes int)

	nextFree int64      // when the TX wire is next idle
	rng      *rand.Rand // built on the first loss or jitter draw (random)
	seed     int64
	stats    Stats
	free     *bufpool.FreeList[delivery] // deliveries, shared by the link's or Net's endpoints

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
	return newLink(clk, nameA, nameB, cfg, new(bufpool.FreeList[delivery]))
}

// newLink is NewLink with the endpoints' delivery list given.
func newLink(clk exec.Clock, nameA, nameB string, cfg Config, free *bufpool.FreeList[delivery]) (*Endpoint, *Endpoint) {
	a := newEndpoint(clk, nameA, cfg, 0x5a5a, free)
	b := newEndpoint(clk, nameB, cfg, 0xa5a5, free)
	a.peer, b.peer = b, a
	return a, b
}

// NewLoopback creates an endpoint whose frames hairpin back to itself
// (CPU→NIC→CPU within a host, the intra-host path of RSocket/LibVMA).
func NewLoopback(clk exec.Clock, name string, cfg Config) *Endpoint {
	e := newEndpoint(clk, name, cfg, 0x10b, new(bufpool.FreeList[delivery]))
	e.peer = e
	return e
}

func newEndpoint(clk exec.Clock, name string, cfg Config, salt int64, free *bufpool.FreeList[delivery]) *Endpoint {
	return &Endpoint{clk: clk, name: name, cfg: cfg, seed: cfg.Seed ^ salt,
		lossRate: cfg.LossRate, jitterNs: cfg.JitterNs, free: free}
}

// random returns the endpoint's source of drops and jitter, seeded when it
// is first needed: most endpoints never draw from it.
func (e *Endpoint) random() *rand.Rand {
	if e.rng == nil {
		e.rng = rand.New(rand.NewSource(e.seed))
	}
	return e.rng
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
	return e.stats
}

// Send transmits a frame of the given payload size toward the peer. The
// frame value crosses as-is (the simulation does not serialize bytes); the
// size is used for wire-time accounting. Send never blocks: a frame that
// exceeds the wire's instantaneous capacity is queued behind it in time.
func (e *Endpoint) Send(frame any, payloadBytes int) {
	wire := payloadBytes + e.cfg.PerFrameOverheadBytes
	now := e.clk.Now()

	e.stats.TxFrames++
	e.stats.TxBytes += uint64(payloadBytes)
	mTxFrames.Inc()
	mTxBytes.Add(int64(payloadBytes))

	if e.partitioned || (e.lossRate > 0 && e.random().Float64() < e.lossRate) {
		e.stats.Drops++
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
		deliverAt += e.random().Int63n(e.jitterNs)
	}
	peer := e.peer

	// Delivery events are recycled with a pre-bound trampoline: scheduling
	// a frame allocates neither a closure nor a timer box, which is what
	// keeps the per-packet fabric cost at zero steady-state allocations.
	d := e.free.Get()
	if d == nil {
		d = new(delivery)
		d.fn = d.run
	}
	d.peer = peer
	d.frame = frame
	d.payloadBytes = payloadBytes
	d.wire = wire
	e.clk.After(deliverAt-now, d.fn)
}

// delivery is one scheduled frame arrival. fn is bound to run once, when
// the object is made, and reused every time it comes off the free list.
type delivery struct {
	peer         *Endpoint
	frame        any
	payloadBytes int
	wire         int
	fn           func()
}

func (d *delivery) run() {
	peer, frame, payloadBytes, wire := d.peer, d.frame, d.payloadBytes, d.wire
	d.peer, d.frame = nil, nil
	peer.free.Put(d) // fields are copied out; safe to recycle before handling
	peer.stats.RxFrames++
	peer.stats.RxBytes += uint64(payloadBytes)
	mRxFrames.Inc()
	mRxBytes.Add(int64(payloadBytes))
	h := peer.handler
	if h != nil {
		h(frame, wire)
	}
	releaseFrame(frame) // the fabric's reference for this transmitted copy
}
