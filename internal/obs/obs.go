// Package obs is the causal observability layer over the control plane:
// per-operation span tracing, instant events, a per-connection flow table,
// and an anomaly-triggered flight recorder. SocksDirect routes every bind,
// connect, accept, token takeover, fork handshake and failure-recovery
// exchange through the per-host monitor (§3, §4.1), so a single slow or
// failed operation hops app → libsd → monitor → mchan → peer monitor →
// peer libsd; this package assigns each such operation a trace ID,
// records one span per hop into bounded per-process rings (virtual-time
// timestamps, zero allocation), and reconstructs end-to-end timelines
// with a per-hop latency breakdown — the evidence base the sharded
// monitor is judged on (ARCHITECTURE.md "Sharded control plane").
// The same rings hold instant events (Emit). The flow table is the `ss`-style view of every connection's transport
// (SHM ring / RDMA QP), byte counts and failure history; the flight
// recorder turns resets, QP recoveries and monitor restarts into
// self-explaining Chrome-trace dumps.
package obs

import (
	"sync"
	"sync/atomic"

	"socksdirect/internal/ctlmsg"
	"socksdirect/internal/telemetry"
)

// Package-wide metric handles (resolved once; see internal/telemetry).
var (
	mSpans   = telemetry.C(telemetry.ObsSpans)
	mDropped = telemetry.C(telemetry.ObsDropped)
)

// enabled gates span and event recording. Tracing is on by default —
// recording is allocation-free and control-plane operations are rare next
// to data-path ops — and can be switched off to measure the
// instrumentation itself.
var enabled atomic.Bool

func init() { enabled.Store(true) }

// SetEnabled turns span and event recording on or off. The flow table is not
// gated: it is plain atomic accounting and sdstat must work regardless.
func SetEnabled(v bool) { enabled.Store(v) }

// Enabled reports whether spans are being recorded.
func Enabled() bool { return enabled.Load() }

// Op identifies which control-plane operation a trace belongs to.
type Op uint8

// Traced control-plane operations.
const (
	OpNone Op = iota
	OpConnect
	OpAccept
	OpBind
	OpTakeover
	OpFork
	OpRecovery
	OpReRegister
)

var opNames = [...]string{
	OpNone:       "none",
	OpConnect:    "connect",
	OpAccept:     "accept",
	OpBind:       "bind",
	OpTakeover:   "takeover",
	OpFork:       "fork",
	OpRecovery:   "recovery",
	OpReRegister: "reregister",
}

// String returns the op's stable lower-case name.
func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return "unknown"
}

// Hop identifies which leg of an operation's journey a span covers.
type Hop uint8

// Hops of a control-plane operation, in causal order for a cross-host
// connect: the root span (HopApp) covers the whole blocking call; each
// message then contributes a queue hop (HopProcRing: sender enqueue to
// monitor/libsd dequeue on the SHM control duplex), a dispatch hop
// (HopMonDispatch / HopPeerDispatch: time inside the monitor's handler),
// and — across hosts — an mchan flight hop.
const (
	HopApp           Hop = iota // root: the blocking API call itself
	HopProcRing                 // SHM control-ring queue (libsd <-> monitor)
	HopMonDispatch              // local monitor handler
	HopMchanFlight              // monitor-to-monitor RDMA channel
	HopPeerDispatch             // remote monitor handler
	HopShardDispatch            // router -> shard inbox (sharded monitor routing)
	HopEvent                    // not a hop: an instant event (see Event)
)

var hopNames = [...]string{
	HopApp:           "app",
	HopProcRing:      "proc_ring",
	HopMonDispatch:   "mon_dispatch",
	HopMchanFlight:   "mchan_flight",
	HopPeerDispatch:  "peer_dispatch",
	HopShardDispatch: "shard_dispatch",
	HopEvent:         "event",
}

// String returns the hop's stable lower-case name.
func (h Hop) String() string {
	if int(h) < len(hopNames) {
		return hopNames[h]
	}
	return "unknown"
}

// Span is one recorded interval or instant. Root spans (Hop == HopApp)
// carry the Op and an OK flag set when the operation completed
// successfully; hop spans carry the ctlmsg kind that travelled the hop.
// An event (Hop == HopEvent) belongs to no trace (Trace 0): Start is its
// time, Ev what happened, and its two arguments ride in Parent and End,
// which an instant has no use for. All timestamps are virtual-time
// nanoseconds. Ev sits in padding: a Span stays 72 bytes.
type Span struct {
	Trace  uint64
	Span   uint64
	Parent uint64
	Start  int64
	End    int64
	Host   string
	PID    int64
	Op     Op
	Hop    Hop
	Kind   uint8 // ctlmsg kind for hop spans, EvCtl and EvRemote
	OK     bool  // root spans: operation completed successfully
	Ev     Event // events only
}

// Event says what an instant record reports.
type Event uint8

// Events, each with its component and argument names in the catalog below.
const (
	EvTokenTakeover   Event = iota + 1 // core: a thread takes a socket's token over
	EvReset                            // core: ECONNRESET surfaces on a socket
	EvZCRemap                          // core: RecvVA remaps a zero-copy message's pages
	EvRecoveryAttempt                  // core: a QP recovery attempt starts
	EvRecoveryDone                     // core: a QP recovery completes
	EvRetransmit                       // rdma: go-back-N retransmission on an RTO
	EvCtl                              // monitor: handled a message off a process ring
	EvRemote                           // monitor: handled a message off the mchan
	EvCrashCleanup                     // monitor: reclaimed a dead process
	EvHostDeadSweep                    // monitor: a shard reset a dead host's connections
	EvHBSuspect                        // monitor: a peer missed enough heartbeats
	EvHostDead                         // monitor: a peer host confirmed dead
	numEvents
)

// events is the catalog: name (EvCtl's and EvRemote's are a prefix to
// the ctlmsg kind), component, and what the two arguments mean.
var events = [numEvents]struct {
	name, comp string
	args       [2]string
}{
	EvTokenTakeover:   {"token_takeover", "core", [2]string{"qid", "dir"}},
	EvReset:           {"reset", "core", [2]string{"qid", "dir"}},
	EvZCRemap:         {"zc_remap", "core", [2]string{"pages"}},
	EvRecoveryAttempt: {"recovery_attempt", "core", [2]string{"qid", "attempt"}},
	EvRecoveryDone:    {"recovery_done", "core", [2]string{"qid"}},
	EvRetransmit:      {"retransmit", "rdma", [2]string{"qpn", "inflight"}},
	EvCtl:             {"ctl/", "monitor", [2]string{"pid"}},
	EvRemote:          {"remote/", "monitor", [2]string{"port"}},
	EvCrashCleanup:    {"crash_cleanup", "monitor", [2]string{"pid"}},
	EvHostDeadSweep:   {"host_dead_sweep", "monitor", [2]string{"conns_reset"}},
	EvHBSuspect:       {"hb_suspect", "monitor", [2]string{"missed"}},
	EvHostDead:        {"host_dead", "monitor", [2]string{"shards"}},
}

// Component names the layer that emits the event: "core", "rdma" or
// "monitor".
func (e Event) Component() string { return events[e].comp }

// Name is what a reader calls the record: "op:<op>" for a root span, the
// hop for a hop span, and for an event its name, built here and not when
// it was recorded ("ctl/" or "remote/" and the ctlmsg kind for a handled
// message).
func (sp *Span) Name() string {
	switch {
	case sp.Hop == HopApp:
		return "op:" + sp.Op.String()
	case sp.Hop != HopEvent:
		return sp.Hop.String()
	case sp.Ev == EvCtl || sp.Ev == EvRemote:
		return events[sp.Ev].name + ctlmsg.Kind(sp.Kind).String()
	}
	return events[sp.Ev].name
}

// Args returns an event's arguments by name.
func (sp *Span) Args() map[string]int64 {
	e := events[sp.Ev]
	out := map[string]int64{e.args[0]: int64(sp.Parent)}
	if e.args[1] != "" {
		out[e.args[1]] = sp.End
	}
	return out
}

// ID generation: one global counter each for traces and spans, so IDs
// are unique across hosts and processes (the simulation shares one
// address space; a real deployment would salt with a host ID).
var traceIDs, spanIDs atomic.Uint64

// NextSpan returns a fresh span ID.
func NextSpan() uint64 { return spanIDs.Add(1) }

// DefaultRingCap is the per-process span ring capacity.
const DefaultRingCap = 4096

// A ring is backed as it fills: its head, then ringPiece spans at a time.
const ringHead, ringPiece = 64, 1024

// ring is one bounded per-process span buffer: overwrite-oldest, never
// block, at most five allocations in its lifetime (itself and its pieces).
type ring struct {
	mu      sync.Mutex
	head    [ringHead]Span
	pieces  [DefaultRingCap / ringPiece][]Span
	next    int
	wrapped bool
}

func (r *ring) record(sp Span) {
	r.mu.Lock()
	if r.wrapped {
		mDropped.Inc()
	}
	p, i := r.next/ringPiece, r.next%ringPiece
	if i == len(r.pieces[p]) {
		grown := make([]Span, ringPiece)
		copy(grown, r.pieces[p])
		r.pieces[p] = grown
	}
	r.pieces[p][i] = sp
	if r.next++; r.next == DefaultRingCap {
		r.next = 0
		r.wrapped = true
	}
	r.mu.Unlock()
}

// spans returns retained spans oldest-first.
func (r *ring) spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	n, first := r.next, 0
	if r.wrapped {
		n, first = DefaultRingCap, r.next
	}
	out := make([]Span, n)
	for k := range out {
		i := (first + k) % DefaultRingCap
		out[k] = r.pieces[i/ringPiece][i%ringPiece]
	}
	return out
}

// ringKey addresses one process's span ring. The monitor records under
// PID 0 (it is the per-host daemon, not an application process).
type ringKey struct {
	host string
	pid  int64
}

var rings struct {
	mu sync.Mutex
	m  map[ringKey]*ring
}

func init() { rings.m = make(map[ringKey]*ring) }

func ringFor(host string, pid int64) *ring {
	k := ringKey{host, pid}
	rings.mu.Lock()
	r := rings.m[k]
	if r == nil {
		r = &ring{}
		r.pieces[0] = r.head[:]
		rings.m[k] = r
	}
	rings.mu.Unlock()
	return r
}

// Record stores one span into the (host, pid) ring. It is a no-op when
// recording is disabled.
func Record(sp Span) {
	if !enabled.Load() {
		return
	}
	ringFor(sp.Host, sp.PID).record(sp)
	mSpans.Inc()
}

// RecordHop records one hop span for a traced message and returns the
// new span ID to propagate as the next hop's parent. When recording is
// disabled or the message is untraced (trace == 0) nothing is recorded
// and parent is returned unchanged, so call sites can write the result
// back unconditionally.
func RecordHop(host string, pid int64, hop Hop, kind uint8, trace, parent uint64, start, end int64) uint64 {
	if trace == 0 || !enabled.Load() {
		return parent
	}
	sid := spanIDs.Add(1)
	ringFor(host, pid).record(Span{
		Trace: trace, Span: sid, Parent: parent,
		Start: start, End: end,
		Host: host, PID: pid, Hop: hop, Kind: kind,
	})
	mSpans.Inc()
	return sid
}

// Emit records one event at virtual time now into the (host, pid) ring:
// a, b are its arguments and kind the ctlmsg kind of EvCtl and EvRemote.
// It draws its Span from the span-ID counter, so ordering events by Span
// gives their emission order across every ring. It allocates nothing and
// is a no-op when recording is disabled.
func Emit(host string, pid int64, ev Event, kind uint8, now, a, b int64) {
	if !enabled.Load() {
		return
	}
	ringFor(host, pid).record(Span{
		Span: spanIDs.Add(1), Parent: uint64(a), Start: now, End: b,
		Host: host, PID: pid, Hop: HopEvent, Kind: kind, Ev: ev,
	})
	mSpans.Inc()
}

// AllSpans returns every retained span and event across all rings,
// unsorted.
func AllSpans() []Span {
	rings.mu.Lock()
	rs := make([]*ring, 0, len(rings.m))
	for _, r := range rings.m {
		rs = append(rs, r)
	}
	rings.mu.Unlock()
	var out []Span
	for _, r := range rs {
		out = append(out, r.spans()...)
	}
	return out
}

// OpSpan is an in-flight root span: created by BeginOp at the start of a
// blocking control-plane call, closed by End when it returns. It is a
// value type — carrying one through a call path costs no allocation.
type OpSpan struct {
	Trace uint64
	Span  uint64
	host  string
	pid   int64
	op    Op
	start int64
}

// BeginOp opens a root span for an operation. When recording is
// disabled the returned OpSpan is inert (Trace == 0) and End is a no-op.
func BeginOp(host string, pid int64, op Op, now int64) OpSpan {
	if !enabled.Load() {
		return OpSpan{}
	}
	return OpSpan{
		Trace: traceIDs.Add(1),
		Span:  spanIDs.Add(1),
		host:  host, pid: pid, op: op, start: now,
	}
}

// End records the root span. ok marks the operation as having completed
// successfully (trace-completeness audits only consider ok roots:
// crash drills legitimately leave victims' operations unfinished).
func (o OpSpan) End(now int64, ok bool) {
	if o.Trace == 0 {
		return
	}
	Record(Span{
		Trace: o.Trace, Span: o.Span,
		Start: o.start, End: now,
		Host: o.host, PID: o.pid,
		Op: o.op, Hop: HopApp, OK: ok,
	})
}

// Reset clears all rings, flows, recorder state and ID counters
// (tests and sdbench between experiments).
func Reset() {
	rings.mu.Lock()
	rings.m = make(map[ringKey]*ring)
	rings.mu.Unlock()
	traceIDs.Store(0)
	spanIDs.Store(0)
	resetFlows()
	resetRecorder()
}
