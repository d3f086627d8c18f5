package fabric

import (
	"hash/fnv"
	"sort"

	"socksdirect/internal/exec"
)

// Net is an N-host routed topology: a switch connecting one Port per host,
// built as a full mesh of duplex links (NewLink) so every edge keeps the
// Endpoint timing model (serialization, propagation, loss, jitter) and the
// per-direction runtime fault knobs. A sender resolves the directed edge
// toward its destination host once (Port.EdgeTo) and sends on it; each
// directed edge is an independent Endpoint, so fault schedules can cut or
// degrade any edge — including only one direction of it — without
// touching the rest of the fabric.
//
// The mesh is the topology the paper assumes of a datacenter RDMA fabric:
// any host reaches any other in one switch hop with uniform wire
// characteristics. Per-edge deviations (a slow rack uplink, a lossy cable)
// are modelled by mutating that edge's knobs, not by growing a routing
// protocol the paper does not have.
type Net struct {
	clk  exec.Clock
	name string // plane name, e.g. "rdma" or "net"; used in endpoint names
	base Config

	ports map[string]*Port
	edges map[edgeKey]*Endpoint
	hosts []string // sorted; AddHost wiring order, for determinism
}

// edgeKey names one directed edge: frames transmitted by src toward dst.
type edgeKey struct{ src, dst string }

// Port is one host's attachment to a Net. A Port owns no timing state of
// its own: it hands out the host's directed edges and receives what
// arrives on them.
type Port struct {
	net     *Net
	host    string
	handler func(src string, frame any, wireBytes int)
}

// NewNet creates an empty switch on the given clock. base supplies the
// wire characteristics every edge starts from; each edge derives its own
// deterministic rng seed from base.Seed and the edge's endpoint names, so
// loss/jitter streams are independent per edge and stable across runs
// regardless of the order hosts join.
func NewNet(clk exec.Clock, name string, base Config) *Net {
	return &Net{
		clk:   clk,
		name:  name,
		base:  base,
		ports: make(map[string]*Port),
		edges: make(map[edgeKey]*Endpoint),
	}
}

// pairSeed derives a per-link seed from the base seed and the (unordered)
// pair of hosts, so adding hosts in a different order yields the same
// per-edge rng streams.
func (n *Net) pairSeed(a, b string) int64 {
	if a > b {
		a, b = b, a
	}
	h := fnv.New64a()
	h.Write([]byte(n.name))
	h.Write([]byte{0})
	h.Write([]byte(a))
	h.Write([]byte{0})
	h.Write([]byte(b))
	return n.base.Seed ^ int64(h.Sum64())
}

// AddHost attaches a host to the switch, wiring duplex links to every host
// already attached (in sorted name order, so the event schedule of a run
// does not depend on map iteration). Returns the host's Port. Adding the
// same host twice returns the existing Port.
func (n *Net) AddHost(host string) *Port {
	if p := n.ports[host]; p != nil {
		return p
	}
	p := &Port{net: n, host: host}
	peers := append([]string(nil), n.hosts...)
	sort.Strings(peers)
	for _, peer := range peers {
		// Canonical orientation: the link is always created lo->hi, so each
		// direction's rng stream is pinned to the unordered pair and does
		// not depend on which of the two hosts joined the switch later.
		lo, hi := host, peer
		if lo > hi {
			lo, hi = hi, lo
		}
		cfg := n.base
		cfg.Seed = n.pairSeed(lo, hi)
		el, eh := NewLink(n.clk, lo+"->"+hi+"/"+n.name, hi+"->"+lo+"/"+n.name, cfg)
		n.edges[edgeKey{lo, hi}] = el
		n.edges[edgeKey{hi, lo}] = eh
		plo, phi := p, n.ports[peer]
		if lo != host {
			plo, phi = phi, plo
		}
		// An endpoint's handler fires for frames arriving FROM its peer:
		// edge (x,y) is x's transmitter toward y, so its handler delivers
		// inbound frames from y into x's port.
		el.SetHandler(func(f any, wire int) { plo.deliver(hi, f, wire) })
		eh.SetHandler(func(f any, wire int) { phi.deliver(lo, f, wire) })
	}
	n.ports[host] = p
	n.hosts = append(n.hosts, host)
	sort.Strings(n.hosts)
	return p
}

// Edge returns the directed edge src->dst (src's transmitter toward dst),
// or nil. Fault schedules use it to reach one direction's runtime knobs;
// cutting Edge(a,b) blackholes a's frames toward b while b's frames toward
// a still flow.
func (n *Net) Edge(src, dst string) *Endpoint {
	return n.edges[edgeKey{src, dst}]
}

// SetHandler installs the receive pipeline: h runs at delivery time in
// timer context (like Endpoint handlers) with the sending host's name.
func (p *Port) SetHandler(h func(src string, frame any, wireBytes int)) {
	p.handler = h
}

func (p *Port) deliver(src string, frame any, wireBytes int) {
	h := p.handler
	if h != nil {
		h(src, frame, wireBytes)
	}
}

// EdgeTo returns this host's transmitter toward dst, or nil when dst has
// not joined. A sender resolves it once and sends on the Endpoint.
func (p *Port) EdgeTo(dst string) *Endpoint { return p.net.Edge(p.host, dst) }
