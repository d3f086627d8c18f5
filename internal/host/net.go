package host

import (
	"socksdirect/internal/exec"
	"socksdirect/internal/fabric"
)

// Net is the cluster's routed network: two fabric.Net planes with
// identical wire characteristics, one for the RDMA NICs and one for the
// kernel network stacks. The two planes are deliberately separate objects
// with separate edges — the monitor's liveness design (§4.5.4 flavor)
// depends on the kernel probe path being fate-independent from the RDMA
// path, so a fault schedule must be able to cut one plane of an edge
// while the other keeps carrying probes.
type Net struct {
	Rdma *fabric.Net // RDMA plane (NIC-to-NIC edges)
	Knet *fabric.Net // kernel plane (TCP/probe edges)
}

// NewNet builds both planes with the wire characteristics cfg (LinkConfig
// gives the cost model's).
func NewNet(clk exec.Clock, cfg fabric.Config) *Net {
	return &Net{
		Rdma: fabric.NewNet(clk, "rdma", cfg),
		Knet: fabric.NewNet(clk, "net", cfg),
	}
}

// Join attaches hosts to both planes: each NIC routes RDMA frames over the
// rdma plane and each kernel stack routes TCP frames over the net plane.
// Join a host once; edges toward every host that joined before it are
// wired by the underlying fabric.Net.
func (n *Net) Join(hs ...*Host) {
	for _, h := range hs {
		h.NIC.AttachFabric(n.Rdma.AddHost(h.Name))
		h.Kern.AttachFabric(n.Knet.AddHost(h.Name))
	}
}
