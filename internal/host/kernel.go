package host

import (
	"fmt"

	"socksdirect/internal/exec"
	"socksdirect/internal/fabric"
)

// Kernel is the host's simulated OS kernel: it charges syscall crossings,
// owns the network device ports used by the kernel TCP stack, and provides
// the classic kernel IPC objects (pipes, Unix-domain sockets). Its costs
// are the Linux baseline's handicap — exactly the overheads Table 1 lists.
type Kernel struct {
	h        *Host
	netPorts map[string]*fabric.Endpoint
	fab      *fabric.Port // routed fabric attachment (N-host topologies)
	protos   map[string]func(src string, frame any)
	loop     *fabric.Endpoint
}

func newKernel(h *Host) *Kernel {
	k := &Kernel{
		h:        h,
		netPorts: make(map[string]*fabric.Endpoint),
		protos:   make(map[string]func(string, any)),
	}
	k.loop = fabric.NewLoopback(h.Clk, h.Name+"/lo", fabric.Config{})
	k.loop.SetHandler(func(f any, _ int) { k.deliver(h.Name, f) })
	return k
}

// netFrame tags a frame with the protocol family that owns it, modelling
// NIC flow bifurcation (kernel TCP vs. a kernel-bypass user stack sharing
// the same port).
type netFrame struct {
	proto   string
	payload any
}

// Syscall charges one kernel crossing (KPTI-era cost).
func (k *Kernel) Syscall(ctx exec.Context) {
	mSyscalls.Inc()
	ctx.Charge(k.h.Costs.Syscall)
}

func (k *Kernel) addNetPort(remote string, ep *fabric.Endpoint) {
	k.netPorts[remote] = ep
	ep.SetHandler(func(f any, _ int) { k.deliver(remote, f) })
}

// AttachFabric wires the kernel network stack into a routed fabric.Net:
// NetSend routes through the fabric's directed edges for hosts without a
// dedicated point-to-point port, and inbound fabric frames dispatch by
// their source host exactly like point-to-point arrivals.
func (k *Kernel) AttachFabric(p *fabric.Port) {
	k.fab = p
	p.SetHandler(func(src string, f any, _ int) { k.deliver(src, f) })
}

func (k *Kernel) deliver(src string, frame any) {
	nf, ok := frame.(netFrame)
	if !ok {
		return
	}
	rx := k.protos[nf.proto]
	if rx != nil {
		rx(src, nf.payload)
	}
}

// RegisterProto installs a receive entry point (interrupt context) for one
// protocol family ("tcp" for the kernel stack, "vma" for the user-space
// stack, ...).
func (k *Kernel) RegisterProto(proto string, fn func(src string, frame any)) {
	k.protos[proto] = fn
}

// NetSend transmits a frame toward remote ("" or the host's own name means
// loopback) under the given protocol family.
func (k *Kernel) NetSend(proto, remote string, frame any, size int) error {
	f := netFrame{proto: proto, payload: frame}
	if remote == "" || remote == k.h.Name {
		k.loop.Send(f, size)
		return nil
	}
	ep, ok := k.netPorts[remote]
	fab := k.fab
	if !ok {
		if fab != nil && fab.Reaches(remote) {
			return fab.SendTo(remote, f, size)
		}
		return fmt.Errorf("host %s: no route to %q", k.h.Name, remote)
	}
	ep.Send(f, size)
	return nil
}
