package host

import (
	"fmt"

	"socksdirect/internal/exec"
	"socksdirect/internal/fabric"
)

// Kernel is the host's simulated OS kernel: it charges syscall crossings,
// owns the network device used by the kernel TCP stack (its loopback and
// its port on the kernel plane), and provides the classic kernel IPC
// objects (pipes, Unix-domain sockets). Its costs are the Linux baseline's
// handicap — exactly the overheads Table 1 lists.
type Kernel struct {
	h      *Host
	fab    *fabric.Port // the kernel plane of the routed network
	protos map[string]func(src string, frame any)
	loop   *fabric.Endpoint
}

func newKernel(h *Host) *Kernel {
	k := &Kernel{
		h:      h,
		protos: make(map[string]func(string, any)),
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

// AttachFabric joins the kernel network stack to the routed network's
// kernel plane: NetSend routes through the port's directed edges, and
// inbound frames dispatch by their source host.
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
	var ep *fabric.Endpoint
	if k.fab != nil {
		ep = k.fab.EdgeTo(remote)
	}
	if ep == nil {
		return fmt.Errorf("host %s: no route to %q", k.h.Name, remote)
	}
	ep.Send(f, size)
	return nil
}
