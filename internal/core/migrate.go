package core

import (
	"socksdirect/internal/exec"
	"socksdirect/internal/host"
)

// Migrate implements container live migration (§4.1.3) for a process whose
// connections are inter-host (RDMA): the container's memory — including
// libsd's socket queues, so in-flight data survives — moves to the
// destination host, and every RDMA channel is re-established from there
// ("all communication channels become obsolete because SHM is local on a
// host and RDMA does not support live migration").
//
// It returns the migrated process and its libsd on the destination host.
// The source process is marked dead (the container no longer runs there);
// queue tokens are released so the migrated threads re-claim them through
// the destination monitor.
//
// Deviation from the paper, recorded in DESIGN.md: intra-host connections
// whose peer stays behind would need an SHM->RDMA conversion of a shared
// duplex into two mirrored copies; this reproduction migrates processes
// whose sockets are inter-host (the hard part — QP re-establishment with
// peers switching queues — is fully implemented and shared with fork).
func Migrate(l *Libsd, dst *host.Host, name string) (*host.Process, *Libsd, error) {
	reg, ok := dst.Mon.(registrar)
	if !ok || reg == nil {
		return nil, nil, ErrNoMonitor
	}
	// The destination monitor admits the container and gives it a control
	// queue (the orchestrator vouches for it; fork-style secret pairing
	// does not apply across hosts).
	np := dst.NewProcess(name, l.P.UID)
	nl, err := initWith(np, reg.RegisterProcess(np))
	if err != nil {
		return nil, nil, err
	}
	// Ship the FD remapping table. Socket metadata and buffers are libsd
	// memory: they travel with the container (the same Go objects), so
	// unconsumed ring bytes are preserved. Each socket splices a fresh QP
	// from the new host on first use, exactly like a forked child's
	// (§4.1.2 machinery reused). Kernel FDs (pipes, fallback TCP) cannot
	// follow the container, nor can intra-host sockets (see the deviation
	// note above).
	nl.inherit(l, l.fds, func(e fdEntry) bool {
		return e.kind == fdSocket && e.sock.intra == nil
	})
	for _, e := range nl.fds {
		// Release tokens held by the (now gone) source threads so the
		// migrated process claims them afresh. Its FD is a reference of its
		// own: the source's dies with the source.
		e.sock.side.Holder[DirSend].Store(0)
		e.sock.side.Holder[DirRecv].Store(0)
		e.sock.side.Refs.Add(1)
		// Its SHM segment moves with the container's memory, once per side.
		if _, err := l.H.SHM.Attach(e.sock.side.segTok); err == nil {
			l.H.SHM.Remove(e.sock.side.segTok)
			e.sock.side.segTok = dst.SHM.Create(e.sock.side).Token
		}
	}

	// The container stops existing at the source. Tell the source monitor
	// the sockets migrated with it first: the kill below must read as a
	// graceful handoff, not a crash — a KPeerDead fan-out here would reset
	// live connections the destination is about to re-splice.
	if d, ok := l.H.Mon.(interface{ DetachProcess(pid int) }); ok {
		d.DetachProcess(l.P.PID)
	}
	l.P.Signal(exec.Context{}, host.SIGKILL)
	return np, nl, nil
}
