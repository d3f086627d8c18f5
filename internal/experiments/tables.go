package experiments

import (
	"fmt"

	"socksdirect/internal/costmodel"
	"socksdirect/internal/exec"
	"socksdirect/internal/host"
	"socksdirect/internal/shm"
	"socksdirect/internal/telemetry"
)

// Table2Row is one primitive-operation measurement with the paper's value
// alongside (EXPERIMENTS.md compares them).
type Table2Row struct {
	Operation     string
	LatencyNs     float64 // round trip
	ThroughputOps float64
	PaperLatUs    float64
	PaperTputM    float64
	Source        string // "measured" or "model"
}

// Table2 regenerates the paper's Table 2: latency and single-core
// throughput of the primitive operations. Hardware-bound rows come from
// the calibrated cost model (they ARE the model); software rows are
// measured by running the real data structures under the scheduler.
func Table2() []Table2Row {
	c := &costmodel.Default
	rows := []Table2Row{
		{Operation: "Inter-core cache migration", LatencyNs: float64(c.CacheMiss), ThroughputOps: 1e9 / float64(c.CacheMiss) * 1.5, PaperLatUs: 0.03, PaperTputM: 50, Source: "model"},
		{Operation: "System call (before KPTI)", LatencyNs: float64(c.SyscallNoKPTI), ThroughputOps: 1e9 / float64(c.SyscallNoKPTI), PaperLatUs: 0.05, PaperTputM: 21, Source: "model"},
		{Operation: "Spinlock (no contention)", LatencyNs: float64(c.SpinlockOp), ThroughputOps: 1e9 / float64(c.SpinlockOp), PaperLatUs: 0.10, PaperTputM: 10, Source: "model"},
		{Operation: "Allocate and deallocate a buffer", LatencyNs: float64(c.BufferMgmt), ThroughputOps: 1e9 / float64(c.BufferMgmt), PaperLatUs: 0.13, PaperTputM: 7.7, Source: "model"},
		{Operation: "System call (after KPTI)", LatencyNs: float64(c.Syscall), ThroughputOps: 1e9 / float64(c.Syscall), PaperLatUs: 0.20, PaperTputM: 5.0, Source: "model"},
		{Operation: "Copy one page (4 KiB)", LatencyNs: float64(c.PageCopy4K), ThroughputOps: 1e9 / float64(c.PageCopy4K), PaperLatUs: 0.40, PaperTputM: 5.0, Source: "model"},
		{Operation: "Cooperative context switch", LatencyNs: float64(c.ContextSwitch), ThroughputOps: 1e9 / float64(c.ContextSwitch), PaperLatUs: 0.52, PaperTputM: 2.0, Source: "model"},
		{Operation: "Map one page (4 KiB)", LatencyNs: float64(c.MapCost(1)), ThroughputOps: 1e9 / float64(c.MapCost(1)), PaperLatUs: 0.78, PaperTputM: 1.3, Source: "model"},
		{Operation: "NIC hairpin within a host", LatencyNs: float64(c.NICHairpin), ThroughputOps: 1e9 / float64(c.NICHairpin), PaperLatUs: 0.95, PaperTputM: 1.0, Source: "model"},
		{Operation: "Map 32 pages (128 KiB)", LatencyNs: float64(c.MapCost(32)), ThroughputOps: 1e9 / float64(c.MapCost(32)), PaperLatUs: 1.2, PaperTputM: 0.8, Source: "model"},
		{Operation: "Open a socket FD", LatencyNs: float64(c.KernelFDAlloc), ThroughputOps: 1e9 / float64(c.KernelFDAlloc), PaperLatUs: 1.6, PaperTputM: 0.6, Source: "model"},
		{Operation: "Process wakeup", LatencyNs: float64(c.ProcessWakeup), ThroughputOps: 1e9 / float64(c.ProcessWakeup), PaperLatUs: 4.1, PaperTputM: 0.3, Source: "model"},
	}

	// Measured rows: the actual data structures under the scheduler.
	lq := measureQueue(false)
	lq.Operation = "Lockless shared memory queue"
	lq.PaperLatUs, lq.PaperTputM = 0.25, 27
	rows = append(rows, lq)

	aq := measureQueue(true)
	aq.Operation = "Atomic shared memory queue"
	aq.PaperLatUs, aq.PaperTputM = 1.0, 6.1
	rows = append(rows, aq)

	sdIn := PingPong(SysSD, 8, true, 50)
	sdInT := Stream(SysSD, 8, true, 4000)
	rows = append(rows, Table2Row{
		Operation: "Intra-host SocksDirect", LatencyNs: sdIn.LatencyNs,
		ThroughputOps: sdInT.OpsPerSec, PaperLatUs: 0.30, PaperTputM: 22, Source: "measured",
	})

	rw := PingPong(SysRDMA, 8, false, 50)
	rwT := Stream(SysRDMA, 8, false, 4000)
	rows = append(rows, Table2Row{
		Operation: "One-sided RDMA write", LatencyNs: rw.LatencyNs,
		ThroughputOps: rwT.OpsPerSec, PaperLatUs: 1.6, PaperTputM: 13, Source: "measured",
	})

	sdX := PingPong(SysSD, 8, false, 50)
	sdXT := Stream(SysSD, 8, false, 4000)
	rows = append(rows, Table2Row{
		Operation: "Inter-host SocksDirect", LatencyNs: sdX.LatencyNs,
		ThroughputOps: sdXT.OpsPerSec, PaperLatUs: 1.7, PaperTputM: 8, Source: "measured",
	})

	rows = append(rows, measureKernelIPC("pipe")...)
	lx := PingPong(SysLinux, 8, true, 30)
	lxT := Stream(SysLinux, 8, true, 1500)
	rows = append(rows, Table2Row{
		Operation: "Intra-host Linux TCP socket", LatencyNs: lx.LatencyNs,
		ThroughputOps: lxT.OpsPerSec, PaperLatUs: 11, PaperTputM: 0.9, Source: "measured",
	})
	lxI := PingPong(SysLinux, 8, false, 30)
	lxIT := Stream(SysLinux, 8, false, 1500)
	rows = append(rows, Table2Row{
		Operation: "Inter-host Linux TCP socket", LatencyNs: lxI.LatencyNs,
		ThroughputOps: lxIT.OpsPerSec, PaperLatUs: 30, PaperTputM: 0.3, Source: "measured",
	})
	return rows
}

// measureQueue ping-pongs and streams the raw ring (Table 2's SHM queue
// rows) on the scheduler, charging only the ring-op model cost.
func measureQueue(locked bool) Table2Row {
	costs := costmodel.Default
	s := exec.NewSim(exec.SimConfig{})
	const rounds, streamN = 300, 20000

	var rtt int64
	var tput float64
	stop := false
	streaming := false // drain only engages in the throughput phase
	if locked {
		q1, q2 := shm.NewLockedRing(1<<16), shm.NewLockedRing(1<<16)
		msg := make([]byte, 8)
		buf := make([]byte, 8)
		s.Spawn("b", func(ctx exec.Context) {
			b2 := make([]byte, 8)
			for i := 0; i <= rounds; i++ {
				for {
					// The "atomic" queue pays lock + op per side.
					ctx.Charge(costs.SpinlockOp + costs.RingOp)
					if _, ok := q1.TryRecv(b2); ok {
						break
					}
					ctx.Yield()
				}
				ctx.Charge(costs.SpinlockOp + costs.RingOp)
				q2.TrySend(1, 0, b2)
			}
		})
		s.Spawn("a", func(ctx exec.Context) {
			send := func() {
				ctx.Charge(costs.SpinlockOp + costs.RingOp)
				q1.TrySend(1, 0, msg)
			}
			recv := func() {
				for {
					ctx.Charge(costs.SpinlockOp + costs.RingOp)
					if _, ok := q2.TryRecv(buf); ok {
						return
					}
					ctx.Yield()
				}
			}
			send()
			recv()
			start := ctx.Now()
			for i := 0; i < rounds; i++ {
				send()
				recv()
			}
			rtt = (ctx.Now() - start) / rounds
			// Single-core throughput: pump the queue as fast as one core can.
			streaming = true
			start = ctx.Now()
			for i := 0; i < streamN; i++ {
				ctx.Charge(costs.SpinlockOp + costs.RingOp)
				if !q1.TrySend(1, 0, msg) {
					i--
					ctx.Yield()
				}
			}
			tput = float64(streamN) / (float64(ctx.Now()-start) / 1e9)
			stop = true
		})
		s.Spawn("drain", func(ctx exec.Context) {
			b2 := make([]byte, 8)
			for {
				if !streaming {
					if stop {
						return
					}
					ctx.Charge(10)
					ctx.Yield()
					continue
				}
				if _, ok := q1.TryRecv(b2); !ok {
					if stop {
						return
					}
					ctx.Charge(10)
					ctx.Yield()
				}
			}
		})
	} else {
		d := shm.NewDuplex(1 << 16)
		a, b := d.A(), d.B()
		msg := make([]byte, 8)
		s.Spawn("b", func(ctx exec.Context) {
			for i := 0; i <= rounds; i++ {
				for {
					ctx.Charge(costs.RingOp)
					if m, ok := b.RX.TryRecv(); ok {
						_ = m
						break
					}
					ctx.Yield()
				}
				ctx.Charge(costs.RingOp)
				b.TX.TrySend(1, 0, msg)
			}
		})
		s.Spawn("a", func(ctx exec.Context) {
			send := func() {
				ctx.Charge(costs.RingOp)
				a.TX.TrySend(1, 0, msg)
			}
			recv := func() {
				for {
					ctx.Charge(costs.RingOp)
					if _, ok := a.RX.TryRecv(); ok {
						return
					}
					ctx.Yield()
				}
			}
			send()
			recv()
			start := ctx.Now()
			for i := 0; i < rounds; i++ {
				send()
				recv()
			}
			rtt = (ctx.Now() - start) / rounds
			streaming = true
			start = ctx.Now()
			for i := 0; i < streamN; i++ {
				ctx.Charge(costs.RingOp)
				if !a.TX.TrySend(1, 0, msg) {
					i--
					ctx.Yield()
				}
			}
			tput = float64(streamN) / (float64(ctx.Now()-start) / 1e9)
			stop = true
		})
		s.Spawn("drain", func(ctx exec.Context) {
			for {
				if !streaming {
					if stop {
						return
					}
					ctx.Charge(10)
					ctx.Yield()
					continue
				}
				if _, ok := b.RX.TryRecv(); !ok {
					if stop {
						return
					}
					ctx.Charge(10)
					ctx.Yield()
				}
			}
		})
	}
	s.Run()
	return Table2Row{LatencyNs: float64(rtt), ThroughputOps: tput, Source: "measured"}
}

// measureKernelIPC measures the kernel pipe and Unix-socket round trips.
func measureKernelIPC(kinds ...string) []Table2Row {
	var out []Table2Row
	for _, pair := range []struct {
		name       string
		paperLat   float64
		paperTput  float64
		unixSocket bool
	}{
		{"Linux pipe / FIFO", 8, 1.2, false},
		{"Unix domain socket in Linux", 9, 0.9, true},
	} {
		costs := costmodel.Default
		s := exec.NewSim(exec.SimConfig{})
		h := host.New("h", s, &costs, 5)
		p := h.NewProcess("app", 0)
		var r1, w1, r2, w2 host.KFile
		if pair.unixSocket {
			a, b := h.Kern.SocketPair()
			r1, w2 = a, a
			r2, w1 = b, b
		} else {
			r1, w1 = h.Kern.Pipe() // a->b... careful: r1 reads what w1 writes
			r2, w2 = h.Kern.Pipe()
		}
		const rounds = 60
		var rtt int64
		p.Spawn("b", func(ctx exec.Context, _ *host.Thread) {
			buf := make([]byte, 8)
			for i := 0; i <= rounds; i++ {
				if _, err := r1.Read(ctx, buf); err != nil {
					return
				}
				w2.Write(ctx, buf)
			}
		})
		p.Spawn("a", func(ctx exec.Context, _ *host.Thread) {
			buf := make([]byte, 8)
			w1.Write(ctx, buf)
			r2.Read(ctx, buf)
			start := ctx.Now()
			for i := 0; i < rounds; i++ {
				w1.Write(ctx, buf)
				r2.Read(ctx, buf)
			}
			rtt = (ctx.Now() - start) / rounds
		})
		s.Run()
		out = append(out, Table2Row{
			Operation: pair.name, LatencyNs: float64(rtt),
			ThroughputOps: 2e9 / float64(rtt), // one op per direction
			PaperLatUs:    pair.paperLat, PaperTputM: pair.paperTput, Source: "measured",
		})
	}
	return out
}

// RenderTable2 formats the rows paper-style.
func RenderTable2(rows []Table2Row) string {
	t := &table{
		Title:  "Table 2: round-trip latency and single-core throughput of operations",
		Header: []string{"Operation", "Latency", "Tput", "Paper lat", "Paper tput", "Source"},
	}
	for _, r := range rows {
		t.Add(r.Operation,
			nanos(int64(r.LatencyNs)),
			opRate(r.ThroughputOps),
			fmt.Sprintf("%.2fus", r.PaperLatUs),
			fmt.Sprintf("%.1f M op/s", r.PaperTputM),
			r.Source)
	}
	return t.String()
}

// Table4 reproduces the latency-breakdown table: per-operation, per-packet
// and per-kilobyte component costs of each system, from the calibrated
// model plus end-to-end measurements for the totals. Each system's runs are
// bracketed with telemetry snapshots, so the companion Table 4b reports the
// *measured* per-component event counts (syscalls, copies, wakeups,
// interrupts, remaps) straight from the instrumented stack.
func Table4() string {
	c := &costmodel.Default
	t := &table{
		Title:  "Table 4: latency breakdown (ns; measured totals, modelled components)",
		Header: []string{"Component", "SocksDirect", "LibVMA", "RSocket", "Linux"},
	}
	f := func(v int64) string { return fmt.Sprintf("%d", v) }
	na := "n/a"

	systems := []struct {
		name string
		sys  System
	}{
		{"SocksDirect", SysSD},
		{"LibVMA", SysLibVMA},
		{"RSocket", SysRSocket},
		{"Linux", SysLinux},
	}
	var intra, inter [4]int64
	var deltas [4]telemetry.Snapshot
	for i, s := range systems {
		before := telemetry.Capture()
		intra[i] = int64(PingPong(s.sys, 8, true, 40).LatencyNs)
		inter[i] = int64(PingPong(s.sys, 8, false, 40).LatencyNs)
		deltas[i] = telemetry.Capture().Diff(before)
	}

	t.Add("Per op: kernel crossing", na, na, na, f(c.Syscall))
	t.Add("Per op: socket FD lock", na, f(c.SpinlockOp), f(c.SpinlockOp), f(c.SpinlockOp))
	t.Add("Per pkt: buffer management", na, f(c.BufferMgmt), f(c.BufferMgmt), f(c.BufferMgmt))
	t.Add("Per pkt: transport protocol", na, f(c.TCPProto), na, f(c.TCPProto))
	t.Add("Per pkt: packet processing", na, f(c.PktProc), na, f(c.PktProc))
	t.Add("Per pkt: NIC doorbell+DMA", f(c.NICDoorbellDMA), f(c.NICDoorbellDMA), f(c.NICDoorbellDMA), f(c.NICDoorbellDMA+c.LegacyNICPerPkt))
	t.Add("Per pkt: NIC processing & wire", f(c.NICProcessWire), f(c.NICProcessWire), f(c.NICProcessWire), f(c.NICProcessWire))
	t.Add("Per pkt: interrupt handling", na, na, na, f(c.InterruptHandle))
	t.Add("Per pkt: process wakeup", na, na, na, f(c.ProcessWakeup))
	t.Add("Per KB: payload copy", "0 (>=16K)", f(c.CopyCost(1024)*2), f(c.CopyCost(1024)*2), f(c.CopyCost(1024)*2))
	t.Add("Measured RTT intra-host (8B)", f(intra[0]), f(intra[1]), f(intra[2]), f(intra[3]))
	t.Add("Measured RTT inter-host (8B)", f(inter[0]), f(inter[1]), f(inter[2]), f(inter[3]))
	t.Add("Per conn: RDMA QP creation", f(c.RDMAQPCreate), na, f(c.RDMAQPCreate), na)
	t.Add("Per conn: monitor processing", "~200", na, na, na)

	tb := &table{
		Title:  "Table 4b: measured event counts per system (8B ping-pong, intra + inter, 40 rounds each)",
		Header: []string{"Counter", "SocksDirect", "LibVMA", "RSocket", "Linux"},
	}
	for _, row := range []struct {
		label, key string
	}{
		{"syscalls", telemetry.HostSyscalls},
		{"payload copies", telemetry.HostCopies},
		{"bytes copied", telemetry.HostCopyBytes},
		{"process wakeups", telemetry.HostWakeups},
		{"NIC interrupts", telemetry.HostInterrupts},
		{"page remaps", telemetry.HostPageRemaps},
		{"COW faults", telemetry.HostCOWFaults},
		{"socket FD lock ops", telemetry.KsockFDLockOps},
		{"kernel FD allocs", telemetry.KsockFDAllocs},
		{"shm msgs sent", telemetry.ShmMsgsSent},
		{"shm credit returns", telemetry.ShmCreditReturns},
		{"RDMA WQEs posted", telemetry.RdmaWQEsPosted},
		{"RDMA completions", telemetry.RdmaCompletions},
		{"monitor ctl msgs", telemetry.MonCtlMsgs},
		{"monitor thread wakes", telemetry.MonWakes},
		{"token fast-path sends", telemetry.CoreTokenFast},
	} {
		tb.Add(row.label,
			f(deltas[0].Get(row.key)), f(deltas[1].Get(row.key)),
			f(deltas[2].Get(row.key)), f(deltas[3].Get(row.key)))
	}
	return t.String() + "\n" + tb.String()
}
