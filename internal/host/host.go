// Package host models the machines the experiments run on: hosts with a
// simulated kernel, processes with threads pinned to cores, POSIX-ish
// signals, fork/exec bookkeeping, and the kernel objects the baselines and
// the fallback path need (pipes, Unix-domain sockets, kernel FD table with
// lowest-available allocation). The trusted pieces of SocksDirect — the
// shared-memory registry, physical memory, and the RDMA NIC — hang off the
// Host; the untrusted pieces (libsd) live in each Process.
package host

import (
	"fmt"

	"socksdirect/internal/costmodel"
	"socksdirect/internal/exec"
	"socksdirect/internal/fabric"
	"socksdirect/internal/mem"
	"socksdirect/internal/rdma"
	"socksdirect/internal/shm"
)

// Host is one machine.
type Host struct {
	Name string
	// Ordinal numbers the host within its Sim, from 1 (Sim.HostOrdinal).
	// Libsd folds it into connection IDs: PIDs restart from 1 on every
	// host, so (PID, seq) alone collides the moment two hosts dial the
	// same listener, and the receiving monitor would drop the second SYN
	// as a bounded-wait re-send of the first. IDs meet only inside one
	// world, so unique per Sim is unique enough.
	Ordinal uint64
	RT      *exec.Sim
	Clk     exec.Clock
	Costs   *costmodel.Costs
	SHM     *shm.Registry
	Mem     *mem.PhysMem
	NIC     *rdma.NIC
	Kern    *Kernel
	// Limits caps what this host's monitor and libsd hold; set it before
	// the traffic it should bound.
	Limits Limits
	staged int64 // bytes admitted against Limits.StagingQuota

	procs    map[int]*Process
	nextPID  int
	nextCore exec.CoreID
	maxCores int // 0 = unbounded (a fresh core per NextCore call)

	// Mon holds the host's monitor daemon (set by internal/monitor); the
	// host layer never inspects it.
	Mon any

	// deathHooks run after a process's kernel teardown (the monitor's
	// per-process lifeline registers here; the host layer stays ignorant
	// of what listens).
	deathHooks []func(pid int)
}

// OnProcessDeath registers fn to run (with the dead pid) after every
// process teardown on this host — after the FD table is closed and the
// process's threads have been woken, so a hook observes the corpse in
// its final state.
func (h *Host) OnProcessDeath(fn func(pid int)) {
	h.deathHooks = append(h.deathHooks, fn)
}

// Limits are a host's overload caps. Zero in a field is the product
// default: 128 KiB rings, and no cap on the other three.
type Limits struct {
	// RingCap is the per-direction ring size of intra-host sockets the
	// monitor dispatches (inter-host rings keep the default). Ring memory
	// is what limits a drill that HOLDS sockets open: 10^5 live sockets
	// at two 128 KiB rings each is ~25 GB.
	RingCap int
	// Backlog bounds dispatched-but-not-accepted connections per listener
	// thread (the monitor-side SOMAXCONN): past it a dial gets a
	// retryable ECONNREFUSED instead of growing monitor state.
	Backlog int
	// Inbox bounds each monitor shard's router-fed inbox. At the cap an
	// inter-host SYN is handed back as backlog-full (ECONNREFUSED at the
	// dialer); protocol-critical kinds (acks, death notices) always
	// append.
	Inbox int
	// StagingQuota bounds the bytes copy-path sends stage at once
	// (Admit); past it a send fails with ENOBUFS.
	StagingQuota int64
}

// Admit charges n bytes of send-side staging against the host's quota.
// It returns false, and counts a quota reject, when the charge would pass
// Limits.StagingQuota; the caller surfaces ENOBUFS and must not Unadmit.
// Receive paths are never charged — their progress is what drains the
// quota — so admission can shed load but never deadlock. Lowering the
// quota below what is staged is safe: nothing more is admitted until the
// staged bytes drain below it.
func (h *Host) Admit(n int) bool {
	if q := h.Limits.StagingQuota; q > 0 && h.staged+int64(n) > q {
		mQuotaRejects.Inc()
		return false
	}
	h.staged += int64(n)
	gQuotaBytes.Add(int64(n))
	return true
}

// Unadmit returns n bytes admitted by Admit once their staging buffer is
// released. It always succeeds, so draining never blocks.
func (h *Host) Unadmit(n int) {
	h.staged -= int64(n)
	gQuotaBytes.Add(int64(-n))
}

// Staged reports the bytes admitted and not yet returned (a drill's
// drift check: zero once the host has drained).
func (h *Host) Staged() int64 { return h.staged }

// New creates a host on the given simulator. costs may be nil for
// cost-free functional tests.
func New(name string, rt *exec.Sim, costs *costmodel.Costs, seed uint64) *Host {
	if costs == nil {
		costs = &costmodel.Costs{}
	}
	clk := rt.Clock()
	h := &Host{
		Name:    name,
		Ordinal: rt.HostOrdinal(),
		RT:      rt,
		Clk:     clk,
		Costs:   costs,
		SHM:     shm.NewRegistry(seed),
		Mem:     mem.NewPhysMem(seed^0xfeed, costs),
		NIC:     rdma.NewNIC(clk, name, costs, seed^0xabcd),
		procs:   make(map[int]*Process),
	}
	h.Kern = newKernel(h)
	return h
}

// LinkConfig returns wire parameters matching the cost model: an RDMA
// message pays doorbell+DMA+NIC pipeline one way; bandwidth is the link
// rate.
func LinkConfig(costs *costmodel.Costs, seed int64) fabric.Config {
	return fabric.Config{
		PropDelay:             costs.OneWayWireLatency(),
		GbitPerSec:            costs.LinkBandwidthGbps,
		Seed:                  seed,
		PerFrameOverheadBytes: 64,
	}
}

// NewProcess creates a process with the given user id (for access control
// policies).
func (h *Host) NewProcess(name string, uid int) *Process {
	h.nextPID++
	p := &Process{
		Host:     h,
		PID:      h.nextPID,
		Name:     name,
		UID:      uid,
		AS:       mem.NewAddressSpace(h.Mem),
		fds:      make(map[int]KFile),
		handlers: make(map[Signal]func(Signal)),
	}
	h.procs[p.PID] = p
	return p
}

// Process returns the process with the given pid, or nil.
func (h *Host) Process(pid int) *Process {
	return h.procs[pid]
}

// EachProcess calls fn for every process the host has made, the dead
// ones too, in PID order.
func (h *Host) EachProcess(fn func(*Process)) {
	for pid := 1; pid <= h.nextPID; pid++ {
		if p := h.procs[pid]; p != nil {
			fn(p)
		}
	}
}

// NextCore hands out a core id for thread placement: a fresh core per
// call by default, or round-robin over [1, SetCores(n)] when the host has
// been bounded. Distinct ids run concurrently under the sim executor, so
// the default models an unconstrained machine; a bounded host models core
// contention (threads sharing a core interleave instead of overlapping).
func (h *Host) NextCore() exec.CoreID {
	h.nextCore++
	if h.maxCores > 0 {
		return exec.CoreID((int(h.nextCore)-1)%h.maxCores + 1)
	}
	return h.nextCore
}

// SetCores bounds the host to n cores (n <= 0 removes the bound).
// Placement of already-spawned threads is unchanged; only subsequent
// NextCore calls wrap. Connection-scale drills use this to pin the
// monitor's shard loops and the app threads onto a fixed core set, the
// way a real host would share its cores between them.
func (h *Host) SetCores(n int) {
	h.maxCores = n
}

// Signal numbers (the subset the system uses).
type Signal int

const (
	SIGHUP  Signal = 1
	SIGUSR1 Signal = 10
	SIGKILL Signal = 9
)

// Process is one simulated OS process.
type Process struct {
	Host   *Host
	PID    int
	Name   string
	UID    int
	AS     *mem.AddressSpace
	Parent *Process

	nextFD   int
	freeFDs  []int
	fds      map[int]KFile
	threads  []*Thread
	nextTID  int
	dead     bool // written in terminate; every poll loop reads it
	handlers map[Signal]func(Signal)
	// Libsd is an opaque slot for the per-process user-space socket
	// library state (set by internal/core); the host layer never looks
	// inside, it only carries it across fork bookkeeping.
	Libsd any
}

// Thread is one simulated thread of a process.
type Thread struct {
	Proc *Process
	TID  int
	Core exec.CoreID
	H    exec.Thread
}

// Spawn starts a thread on its own fresh core.
func (p *Process) Spawn(name string, fn func(exec.Context, *Thread)) *Thread {
	return p.SpawnOn(p.Host.NextCore(), name, fn)
}

// SpawnOn starts a thread pinned to the given core (threads sharing a core
// time-share it cooperatively — Figure 10's setting).
func (p *Process) SpawnOn(core exec.CoreID, name string, fn func(exec.Context, *Thread)) *Thread {
	p.nextTID++
	t := &Thread{Proc: p, TID: p.nextTID, Core: core}
	p.threads = append(p.threads, t)
	full := fmt.Sprintf("%s/%s.%d/%s", p.Host.Name, p.Name, p.PID, name)
	t.H = p.Host.RT.SpawnOn(core, full, func(ctx exec.Context) { fn(ctx, t) })
	return t
}

// ThreadByTID resolves a thread id (the monitor uses this to wake
// sleeping threads and deliver token-return interrupts).
func (p *Process) ThreadByTID(tid int) *Thread {
	for _, t := range p.threads {
		if t.TID == tid {
			return t
		}
	}
	return nil
}

// EachThread calls fn for every thread of the process (over a snapshot,
// so fn may spawn or wake threads). The monitor's restart resurrection
// uses it to give every thread one spurious wake: a receiver parked
// across a monitor outage may have missed the doorbell that died with
// the old incarnation.
func (p *Process) EachThread(fn func(*Thread)) {
	threads := append([]*Thread(nil), p.threads...)
	for _, t := range threads {
		fn(t)
	}
}

// RegisterHandler installs a signal handler (libsd registers one at init,
// §4.4 challenge 2).
func (p *Process) RegisterHandler(s Signal, fn func(Signal)) {
	p.handlers[s] = fn
}

// Signal delivers a signal: SIGKILL runs the full kernel teardown (FD
// table close, thread wakeups, death hooks); other signals run the
// registered handler (in the caller's context, like an interrupt) after
// the kernel's delivery cost.
func (p *Process) Signal(ctx exec.Context, s Signal) {
	mSignals.Inc()
	ctx.Charge(p.Host.Costs.SignalDeliver)
	if s == SIGKILL {
		p.terminate(ctx)
		return
	}
	fn := p.handlers[s]
	if fn != nil {
		fn(s)
	}
}

// Exit runs the kernel's process teardown, as if the process called
// exit(2): every FD-table entry is closed and the death hooks fire. The
// calling thread should return promptly afterwards.
func (p *Process) Exit(ctx exec.Context) { p.terminate(ctx) }

// terminate is the kernel-style teardown shared by Exit and SIGKILL. It
// is idempotent (the first caller wins). Order matters:
//
//  1. mark the process dead, so every libsd poll loop that checks
//     Dead() unwinds instead of spinning forever;
//  2. let the user-space library release transport resources (QPs with
//     staged send buffers) through its opaque teardown hook, then take
//     the address space down;
//  3. close every FD-table entry — Dup refcounts mean a fork-shared
//     pipe or kernel socket signals EOF only when the last sharer dies;
//  4. unpark every thread, routing death through the wake path: a
//     thread parked inside a wait re-runs its condition, observes the
//     corpse, and exits;
//  5. fire the host death hooks (the monitor's per-process lifeline).
func (p *Process) terminate(ctx exec.Context) {
	if p.dead {
		return
	}
	p.dead = true
	fds := p.fds
	p.fds = make(map[int]KFile)
	p.freeFDs = nil
	p.nextFD = 0
	threads := append([]*Thread(nil), p.threads...)
	lib := p.Libsd

	if td, ok := lib.(interface{ OnProcessDeath() }); ok {
		td.OnProcessDeath()
	}
	p.AS.Release()
	for _, f := range fds {
		f.Close(ctx)
	}
	for _, t := range threads {
		th := t.H
		p.Host.Clk.After(p.Host.Costs.ProcessWakeup, th.Unpark)
	}
	hooks := append([]func(pid int){}, p.Host.deathHooks...)
	for _, fn := range hooks {
		fn(p.PID)
	}
}

// Dead reports whether the process was killed.
func (p *Process) Dead() bool { return p.dead }

// Fork creates a child process: kernel FDs are shared (refcounted), the
// address space is fresh (zero-copy buffers are re-established lazily),
// and the Libsd slot is left nil for the user-space library's own fork
// hook to populate (§4.1.2).
func (p *Process) Fork(name string) *Process {
	c := p.Host.NewProcess(name, p.UID)
	c.Parent = p
	c.nextFD = p.nextFD
	c.freeFDs = append([]int(nil), p.freeFDs...)
	for fd, f := range p.fds {
		f.Dup()
		c.fds[fd] = f
	}
	return c
}

// --- kernel FD table (lowest-available semantics, §4.5.1) ---

// KFile is a kernel file object (pipe end, unix socket, kernel TCP socket).
type KFile interface {
	Read(ctx exec.Context, b []byte) (int, error)
	Write(ctx exec.Context, b []byte) (int, error)
	Close(ctx exec.Context) error
	Readable() bool
	Writable() bool
	Dup()
}

// InstallFD assigns the lowest available descriptor to file.
func (p *Process) InstallFD(file KFile) int {
	var fd int
	if n := len(p.freeFDs); n > 0 {
		// Lowest-available: freeFDs is kept sorted descending.
		fd = p.freeFDs[n-1]
		p.freeFDs = p.freeFDs[:n-1]
	} else {
		fd = p.nextFD
		p.nextFD++
	}
	p.fds[fd] = file
	return fd
}

// LookupFD resolves a descriptor.
func (p *Process) LookupFD(fd int) (KFile, bool) {
	f, ok := p.fds[fd]
	return f, ok
}

// CloseFD removes a descriptor, closing the file, and recycles the number.
func (p *Process) CloseFD(ctx exec.Context, fd int) error {
	f, ok := p.fds[fd]
	if !ok {
		return fmt.Errorf("host: bad fd %d", fd)
	}
	delete(p.fds, fd)
	// Insert keeping descending order so the smallest pops last... we pop
	// from the tail, so keep ascending-from-tail: append and fix up.
	p.freeFDs = append(p.freeFDs, fd)
	for i := len(p.freeFDs) - 1; i > 0 && p.freeFDs[i] > p.freeFDs[i-1]; i-- {
		p.freeFDs[i], p.freeFDs[i-1] = p.freeFDs[i-1], p.freeFDs[i]
	}
	return f.Close(ctx)
}
