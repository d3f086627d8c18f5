// Package socksdirect is the public face of this SocksDirect
// reproduction: a user-space socket system that is compatible with
// POSIX-style socket semantics, isolated by a per-host trusted monitor,
// and fast — shared-memory ring buffers intra-host, one-sided RDMA writes
// inter-host, token-based lock-free socket sharing, and page-remapping
// zero copy (Li et al., SIGCOMM 2019).
//
// Everything runs inside a simulated cluster: build one with NewCluster,
// add hosts and processes, spawn threads, then Run the cluster. Threads
// receive a *T — their execution context — whose methods mirror the socket
// API (Listen, Dial, Accept, Send, Recv, Epoll, Fork...). Execution is
// deterministic and in virtual time: reproducible run to run, and N cores
// are modelled on one machine.
//
// A minimal session:
//
//	cl := socksdirect.NewCluster(socksdirect.Defaults())
//	h := cl.AddHost("alpha")
//	srv := h.NewProcess("server", 0)
//	cli := h.NewProcess("client", 1000)
//	srv.Go("main", func(t *socksdirect.T) {
//	    ln, _ := t.Listen(80)
//	    c, _ := ln.Accept()
//	    buf := make([]byte, 64)
//	    n, _ := c.Recv(buf)
//	    c.Send(buf[:n])
//	})
//	cli.Go("main", func(t *socksdirect.T) {
//	    t.Sleep(10 * socksdirect.Microsecond)
//	    c, _ := t.Dial("alpha", 80)
//	    c.Send([]byte("ping"))
//	})
//	cl.Run()
package socksdirect

import (
	"errors"
	"io"
	"maps"
	"slices"

	"socksdirect/internal/core"
	"socksdirect/internal/costmodel"
	"socksdirect/internal/exec"
	"socksdirect/internal/host"
	"socksdirect/internal/ksocket"
	"socksdirect/internal/mem"
	"socksdirect/internal/monitor"
)

// Time units for T.Sleep and friends (nanoseconds).
const (
	Nanosecond  int64 = 1
	Microsecond int64 = 1000
	Millisecond int64 = 1000 * 1000
	Second      int64 = 1000 * 1000 * 1000
)

// Re-exported sentinels. ECONNRESET and EPIPE both wrap ErrPeerDead, so
// errors.Is(err, ErrPeerDead) matches any crash-path errno while the
// specific sentinel tells send (EPIPE) from receive (ECONNRESET)
// failures apart.
var (
	ErrDenied        = core.ErrDenied
	ErrNoListener    = core.ErrNoListener
	ErrPeerDead      = core.ErrPeerDead
	ECONNRESET       = core.ECONNRESET
	EPIPE            = core.EPIPE
	ErrProcessKilled = core.ErrProcessKilled
	// ETIMEDOUT and EAGAIN both wrap ErrMonitorDown: the control plane
	// went silent past its deadline; the operation is safe to retry once
	// a monitor incarnation answers again.
	ErrMonitorDown = core.ErrMonitorDown
	ETIMEDOUT      = core.ETIMEDOUT
	EAGAIN         = core.EAGAIN
	EOF            = io.EOF
	// Overload-control errnos (standalone — they do not wrap ErrMonitorDown
	// or ErrPeerDead, because they describe local flow-control decisions,
	// not failures):
	//   EWOULDBLOCK  — O_NONBLOCK set and the operation would have parked.
	//   ECONNREFUSED — every listener's backlog (or the monitor's shard
	//                  inbox) was full, or nothing listens; retryable.
	//   ENOBUFS      — the send-side buffer-pool byte quota is exhausted.
	// Deadline expiry surfaces ETIMEDOUT, mirroring SO_SNDTIMEO/RCVTIMEO.
	EWOULDBLOCK  = core.EWOULDBLOCK
	ECONNREFUSED = core.ECONNREFUSED
	ENOBUFS      = core.ENOBUFS
)

// Config selects the cluster's cost calibration and seed.
type Config struct {
	// Costs calibrates the simulated hardware; nil means the paper-derived
	// default table.
	Costs *costmodel.Costs
	// Seed drives every deterministic random choice (tokens, obfuscation).
	Seed uint64
}

// Defaults returns the standard virtual-time configuration.
func Defaults() Config { return Config{Costs: &costmodel.Default, Seed: 1} }

// Cluster is a set of simulated hosts under one scheduler.
type Cluster struct {
	cfg   Config
	sim   *exec.Sim
	net   *host.Net
	hosts map[string]*Host
	seedN uint64
	base  monitor.Census // the process-wide columns as they stood when it was built
}

// NewCluster builds an empty cluster.
func NewCluster(cfg Config) *Cluster {
	if cfg.Costs == nil {
		cfg.Costs = &costmodel.Default
	}
	c := &Cluster{cfg: cfg, sim: exec.NewSim(exec.SimConfig{}), hosts: make(map[string]*Host), base: monitor.TakeCensus()}
	c.net = host.NewNet(c.sim.Clock(), host.LinkConfig(c.cfg.Costs, int64(cfg.Seed)))
	return c
}

// Net exposes the cluster's routed network — both fabric planes — so
// experiments can register directed edges with the fault injector.
func (c *Cluster) Net() *host.Net { return c.net }

// Host is one machine in the cluster.
type Host struct {
	cl  *Cluster
	H   *host.Host
	KS  *ksocket.Stack
	Mon *monitor.Monitor
}

// AddHost creates a SocksDirect-capable host (kernel stack + monitor) and
// links it to every existing host.
func (c *Cluster) AddHost(name string) *Host {
	h := c.addBareHost(name)
	h.Mon = monitor.Start(h.H, h.KS)
	return h
}

// AddLegacyHost creates a host without a monitor: a regular TCP/IP peer
// (the fallback-path experiments need one).
func (c *Cluster) AddLegacyHost(name string) *Host {
	return c.addBareHost(name)
}

func (c *Cluster) addBareHost(name string) *Host {
	c.seedN++
	hh := host.New(name, c.sim, c.cfg.Costs, c.cfg.Seed*1315423911+c.seedN)
	h := &Host{cl: c, H: hh, KS: ksocket.New(hh)}
	// Joining the routed fabric wires edges to every existing host in
	// sorted order (deterministic, unlike iterating c.hosts), on both the
	// RDMA and the kernel plane.
	c.net.Join(hh)
	c.hosts[name] = h
	return h
}

// PeerMonitors pre-establishes the monitor RDMA channel between two hosts,
// skipping the capability probe (benchmarks use this; the probe path stays
// covered by tests).
func PeerMonitors(a, b *Host) { monitor.Peer(a.Mon, b.Mon) }

// Sim exposes the underlying discrete-event scheduler for harnesses that
// need raw thread spawning or the global clock.
func (c *Cluster) Sim() *exec.Sim { return c.sim }

// Run executes the cluster until quiescent and returns the final virtual
// time in nanoseconds.
func (c *Cluster) Run() int64 { return c.sim.Run() }

// End tears the cluster down through the crash path — every process killed,
// the monitors' crash cleanup run, every monitor stopped — and returns the
// census of what is left (monitor.EndWorld): zero when nothing leaked.
func (c *Cluster) End() monitor.Census {
	var hosts []*host.Host
	for _, name := range slices.Sorted(maps.Keys(c.hosts)) {
		hosts = append(hosts, c.hosts[name].H)
	}
	return monitor.EndWorld(c.sim, c.base, hosts...)
}

// Process is an application process with libsd loaded.
type Process struct {
	h   *Host
	P   *host.Process
	Lib *core.Libsd
}

// NewProcess creates a process (uid feeds the monitor's access policy).
// It panics if the host has no monitor — use the host's kernel sockets
// (Host.KS) on legacy hosts instead.
func (h *Host) NewProcess(name string, uid int) *Process {
	p := h.H.NewProcess(name, uid)
	lib, err := core.Init(p)
	if err != nil {
		panic("socksdirect: " + err.Error())
	}
	return &Process{h: h, P: p, Lib: lib}
}

// Kill delivers SIGKILL from the calling thread's context: the process
// dies instantly, the host runs kernel-style teardown (FD table reaped,
// threads unwound), and the monitor's lifeline reclaims everything it
// held (§4.5.4). Surviving peers drain in-flight bytes and then see
// ECONNRESET/EPIPE.
func (t *T) Kill(victim *Process) { victim.P.Signal(t.Ctx, host.SIGKILL) }

// Exit terminates the calling thread's own process, with the same
// teardown path as Kill.
func (t *T) Exit() { t.Pr.P.Exit(t.Ctx) }

// Dead reports whether the process has been killed.
func (p *Process) Dead() bool { return p.P.Dead() }

// T is a thread's execution handle: the socket API surface.
type T struct {
	Ctx exec.Context
	Th  *host.Thread
	Pr  *Process
}

// Go spawns a thread on a fresh simulated core.
func (p *Process) Go(name string, fn func(*T)) *host.Thread {
	return p.P.Spawn(name, func(ctx exec.Context, th *host.Thread) {
		fn(&T{Ctx: ctx, Th: th, Pr: p})
	})
}

// GoOn spawns a thread pinned to a specific core (cores are shared
// cooperatively; see Figure 10).
func (p *Process) GoOn(core exec.CoreID, name string, fn func(*T)) *host.Thread {
	return p.P.SpawnOn(core, name, func(ctx exec.Context, th *host.Thread) {
		fn(&T{Ctx: ctx, Th: th, Pr: p})
	})
}

// Sleep advances this thread's clock without occupying its core.
func (t *T) Sleep(ns int64) { t.Ctx.Sleep(ns) }

// Yield cooperatively gives up the core.
func (t *T) Yield() { t.Ctx.Yield() }

// Now returns the thread's current time in ns.
func (t *T) Now() int64 { return t.Ctx.Now() }

// Alloc reserves page-aligned simulated memory for zero-copy I/O.
func (t *T) Alloc(n int) mem.VAddr { return t.Pr.P.AS.Alloc(n) }

// WriteMem / ReadMem access simulated memory (the app's buffers).
func (t *T) WriteMem(addr mem.VAddr, data []byte) error {
	return t.Pr.P.AS.Write(&t.Ctx, addr, data)
}

func (t *T) ReadMem(addr mem.VAddr, out []byte) error {
	return t.Pr.P.AS.Read(addr, out)
}

// Listener accepts connections on a port.
type Listener struct {
	t *T
	l *core.Listener
}

// Listen binds a port and registers this thread as a listener. Multiple
// threads and forked processes may listen on one port.
func (t *T) Listen(port uint16) (*Listener, error) {
	l, err := t.Pr.Lib.ListenOn(t.Ctx, t.Th, port)
	if err != nil {
		return nil, err
	}
	return &Listener{t: t, l: l}, nil
}

// Accept blocks for the next dispatched connection.
func (l *Listener) Accept() (*Conn, error) {
	s, kf, err := l.l.Accept(l.t.Ctx)
	if err != nil {
		return nil, err
	}
	return newConn(l.t, s, kf), nil
}

// Pending reports queued connections on this thread's backlog.
func (l *Listener) Pending() int { return l.l.Pending() }

// SetDeadline bounds future Accept calls: past the absolute virtual time
// `at` (ns), a blocked Accept returns ETIMEDOUT instead of parking
// forever. 0 clears the deadline.
func (l *Listener) SetDeadline(at int64) { l.l.SetDeadline(at) }

// SetNonblock makes Accept return EWOULDBLOCK instead of blocking when
// the backlog is empty (O_NONBLOCK for listeners).
func (l *Listener) SetNonblock(on bool) { l.l.SetNonblock(on) }

// Close unregisters the listener.
func (l *Listener) Close() { l.l.Close(l.t.Ctx) }

// FD returns the listener's descriptor.
func (l *Listener) FD() int { return l.l.FD() }

// Conn is a connected socket: a user-space SocksDirect socket, or a
// kernel TCP connection when the peer required the fallback path. The API
// is identical either way — that is the compatibility story. A Conn kept
// after Close stays closed, even once its library has handed the socket
// behind it to another connection: its sends fail with ErrShutdown, its
// receives read EOF, a second Close fails with ErrBadFD, and nothing it does
// reaches the other connection.
type Conn struct {
	t    *T
	sock *core.Socket
	kf   host.KFile
	gen  uint32 // sock's generation when the Conn was made (core.Socket.Handle)
	fd   int
}

// newConn is the Conn over s, or over the kernel file kf when s is nil.
func newConn(t *T, s *core.Socket, kf host.KFile) *Conn {
	c := &Conn{t: t, sock: s, kf: kf, fd: -1}
	if s != nil {
		c.gen, c.fd = s.Gen(), s.FD()
	}
	return c
}

// socket is the Socket c acts on: its own while it serves c's connection,
// else its library's closed stand-in.
func (c *Conn) socket() *core.Socket { return c.sock.Handle(c.gen) }

// Dial connects to (host, port); the monitor picks SHM, RDMA or kernel
// TCP transparently.
func (t *T) Dial(hostName string, port uint16) (*Conn, error) {
	s, kf, err := t.Pr.Lib.Connect(t.Ctx, t.Th, hostName, port)
	if err != nil {
		return nil, err
	}
	return newConn(t, s, kf), nil
}

// DialDeadline is Dial with an absolute virtual-time bound (ns): if the
// connection has not been admitted by `at`, it returns ETIMEDOUT and
// abandons the attempt (pending state is reclaimed; a late grant is
// ignored). 0 means no deadline — identical to Dial.
func (t *T) DialDeadline(hostName string, port uint16, at int64) (*Conn, error) {
	s, kf, err := t.Pr.Lib.ConnectDeadline(t.Ctx, t.Th, hostName, port, at)
	if err != nil {
		return nil, err
	}
	return newConn(t, s, kf), nil
}

// Fallback reports whether this connection runs over kernel TCP.
func (c *Conn) Fallback() bool { return c.sock == nil }

// SetSendDeadline bounds future send-side blocking (ring full, token
// wait, zero-copy slot wait) by an absolute virtual time in ns: past it,
// the blocked call returns ETIMEDOUT (SO_SNDTIMEO flavor). 0 clears it.
// Kernel-fallback connections ignore deadlines (their blocking happens in
// the simulated kernel, which models none).
func (c *Conn) SetSendDeadline(at int64) {
	if c.sock != nil {
		c.socket().SetSendDeadline(at)
	}
}

// SetRecvDeadline is SetSendDeadline for the receive side (SO_RCVTIMEO).
func (c *Conn) SetRecvDeadline(at int64) {
	if c.sock != nil {
		c.socket().SetRecvDeadline(at)
	}
}

// SetNonblock switches the socket to O_NONBLOCK: any data-plane call that
// would park returns EWOULDBLOCK immediately. Pair with Epoll and
// EPOLLOUT/EPOLLIN to learn when to retry.
func (c *Conn) SetNonblock(on bool) {
	if c.sock != nil {
		c.socket().SetNonblock(on)
	}
}

// FD returns the socket's descriptor in the libsd FD space (fallback
// connections report -1; their number lives in the kernel table).
func (c *Conn) FD() int { return c.fd }

// WithT rebinds the connection to another thread (socket sharing across
// threads; the token machinery arbitrates, §4.1).
func (c *Conn) WithT(t *T) *Conn {
	w := *c
	w.t = t
	return &w
}

// Send writes the whole buffer (blocking).
func (c *Conn) Send(b []byte) (int, error) {
	if c.sock != nil {
		return c.socket().Send(c.t.Ctx, c.t.Th, b)
	}
	return c.kf.Write(c.t.Ctx, b)
}

// Recv reads at least one byte (blocking); io.EOF after peer close.
func (c *Conn) Recv(b []byte) (int, error) {
	if c.sock != nil {
		return c.socket().Recv(c.t.Ctx, c.t.Th, b)
	}
	return c.kf.Read(c.t.Ctx, b)
}

// SendBatch transmits the buffers as consecutive messages with one
// libsd round trip (sendmmsg flavor): token acquisition, flow
// accounting and the transport doorbell are paid once for the whole
// batch. It blocks until at least the first buffer is sent, then stops
// at the first full ring, returning how many buffers went out in full —
// resubmit the tail. On fallback connections it degrades to per-buffer
// kernel writes.
func (c *Conn) SendBatch(bufs [][]byte) (int, error) {
	if c.sock != nil {
		return c.socket().SendBatch(c.t.Ctx, c.t.Th, bufs)
	}
	for i, b := range bufs {
		if _, err := c.kf.Write(c.t.Ctx, b); err != nil {
			return i, err
		}
	}
	return len(bufs), nil
}

// RecvBatch fills the buffers with consecutive messages (recvmmsg
// flavor): it blocks until the first buffer has bytes, then drains
// whatever has already arrived without blocking. If lens is non-nil,
// lens[i] receives buffer i's byte count. Returns the number of buffers
// filled. On fallback connections it degrades to one kernel read for
// the first buffer plus readability-gated reads for the rest.
func (c *Conn) RecvBatch(bufs [][]byte, lens []int) (int, error) {
	if c.sock != nil {
		return c.socket().RecvBatch(c.t.Ctx, c.t.Th, bufs, lens)
	}
	filled := 0
	for i, b := range bufs {
		if i > 0 && !c.kf.Readable() {
			break
		}
		n, err := c.kf.Read(c.t.Ctx, b)
		if err != nil {
			if filled > 0 {
				break
			}
			return 0, err
		}
		if lens != nil && i < len(lens) {
			lens[i] = n
		}
		filled++
	}
	return filled, nil
}

// RecvFull reads exactly len(b) bytes.
func (c *Conn) RecvFull(b []byte) (int, error) {
	got := 0
	for got < len(b) {
		n, err := c.Recv(b[got:])
		got += n
		if err != nil {
			return got, err
		}
	}
	return got, nil
}

// SendVA transmits from simulated memory; payloads of 16 KiB and larger
// move by page remapping / NIC scatter instead of copying (§4.3).
func (c *Conn) SendVA(addr mem.VAddr, n int) (int, error) {
	if c.sock == nil {
		return 0, errors.New("socksdirect: zero copy unavailable on fallback connections")
	}
	return c.socket().SendVA(c.t.Ctx, c.t.Th, addr, n)
}

// RecvVA receives into simulated memory, remapping when possible.
func (c *Conn) RecvVA(addr mem.VAddr, n int) (int, error) {
	if c.sock == nil {
		return 0, errors.New("socksdirect: zero copy unavailable on fallback connections")
	}
	return c.socket().RecvVA(c.t.Ctx, c.t.Th, addr, n)
}

// Close drops this reference; the last reference runs the shutdown
// handshake (§4.5.4).
func (c *Conn) Close() error {
	if c.sock != nil {
		return c.socket().Close(c.t.Ctx, c.t.Th)
	}
	return c.kf.Close(c.t.Ctx)
}

// Readable reports whether Recv would not block (poll hook).
func (c *Conn) Readable() bool {
	if c.sock != nil {
		return c.socket().Readable()
	}
	return c.kf.Readable()
}

// Fork forks the calling process libsd-style: existing sockets stay
// shared, the child re-establishes RDMA lazily, tokens stay with the
// parent (§4.1.2). It returns the child process handle.
func (t *T) Fork(name string) (*Process, error) {
	child, lib, err := t.Pr.Lib.Fork(t.Ctx, t.Th, name)
	if err != nil {
		return nil, err
	}
	return &Process{h: t.Pr.h, P: child, Lib: lib}, nil
}

// SocketByFD rebinds an inherited descriptor in (typically) a forked
// child.
func (t *T) SocketByFD(fd int) (*Conn, error) {
	s, err := t.Pr.Lib.SocketByFD(fd)
	if err != nil {
		kf, kerr := t.Pr.Lib.KernelFile(fd)
		if kerr != nil {
			return nil, err
		}
		return newConn(t, nil, kf), nil
	}
	return newConn(t, s, nil), nil
}

// Epoll creates an event multiplexer over libsd sockets and kernel FDs.
func (t *T) Epoll() *Epoll { return &Epoll{t: t, ep: t.Pr.Lib.NewEpoll()} }

// Epoll wraps the libsd epoll object.
type Epoll struct {
	t  *T
	ep *core.Epoll
}

// Event re-exports the core event type.
type Event = core.Event

// Epoll interest flags.
const (
	EPOLLIN  = core.EPOLLIN
	EPOLLOUT = core.EPOLLOUT
	EPOLLHUP = core.EPOLLHUP
)

// Add registers interest.
func (e *Epoll) Add(fd int, events uint32) error { return e.ep.Add(fd, events) }

// Del removes interest.
func (e *Epoll) Del(fd int) { e.ep.Del(fd) }

// Wait blocks for at least one event.
func (e *Epoll) Wait(events []Event) (int, error) { return e.ep.Wait(e.t.Ctx, events) }
