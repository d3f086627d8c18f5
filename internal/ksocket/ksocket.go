// Package ksocket is the "Linux socket" baseline: the kernel TCP stack
// wrapped in VFS semantics. Every operation crosses the kernel, takes the
// per-socket FD lock (§2.1.1), allocates an FD+inode at connection setup,
// copies payloads between the application and socket buffers, and wakes
// sleeping peers through the scheduler. It is the system every figure in
// the paper compares against, and it must lose for these reasons and no
// others.
package ksocket

import (
	"socksdirect/internal/exec"
	"socksdirect/internal/host"
	"socksdirect/internal/tcpstack"
	"socksdirect/internal/telemetry"
)

// Package-wide metric handles (resolved once; see internal/telemetry).
var (
	mFDAllocs  = telemetry.C(telemetry.KsockFDAllocs)
	mFDLockOps = telemetry.C(telemetry.KsockFDLockOps)
)

// Stack is one host's kernel socket layer.
type Stack struct {
	h   *host.Host
	tcp *tcpstack.Stack
}

// New builds the kernel TCP socket layer for a host. Call once per host.
func New(h *host.Host) *Stack {
	return &Stack{h: h, tcp: tcpstack.New(h, tcpstack.ModeKernel, "tcp")}
}

// TCP exposes the underlying stack (the monitor's fallback path needs raw
// access for connection repair and SYN filtering).
func (s *Stack) TCP() *tcpstack.Stack { return s.tcp }

// Socket is a connected kernel TCP socket.
type Socket struct {
	h    *host.Host
	c    *tcpstack.Conn
	lock host.SimLock // the per-FD socket lock
}

// Listener wraps a kernel TCP listener.
type Listener struct {
	s *Stack
	l *tcpstack.Listener
}

// Listen binds a port.
func (s *Stack) Listen(port uint16) (*Listener, error) {
	l, err := s.tcp.Listen(port)
	if err != nil {
		return nil, err
	}
	return &Listener{s: s, l: l}, nil
}

// Port returns the bound port.
func (l *Listener) Port() uint16 { return l.l.Port() }

// Accept blocks for a connection; the kernel allocates an FD and inode.
func (l *Listener) Accept(ctx exec.Context) (*Socket, error) {
	c, err := l.l.Accept(ctx)
	if err != nil {
		return nil, err
	}
	mFDAllocs.Inc()
	ctx.Charge(l.s.h.Costs.KernelFDAlloc)
	return &Socket{h: l.s.h, c: c}, nil
}

// Close stops the listener.
func (l *Listener) Close() { l.l.Close() }

// PendingHint reports queued connections without blocking (used by
// LibVMA's dual-listener accept loop).
func (l *Listener) PendingHint() int { return l.l.Pending() }

// SetNotify installs a callback fired when a connection arrives (the
// monitor's wake hook for dual listeners).
func (l *Listener) SetNotify(fn func()) { l.l.Notify = fn }

// Wrap adopts an existing kernel TCP connection (the monitor's
// connection-repair handoff, §4.5.3).
func Wrap(h *host.Host, c *tcpstack.Conn) *Socket { return &Socket{h: h, c: c} }

// Dial connects to (rhost, port).
func (s *Stack) Dial(ctx exec.Context, rhost string, port uint16) (*Socket, error) {
	c, err := s.tcp.Connect(ctx, rhost, port, nil)
	if err != nil {
		return nil, err
	}
	return &Socket{h: s.h, c: c}, nil
}

func (k *Socket) fdLock(ctx exec.Context) {
	mFDLockOps.Inc()
	k.lock.Acquire(ctx, k.h.Costs.SpinlockOp)
}

// Send writes data (blocking). The per-FD lock serializes concurrent
// senders — the overhead token-based sharing removes (§4.1).
func (k *Socket) Send(ctx exec.Context, data []byte) (int, error) {
	k.fdLock(ctx)
	return k.c.Write(ctx, data)
}

// Recv reads at least one byte (blocking).
func (k *Socket) Recv(ctx exec.Context, buf []byte) (int, error) {
	k.fdLock(ctx)
	return k.c.Read(ctx, buf)
}

// Close sends FIN. The zero ctx is the kernel reaping a dead process's FD
// table — no thread exists to charge, and the corpse cannot contend for
// its own per-FD lock.
func (k *Socket) Close(ctx exec.Context) error {
	if ctx != (exec.Context{}) {
		k.fdLock(ctx)
	}
	return k.c.Close(ctx)
}

// Readable/Writable are poll hooks (no kernel crossing; epoll charges its
// own syscall).
func (k *Socket) Readable() bool { return k.c.Readable() }
func (k *Socket) Writable() bool { return k.c.Writable() }

// --- host.KFile adapter so kernel sockets sit in process FD tables ---

// KFile returns a host.KFile view of the socket.
func (k *Socket) KFile() host.KFile { return (*sockFile)(k) }

type sockFile Socket

func (f *sockFile) Read(ctx exec.Context, b []byte) (int, error) {
	return (*Socket)(f).Recv(ctx, b)
}
func (f *sockFile) Write(ctx exec.Context, b []byte) (int, error) {
	return (*Socket)(f).Send(ctx, b)
}
func (f *sockFile) Close(ctx exec.Context) error { return (*Socket)(f).Close(ctx) }
func (f *sockFile) Readable() bool               { return (*Socket)(f).Readable() }
func (f *sockFile) Writable() bool               { return (*Socket)(f).Writable() }
func (f *sockFile) Dup()                         {}
