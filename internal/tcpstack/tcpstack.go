// Package tcpstack is a compact but real TCP implementation over the
// simulated fabric: three-way handshake with options (the hook SocksDirect
// uses for capability detection, §4.5.3), sequenced byte streams, go-back-N
// retransmission, flow control by receive-buffer backpressure, FIN/RST
// teardown, and TCP connection repair (the mechanism the monitor uses to
// hand an established kernel connection to an application).
//
// The same stack runs in two modes. ModeKernel charges kernel crossings,
// buffer management, interrupt latency and the global TCB lock — it is the
// transport under the Linux-socket baseline. ModeUser charges only
// protocol costs — it is the transport under the LibVMA-like baseline and
// anything else that runs TCP in user space over a kernel-bypass NIC.
package tcpstack

import (
	"errors"

	"socksdirect/internal/exec"
	"socksdirect/internal/host"
	"socksdirect/internal/telemetry"
)

// mInterrupts counts kernel-mode NIC interrupts (a Table 4 row); copies are
// counted through host.CountCopy at the charge sites in conn.go.
var mInterrupts = telemetry.C(telemetry.HostInterrupts)

// MSS is the maximum segment payload.
const MSS = 1460

// Timeouts and sizes.
const (
	rto         = 1_000_000 // 1 ms retransmission timeout
	maxRetries  = 30
	windowSegs  = 64         // go-back-N window, segments
	recvBufCap  = 256 * 1024 // bytes buffered before backpressure drops
	headerBytes = 40         // IP+TCP header for wire accounting
)

// Mode selects the cost profile.
type Mode int

// Stack modes.
const (
	ModeKernel Mode = iota
	ModeUser
)

// Segment flags.
const (
	FSYN uint8 = 1 << iota
	FACK
	FFIN
	FRST
)

// Segment is one TCP segment on the simulated wire.
type Segment struct {
	SrcHost, DstHost string
	SrcPort, DstPort uint16
	Seq, Ack         uint64
	Flags            uint8
	Options          []byte
	Payload          []byte
}

// Errors.
var (
	ErrRefused   = errors.New("tcpstack: connection refused")
	ErrReset     = errors.New("tcpstack: connection reset by peer")
	ErrTimeout   = errors.New("tcpstack: connection timed out")
	ErrClosed    = errors.New("tcpstack: use of closed connection")
	ErrPortInUse = errors.New("tcpstack: port already in use")
)

type connKey struct {
	localPort  uint16
	remoteHost string
	remotePort uint16
}

// Stack is one host's TCP instance.
type Stack struct {
	h     *host.Host
	mode  Mode
	proto string

	listeners map[uint16]*Listener
	conns     map[connKey]*Conn
	nextPort  uint16
	synFilter func(*Segment) bool
	rawPorts  map[uint16]func(*Segment)
	// tcbLock is the global lock Linux-era kernels take for connection
	// table management (§2.1.4). The kernel-mode stack holds it in virtual
	// time once per segment written, which is what limits multi-core
	// scaling in Figure 9's Linux series.
	tcbLock *host.SimLock
}

// New creates a stack and registers it with the host kernel under the
// given protocol family name ("tcp" for the kernel stack).
func New(h *host.Host, mode Mode, proto string) *Stack {
	st := &Stack{
		h:         h,
		mode:      mode,
		proto:     proto,
		listeners: make(map[uint16]*Listener),
		conns:     make(map[connKey]*Conn),
		rawPorts:  make(map[uint16]func(*Segment)),
		nextPort:  32768,
		tcbLock:   &host.SimLock{},
	}
	h.Kern.RegisterProto(proto, st.rx)
	return st
}

// SetSynFilter installs a raw-socket-style hook that sees every SYN before
// the stack does; returning true swallows the segment (the monitor's
// special-option handshake — and because the stack never sees a swallowed
// SYN, no RST is generated, which models the paper's iptables rule).
func (st *Stack) SetSynFilter(fn func(*Segment) bool) {
	st.synFilter = fn
}

// RegisterRawPort claims a local port: every segment addressed to it is
// handed to fn instead of the normal state machine (the monitor's raw
// socket listening for special-option handshakes, §4.5.3).
func (st *Stack) RegisterRawPort(port uint16, fn func(*Segment)) {
	st.rawPorts[port] = fn
}

// UnregisterRawPort releases a raw port claim (after a probe resolves,
// so an ensuing repaired connection can use the port normally).
func (st *Stack) UnregisterRawPort(port uint16) {
	delete(st.rawPorts, port)
}

// Inject transmits an arbitrary segment (the monitor's raw socket).
func (st *Stack) Inject(seg *Segment) {
	seg.SrcHost = st.h.Name
	st.send(seg)
}

func (st *Stack) send(seg *Segment) {
	if seg.SrcHost == "" {
		seg.SrcHost = st.h.Name
	}
	st.h.Kern.NetSend(st.proto, seg.DstHost, seg, len(seg.Payload)+headerBytes)
}

// rx is the NIC receive path (interrupt/timer context). Kernel mode defers
// the work by the interrupt-handling latency.
func (st *Stack) rx(src string, frame any) {
	seg, ok := frame.(*Segment)
	if !ok {
		return
	}
	if st.mode == ModeKernel {
		mInterrupts.Inc()
		st.h.Clk.After(st.h.Costs.InterruptHandle, func() { st.process(seg) })
		return
	}
	st.process(seg)
}

func (st *Stack) process(seg *Segment) {
	raw := st.rawPorts[seg.DstPort]
	if raw != nil {
		raw(seg)
		return
	}
	if seg.Flags&FSYN != 0 && seg.Flags&FACK == 0 {
		filter := st.synFilter
		if filter != nil && filter(seg) {
			return
		}
		st.onSyn(seg)
		return
	}
	key := connKey{seg.DstPort, seg.SrcHost, seg.SrcPort}
	c := st.conns[key]
	if c == nil {
		if seg.Flags&FRST == 0 {
			st.send(&Segment{
				DstHost: seg.SrcHost, SrcPort: seg.DstPort, DstPort: seg.SrcPort,
				Flags: FRST | FACK, Ack: seg.Seq + uint64(len(seg.Payload)),
			})
		}
		return
	}
	c.onSegment(seg)
}

// Listener accepts inbound connections on a port.
type Listener struct {
	st      *Stack
	port    uint16
	backlog []*Conn
	wq      host.WaitQ
	closed  bool
	// OptsFn computes SYN-ACK options from the client's SYN options
	// (capability echo, §4.5.3). May be nil.
	OptsFn func(synOpts []byte) []byte
	// Notify, when set, fires after a connection lands in the backlog
	// (lets a parked monitor daemon wake without polling).
	Notify func()
}

// Listen binds a port. Port 0 picks an ephemeral one.
func (st *Stack) Listen(port uint16) (*Listener, error) {
	if port == 0 {
		port = st.allocPort()
	}
	if _, ok := st.listeners[port]; ok {
		return nil, ErrPortInUse
	}
	l := &Listener{st: st, port: port}
	st.listeners[port] = l
	return l, nil
}

func (st *Stack) allocPort() uint16 {
	for {
		st.nextPort++
		if st.nextPort == 0 {
			st.nextPort = 32768
		}
		if _, ok := st.listeners[st.nextPort]; !ok {
			return st.nextPort
		}
	}
}

// Port returns the bound port.
func (l *Listener) Port() uint16 { return l.port }

// Accept blocks until a connection completes the handshake.
func (l *Listener) Accept(ctx exec.Context) (*Conn, error) {
	if l.st.mode == ModeKernel {
		l.st.h.Kern.Syscall(ctx)
	}
	for {
		if len(l.backlog) > 0 {
			c := l.backlog[0]
			l.backlog = l.backlog[:copy(l.backlog, l.backlog[1:])]
			return c, nil
		}
		closed := l.closed
		if closed {
			return nil, ErrClosed
		}
		l.wq.Wait(ctx, func() bool { return len(l.backlog) > 0 || l.closed })
	}
}

// Pending reports queued connections (work-stealing checks).
func (l *Listener) Pending() int {
	return len(l.backlog)
}

// Close stops the listener.
func (l *Listener) Close() {
	l.closed = true
	l.wq.Wake(l.st.h.Clk, 0)
	delete(l.st.listeners, l.port)
}

func (st *Stack) onSyn(seg *Segment) {
	l := st.listeners[seg.DstPort]
	if l == nil {
		st.send(&Segment{
			DstHost: seg.SrcHost, SrcPort: seg.DstPort, DstPort: seg.SrcPort,
			Flags: FRST | FACK, Ack: seg.Seq + 1,
		})
		return
	}
	key := connKey{seg.DstPort, seg.SrcHost, seg.SrcPort}
	if _, dup := st.conns[key]; dup {
		return // retransmitted SYN
	}
	c := newConn(st, key, stSynRcvd)
	c.rcvNxt = seg.Seq + 1
	c.synOpts = seg.Options
	c.listener = l
	st.conns[key] = c
	var opts []byte
	if l.OptsFn != nil {
		opts = l.OptsFn(seg.Options)
	}
	c.sendSeg(&Segment{Flags: FSYN | FACK, Options: opts}, 1)
}

// Connect opens a connection carrying opts in the SYN.
func (st *Stack) Connect(ctx exec.Context, remoteHost string, remotePort uint16, opts []byte) (*Conn, error) {
	if st.mode == ModeKernel {
		st.h.Kern.Syscall(ctx)
		ctx.Charge(st.h.Costs.KernelFDAlloc)
	}
	key := connKey{st.allocEphemeral(remoteHost, remotePort), remoteHost, remotePort}
	c := newConn(st, key, stSynSent)
	st.conns[key] = c
	c.sendSeg(&Segment{Flags: FSYN, Options: opts}, 1)
	// Wait for the handshake to finish.
	c.hq.Wait(ctx, func() bool {
		return c.state == stEstablished || c.err != nil
	})
	if c.err != nil {
		return nil, c.err
	}
	return c, nil
}

func (st *Stack) allocEphemeral(rhost string, rport uint16) uint16 {
	for {
		st.nextPort++
		if st.nextPort == 0 {
			st.nextPort = 32768
		}
		if _, ok := st.conns[connKey{st.nextPort, rhost, rport}]; !ok {
			return st.nextPort
		}
	}
}

// Repair creates an already-established connection with chosen sequence
// state — TCP connection repair (§4.5.3): the monitor hands a live kernel
// connection to an application without a wire handshake. Both ends must
// call it with mirrored arguments.
func (st *Stack) Repair(localPort uint16, remoteHost string, remotePort uint16, sndNxt, rcvNxt uint64) (*Conn, error) {
	key := connKey{localPort, remoteHost, remotePort}
	if _, dup := st.conns[key]; dup {
		return nil, ErrPortInUse
	}
	c := newConn(st, key, stEstablished)
	c.sndNxt, c.sndUna, c.rcvNxt = sndNxt, sndNxt, rcvNxt
	st.conns[key] = c
	return c, nil
}

func (st *Stack) dropConn(key connKey) {
	delete(st.conns, key)
}
