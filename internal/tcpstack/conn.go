package tcpstack

import (
	"io"

	"socksdirect/internal/exec"
	"socksdirect/internal/host"
)

// Connection states.
const (
	stSynSent = iota
	stSynRcvd
	stEstablished
	stClosed
)

// Conn is one TCP connection endpoint.
type Conn struct {
	st       *Stack
	key      connKey
	listener *Listener

	state int
	err   error

	// send side
	sndNxt, sndUna uint64
	inflight       []*Segment // transmitted, unacked
	pendingTx      []*Segment // waiting for window
	rtoArmed       bool
	unaAtArm       uint64
	retries        int
	gen            uint64

	// receive side
	rcvNxt     uint64
	recvBuf    []byte
	peerClosed bool // FIN received
	wClosed    bool // we sent FIN

	synOpts []byte

	hq host.WaitQ // handshake waiters
	rq host.WaitQ // read waiters
	wq host.WaitQ // write waiters
}

func newConn(st *Stack, key connKey, state int) *Conn {
	return &Conn{st: st, key: key, state: state}
}

// SynOptions returns the options carried by the peer's SYN (server side)
// or SYN-ACK (client side) — the capability-negotiation channel of §4.5.3.
func (c *Conn) SynOptions() []byte { return c.synOpts }

// sendSeg stamps, tracks and transmits a segment that consumes
// seqLen sequence numbers (payload length, +1 for SYN/FIN).
func (c *Conn) sendSeg(seg *Segment, seqLen int) {
	seg.SrcHost = c.st.h.Name
	seg.DstHost = c.key.remoteHost
	seg.SrcPort = c.key.localPort
	seg.DstPort = c.key.remotePort
	seg.Seq = c.sndNxt
	c.sndNxt += uint64(seqLen)
	if seqLen > 0 {
		if len(c.inflight) < windowSegs {
			c.inflight = append(c.inflight, seg)
			c.st.send(seg)
			c.armRTO()
		} else {
			c.pendingTx = append(c.pendingTx, seg)
		}
		return
	}
	c.st.send(seg)
}

func (c *Conn) armRTO() {
	if c.rtoArmed {
		return
	}
	c.rtoArmed = true
	c.unaAtArm = c.sndUna
	gen := c.gen
	c.st.h.Clk.After(rto, func() { c.onTimeout(gen) })
}

func (c *Conn) onTimeout(gen uint64) {
	if gen != c.gen {
		return
	}
	c.rtoArmed = false
	if c.state == stClosed || len(c.inflight) == 0 {
		return
	}
	if c.sndUna > c.unaAtArm {
		c.armRTO()
		return
	}
	c.retries++
	if c.retries > maxRetries {
		c.fail(ErrTimeout)
		return
	}
	for _, seg := range c.inflight {
		c.st.send(seg)
	}
	c.armRTO()
}

// fail tears the connection down with an error.
func (c *Conn) fail(err error) {
	if c.err == nil {
		c.err = err
	}
	c.state = stClosed
	c.gen++
	c.rtoArmed = false
	c.inflight, c.pendingTx = nil, nil
	clk := c.st.h.Clk
	c.hq.Wake(clk, 0)
	c.rq.Wake(clk, 0)
	c.wq.Wake(clk, 0)
	c.st.dropConn(c.key)
}

// onSegment is the per-connection receive path (timer context).
func (c *Conn) onSegment(seg *Segment) {

	if seg.Flags&FRST != 0 {
		if c.state == stSynSent {
			c.fail(ErrRefused)
		} else {
			c.fail(ErrReset)
		}
		return
	}

	// SYN-ACK completes an active open.
	if seg.Flags&(FSYN|FACK) == FSYN|FACK && c.state == stSynSent {
		c.rcvNxt = seg.Seq + 1
		c.synOpts = seg.Options
		c.ackAdvance(seg.Ack)
		c.state = stEstablished
		c.sendSeg(&Segment{Flags: FACK, Ack: c.rcvNxt}, 0)
		c.hq.Wake(c.st.h.Clk, 0)
		return
	}

	if seg.Flags&FACK != 0 {
		c.ackAdvance(seg.Ack)
		if c.state == stSynRcvd && c.sndUna >= 1 {
			c.state = stEstablished
			l := c.listener
			if l != nil {
				closed := l.closed
				if !closed {
					l.backlog = append(l.backlog, c)
				}
				notify := l.Notify
				wake := c.st.h.Costs.ProcessWakeup
				if c.st.mode == ModeUser {
					wake = 0
				}
				l.wq.Wake(c.st.h.Clk, wake)
				if notify != nil && !closed {
					notify()
				}
			}
		}
	}

	if seg.Flags&FSYN != 0 && c.state == stEstablished {
		// Duplicate SYN-ACK: our handshake ACK was lost; repeat it.
		c.sendSeg(&Segment{Flags: FACK, Ack: c.rcvNxt}, 0)
		return
	}

	advanced := false
	if len(seg.Payload) > 0 {
		if seg.Seq == c.rcvNxt && len(c.recvBuf)+len(seg.Payload) <= recvBufCap {
			c.recvBuf = append(c.recvBuf, seg.Payload...)
			c.rcvNxt += uint64(len(seg.Payload))
			advanced = true
		}
		// Out-of-order, duplicate or over-buffer data is dropped; the
		// cumulative ack below makes the sender go-back-N.
	}
	if seg.Flags&FFIN != 0 && seg.Seq+uint64(len(seg.Payload)) == c.rcvNxt {
		c.rcvNxt++
		c.peerClosed = true
		advanced = true
	}
	if len(seg.Payload) > 0 || seg.Flags&FFIN != 0 {
		c.sendSeg(&Segment{Flags: FACK, Ack: c.rcvNxt}, 0)
	}
	clk := c.st.h.Clk
	mode := c.st.mode
	if advanced {
		wake := int64(0)
		if mode == ModeKernel {
			wake = c.st.h.Costs.ProcessWakeup
		}
		c.rq.Wake(clk, wake)
	}
}

func (c *Conn) ackAdvance(ack uint64) {
	if ack <= c.sndUna {
		return
	}
	c.sndUna = ack
	c.retries = 0
	i := 0
	for i < len(c.inflight) {
		seg := c.inflight[i]
		seqLen := uint64(len(seg.Payload))
		if seg.Flags&(FSYN|FFIN) != 0 {
			seqLen++
		}
		if seg.Seq+seqLen <= ack {
			i++
		} else {
			break
		}
	}
	c.inflight = c.inflight[:copy(c.inflight, c.inflight[i:])]
	moved := false
	for len(c.pendingTx) > 0 && len(c.inflight) < windowSegs {
		seg := c.pendingTx[0]
		c.pendingTx = c.pendingTx[:copy(c.pendingTx, c.pendingTx[1:])]
		c.inflight = append(c.inflight, seg)
		c.st.send(seg)
		c.armRTO()
		moved = true
	}
	if moved || len(c.inflight) < windowSegs {
		wake := int64(0)
		if c.st.mode == ModeKernel {
			wake = c.st.h.Costs.ProcessWakeup
		}
		c.wq.Wake(c.st.h.Clk, wake)
	}
}

// Write sends data, blocking while the send window is closed. It charges
// the mode's per-operation and per-packet costs.
func (c *Conn) Write(ctx exec.Context, data []byte) (int, error) {
	costs := c.st.h.Costs
	if c.st.mode == ModeKernel {
		c.st.h.Kern.Syscall(ctx)
	}
	host.CountCopy(len(data))
	ctx.Charge(costs.CopyCost(len(data))) // app buffer -> socket buffer
	total := 0
	for len(data) > 0 {
		n := len(data)
		if n > MSS {
			n = MSS
		}
		// Per-packet software costs (both modes pay protocol + buffer
		// management; kernel mode also serializes on the TCB lock).
		ctx.Charge(costs.TCPProto + costs.PktProc + costs.BufferMgmt)
		if c.st.mode == ModeKernel {
			c.st.tcbLock.Acquire(ctx, costs.KernelLockHold)
		}
		payload := make([]byte, n)
		copy(payload, data[:n])
		for {
			if c.err != nil {
				return total, c.err
			}
			if c.state != stEstablished || c.wClosed {
				return total, ErrClosed
			}
			if len(c.inflight) < windowSegs || len(c.pendingTx) < windowSegs {
				c.sendSeg(&Segment{Flags: FACK, Ack: c.rcvNxt, Payload: payload}, n)
				break
			}
			c.wq.Wait(ctx, func() bool {
				return c.err != nil || c.state != stEstablished ||
					len(c.inflight) < windowSegs || len(c.pendingTx) < windowSegs
			})
		}
		data = data[n:]
		total += n
	}
	return total, nil
}

// Read blocks for at least one byte, EOF after peer FIN drains.
func (c *Conn) Read(ctx exec.Context, out []byte) (int, error) {
	if c.st.mode == ModeKernel {
		c.st.h.Kern.Syscall(ctx)
	}
	for {
		if len(c.recvBuf) > 0 {
			n := copy(out, c.recvBuf)
			c.recvBuf = c.recvBuf[:copy(c.recvBuf, c.recvBuf[n:])]
			host.CountCopy(n)
			ctx.Charge(c.st.h.Costs.CopyCost(n))
			return n, nil
		}
		if c.peerClosed {
			return 0, io.EOF
		}
		if c.err != nil {
			return 0, c.err
		}
		if c.state == stClosed {
			return 0, ErrClosed
		}
		c.rq.Wait(ctx, func() bool {
			return len(c.recvBuf) > 0 || c.peerClosed || c.err != nil || c.state == stClosed
		})
	}
}

// Readable / Writable are the poll hooks.
func (c *Conn) Readable() bool {
	return len(c.recvBuf) > 0 || c.peerClosed || c.err != nil
}

func (c *Conn) Writable() bool {
	return c.err != nil || (c.state == stEstablished && !c.wClosed &&
		(len(c.inflight) < windowSegs || len(c.pendingTx) < windowSegs))
}

// Close sends FIN; reads on the peer drain then return EOF.
func (c *Conn) Close(ctx exec.Context) error {
	// The zero ctx is the kernel reaping a dead process's FD table; there is no
	// thread left to charge the syscall to.
	if c.st.mode == ModeKernel && ctx != (exec.Context{}) {
		c.st.h.Kern.Syscall(ctx)
	}
	if c.wClosed || c.state == stClosed {
		return nil
	}
	c.wClosed = true
	if c.state == stEstablished {
		c.sendSeg(&Segment{Flags: FFIN | FACK, Ack: c.rcvNxt}, 1)
	} else {
		c.fail(ErrClosed)
	}
	return nil
}
