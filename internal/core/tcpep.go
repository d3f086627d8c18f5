package core

import (
	"encoding/binary"
	"sync/atomic"

	"socksdirect/internal/ctlmsg"
	"socksdirect/internal/exec"
	"socksdirect/internal/host"
	"socksdirect/internal/obs"
	"socksdirect/internal/shm"
)

// tcpEP is the mid-stream kernel-TCP fallback endpoint (§4.5.3). When a
// socket's QP cannot be re-established within the retry budget, the
// monitors splice a kernel TCP "rescue" connection between the two
// processes and each side swaps its rdmaEP for a tcpEP. The ring layer is
// unchanged: the same two ring copies keep their cursors, and the TCP
// stream simply becomes the new mirror transport, framed as:
//
//	hello:  [1][8B LE own RX tail]        — where the peer must resume
//	data:   [2][8B LE abs start][4B LE n][n bytes of TX ring content]
//	credit: [3][8B LE credit cursor]      — receiver's consumption cursor
//
// Data frames carry the absolute ring offset, so (like the RDMA writes
// they replace) they are idempotent: re-delivery after a crossed rescue
// dial or a racing in-flight RDMA write lands byte-identical content, and
// the CAS-max tail/credit cursors never regress. That is what makes the
// degradation safe to perform mid-stream with no loss or duplication.
type tcpEP struct {
	lib    *Libsd
	side   *SideState
	kf     host.KFile
	dialer string // host that dialed the rescue conn (crossed-dial tie-break)

	// writing is set while a frame is being written (sender flushing data,
	// receiver returning credit): kf.Write may park the writer mid-frame,
	// and another thread of the process must not interleave a frame.
	writing bool
	wbuf    []byte
	started atomic.Bool // hello sent (deferred until a ctx is available)

	// draining is set while drain reads and parses: kf.Read charges the
	// syscall and the copy, a charge may hand the core to another thread,
	// and that thread's drain must not read the stream out from under it.
	draining bool
	rxBuf    []byte
	scratch  [4096]byte

	helloSeen  atomic.Bool   // peer hello parsed; data may flow
	rewindTo   atomic.Uint64 // requested TxFlushed rewind (+1 encoding)
	pendCredit atomic.Uint64 // latest credit to publish (+1 encoding)
	closed     atomic.Bool   // TCP error/EOF: peer truly unreachable
}

const (
	tcpHello  = 1
	tcpData   = 2
	tcpCredit = 3

	// tcpChunk bounds one data frame so a writer never parks for long
	// mid-frame.
	tcpChunk = 4096

	// degradedPollInterval throttles wait loops on a degraded socket:
	// kernel TCP has no doorbell into libsd, so the loops poll, but a full
	// busy-spin would stall virtual time.
	degradedPollInterval = 20_000 // 20 µs
)

func newTCPEP(l *Libsd, side *SideState, kf host.KFile, dialer string) *tcpEP {
	return &tcpEP{lib: l, side: side, kf: kf, dialer: dialer}
}

// write sends b fully; a TCP error latches closed (the rescue path itself
// failed, so the peer is genuinely unreachable).
func (e *tcpEP) write(ctx exec.Context, b []byte) {
	for len(b) > 0 && !e.closed.Load() {
		n, err := e.kf.Write(ctx, b)
		if err != nil {
			e.closed.Store(true)
			return
		}
		b = b[n:]
	}
}

// sendHello publishes our RX tail (the peer rewinds its mirror cursor
// here) and our latest credit.
func (e *tcpEP) sendHello(ctx exec.Context) {
	var f [9]byte
	f[0] = tcpHello
	binary.LittleEndian.PutUint64(f[1:], e.side.RX.Tail())
	for e.writing {
		ctx.Yield()
	}
	e.writing = true
	e.write(ctx, f[:])
	e.writing = false
	e.pendCredit.Store(e.side.LastCreditOut.Load() + 1)
	e.flushCredit(ctx)
}

// progress drives the degraded data plane: drain incoming frames, apply
// them to the rings, push out pending data and credit. Also keeps pumping
// the CQs — a healthy reverse-direction QP (asymmetric failure) or a late
// in-flight write still publishes tails through them.
func (e *tcpEP) progress(ctx exec.Context) {
	e.lib.pump(ctx)
	if ctx == (exec.Context{}) {
		return // capability probe (signal handler); no I/O without a ctx
	}
	if e.started.CompareAndSwap(false, true) {
		e.sendHello(ctx)
	}
	e.drain(ctx)
	e.flushData(ctx)
	e.flushCredit(ctx)
}

func (e *tcpEP) trySend(ctx exec.Context, typ uint8, a, b []byte) bool {
	if !e.side.TX.TrySendV(typ, 0, a, b) {
		e.progress(ctx) // credits may be sitting in the TCP stream
		if !e.side.TX.TrySendV(typ, 0, a, b) {
			return false
		}
	}
	e.flushData(ctx)
	return true
}

func (e *tcpEP) tryRecv(ctx exec.Context) (shm.Msg, bool) {
	e.drain(ctx)
	e.flushCredit(ctx)
	ctx.Charge(e.lib.H.Costs.RingOp)
	return e.side.RX.TryRecv()
}

func (e *tcpEP) canRecv() bool {
	return e.side.RX.CanRecv() || (!e.closed.Load() && e.kf.Readable())
}

func (e *tcpEP) kick(ctx exec.Context) {}

func (e *tcpEP) peerAlive() bool { return !e.closed.Load() }

// drain reads everything the kernel socket has buffered and applies
// complete frames. Readable() gating keeps kf.Read from parking.
func (e *tcpEP) drain(ctx exec.Context) {
	if e.draining {
		return // someone else is draining; their progress is ours
	}
	e.draining = true
	for !e.closed.Load() && e.kf.Readable() {
		n, err := e.kf.Read(ctx, e.scratch[:])
		if err != nil {
			e.closed.Store(true)
			break
		}
		e.rxBuf = append(e.rxBuf, e.scratch[:n]...)
	}
	e.parse()
	e.draining = false
}

func (e *tcpEP) parse() {
	le := binary.LittleEndian
	buf := e.rxBuf
	for len(buf) > 0 {
		switch buf[0] {
		case tcpHello:
			if len(buf) < 9 {
				goto out
			}
			// Rewind is applied by flushData while it writes, so it
			// cannot interleave with a concurrent cursor advance.
			e.rewindTo.Store(le.Uint64(buf[1:]) + 1)
			e.helloSeen.Store(true)
			buf = buf[9:]
		case tcpCredit:
			if len(buf) < 9 {
				goto out
			}
			e.side.TX.InjectCredit(le.Uint64(buf[1:]))
			buf = buf[9:]
		case tcpData:
			if len(buf) < 13 {
				goto out
			}
			start := le.Uint64(buf[1:])
			n := int(le.Uint32(buf[9:]))
			if len(buf) < 13+n {
				goto out
			}
			e.applyData(start, buf[13:13+n])
			buf = buf[13+n:]
		default:
			// Corrupt stream: there is no way to resynchronize framing.
			e.closed.Store(true)
			buf = nil
		}
	}
out:
	e.rxBuf = append(e.rxBuf[:0], buf...)
}

// applyData writes payload at its absolute ring offset and publishes the
// tail. CAS-max SetTail makes duplicates (crossed rescue conns, racing
// late RDMA writes) harmless: identical bytes, never-regressing cursor.
func (e *tcpEP) applyData(start uint64, b []byte) {
	ring := e.side.RX
	data := ring.Data()
	mask := ring.Mask()
	off := start & mask
	first := uint64(len(data)) - off
	if uint64(len(b)) <= first {
		copy(data[off:], b)
	} else {
		copy(data[off:], b[:first])
		copy(data, b[first:])
	}
	ring.SetTail(start + uint64(len(b)))
}

// flushData mirrors [TxFlushed, tail) of the TX ring into data frames,
// chunked so no single kf.Write can park for long.
func (e *tcpEP) flushData(ctx exec.Context) {
	if !e.helloSeen.Load() || e.closed.Load() {
		return
	}
	if e.writing {
		return // another thread is flushing
	}
	e.writing = true
	defer func() { e.writing = false }()
	if r := e.rewindTo.Swap(0); r != 0 {
		if v := r - 1; v < e.side.TxFlushed.Load() {
			e.side.TxFlushed.Store(v)
		}
	}
	ring := e.side.TX
	data := ring.Data()
	mask := ring.Mask()
	le := binary.LittleEndian
	if e.wbuf == nil {
		e.wbuf = make([]byte, 13+tcpChunk)
	}
	for {
		written := ring.Tail() // published cursor: safe from any thread
		flushed := e.side.TxFlushed.Load()
		if written == flushed || e.closed.Load() {
			return
		}
		if !e.kf.Writable() {
			return // no window; a later progress call continues
		}
		n := written - flushed
		if n > tcpChunk {
			n = tcpChunk
		}
		off := flushed & mask
		if rem := uint64(len(data)) - off; n > rem {
			n = rem // split at the ring wrap; next iteration sends the rest
		}
		e.wbuf[0] = tcpData
		le.PutUint64(e.wbuf[1:], flushed)
		le.PutUint32(e.wbuf[9:], uint32(n))
		copy(e.wbuf[13:], data[off:off+n])
		e.write(ctx, e.wbuf[:13+n])
		e.side.TxFlushed.Store(flushed + n)
	}
}

// creditHook implements creditPoster for the degraded path. The ring's
// credit callback has no Context, and a kernel write without one could
// park where parking is illegal — so the value is parked here and flushed
// by the next progress/tryRecv call, which does hold a ctx.
func (e *tcpEP) creditHook(read uint64) {
	e.pendCredit.Store(read + 1)
}

func (e *tcpEP) flushCredit(ctx exec.Context) {
	v := e.pendCredit.Swap(0)
	if v == 0 || e.closed.Load() {
		return
	}
	if e.writing {
		e.pendCredit.CompareAndSwap(0, v) // keep unless a newer value landed
		return
	}
	var f [9]byte
	f[0] = tcpCredit
	binary.LittleEndian.PutUint64(f[1:], v-1)
	e.writing = true
	e.write(ctx, f[:])
	e.writing = false
}

// onDegraded installs a rescue TCP connection the monitor spliced for a
// degraded socket (KDegraded). Both sides may have dialed simultaneously
// (both detected the failure); the tie-break keeps the connection dialed
// from the lexicographically smaller host and abandons the other — never
// closing it, since the peer may still be mid-switch on it, and the
// idempotent framing heals any bytes that went to the abandoned conn.
func (l *Libsd) onDegraded(ctx exec.Context, m *ctlmsg.Msg) {
	any := l.socks[m.QID]
	if any == nil {
		return
	}
	side := any.side
	if m.Status != ctlmsg.StatusOK {
		// No TCP route either: the peer is genuinely unreachable. Now — and
		// only now — the failure surfaces to the application as a dead peer.
		side.reach(peerReset)
		return
	}
	kf, ok := l.P.LookupFD(int(m.Aux))
	if !ok {
		return
	}
	dialer := l.H.Name
	if m.Dir == 1 {
		dialer = side.PeerHost
	}
	pref := l.H.Name
	if side.PeerHost != "" && side.PeerHost < pref {
		pref = side.PeerHost
	}
	cur, _ := any.ep.(*tcpEP)
	if cur != nil && (cur.dialer == pref || dialer != pref) {
		return // current conn already wins the tie-break (or neither does)
	}
	ep := newTCPEP(l, side, kf, dialer)
	if side.reach(degraded) {
		mDegradations.Inc()
		mTCPFallbacks.Inc()
		obs.Emit(l.H.Name, int64(l.P.PID), obs.EvDegraded, 0, l.H.Clk.Now(), int64(m.QID), 0)
		obs.Trigger(obs.TrigDegraded, l.H.Clk.Now(), "rescue TCP installed on "+l.H.Name)
	}
	olds := l.switchEP(m.QID, ep)
	side.creditEP.Store(&creditBox{ep})
	// Retire any still-registered QPs for this socket: from here on the
	// stream lives on TCP, and a resurrected RDMA path would fork it.
	closeQPs(olds)
	ep.progress(ctx) // sends hello, or defers it on the zero ctx
}
