package core

import (
	"io"
	"sync/atomic"

	"socksdirect/internal/ctlmsg"
	"socksdirect/internal/exec"
	"socksdirect/internal/host"
	"socksdirect/internal/obs"
	"socksdirect/internal/shm"
	"socksdirect/internal/telemetry"
)

// maxInline is the largest chunk sent through the ring as bytes; larger
// VA-based transfers go zero-copy (§4.3).
const maxInline = 8192

// ZCThreshold is the minimum payload for page remapping (§4.3: "we only
// use zero copy for send or recv with at least 16 KiB payload size").
const ZCThreshold = 16 * 1024

// Socket is a connected libsd socket endpoint.
type Socket struct {
	lib  *Libsd
	side *SideState
	ep   endpoint
	fd   int
	// sideIdx disambiguates the two endpoints' token namespaces at the
	// monitor (0 = connecting side, 1 = accepting side).
	sideIdx uint16

	intra *IntraSock // non-nil for intra-host sockets

	// shmTok is the SHM segment token of an intra-host socket (0 for
	// RDMA sockets); replayed to a restarted monitor so segment
	// accounting — reclaim-on-crash — survives the restart.
	shmTok uint64

	// flow is this endpoint's row in the obs flow table (sdstat). Nil
	// until the socket is established; every Flow method is nil-safe.
	flow *obs.Flow

	// stream reassembly: bytes of a partially consumed ring message.
	rxPending []byte

	// zero-copy state (queued arrivals, descriptor scratch); nil until the
	// socket's first zero-copy message.
	zc *zcState

	// per-direction submission/completion rings for the vectored op path
	// (SendBatch/RecvBatch). Lazily allocated; each is owned by whichever
	// thread holds that direction's token.
	sendBR *batchRing
	recvBR *batchRing

	// Overload controls. Deadlines are absolute virtual-clock nanoseconds
	// (0 = none); nonblock turns every would-wait point into an immediate
	// EWOULDBLOCK. Atomics: one thread may arm one while another is mid-op.
	deadline [2]atomic.Int64 // by direction
	nonblock atomic.Bool

	established bool // saw the MAck (Fig. 6 Wait-Server -> Established)
}

// SetSendDeadline arms an absolute virtual-time deadline (ns) for send-side
// waits: ring-full sends, send-token takeovers, zero-copy pool-slot waits.
// A send that cannot complete by the deadline returns ETIMEDOUT. 0 clears.
func (s *Socket) SetSendDeadline(at int64) { s.deadline[DirSend].Store(at) }

// SetRecvDeadline arms an absolute virtual-time deadline (ns) for recv-side
// waits (empty-ring blocking, recv-token takeovers). 0 clears.
func (s *Socket) SetRecvDeadline(at int64) { s.deadline[DirRecv].Store(at) }

// SetNonblock switches the socket into (or out of) O_NONBLOCK mode: any
// operation that would wait returns EWOULDBLOCK instead, and epoll's
// EPOLLIN/EPOLLOUT report when a retry can make progress.
func (s *Socket) SetNonblock(on bool) { s.nonblock.Store(on) }

// Nonblock reports whether the socket is in O_NONBLOCK mode.
func (s *Socket) Nonblock() bool { return s.nonblock.Load() }

// initFlow registers the socket in the obs flow table (the `sdstat` view,
// §4.5 introspection). Called once the endpoint is established; the probe
// closure captures fields only this endpoint can read.
func (l *Libsd) initFlow(s *Socket) {
	peer := s.side.PeerHost
	if peer == "" {
		peer = l.H.Name // intra-host: both ends live here
	}
	tr := uint8(ctlmsg.TransportRDMA)
	if s.intra != nil {
		tr = uint8(ctlmsg.TransportSHM)
	}
	f := obs.RegisterFlow(obs.FlowKey{Host: l.H.Name, PID: int64(l.P.PID), QID: s.side.QID}, peer, tr)
	side := s.side
	f.SetProbe(func(fs *obs.FlowSnapshot) {
		fs.RingHW = int64(side.TX.OccHW())
		fs.Epoch = l.monEpoch.Load()
	})
	s.flow = f
}

// FD returns the descriptor this socket is installed at.
func (s *Socket) FD() int { return s.fd }

// QID returns the socket queue identity (token arbitration handle).
func (s *Socket) QID() uint64 { return s.side.QID }

// --- token-based sharing (§4.1): one active sender and one active
// receiver per queue; everyone else must take over through the monitor ---

func (s *Socket) acquireToken(ctx exec.Context, t *host.Thread, dir int) error {
	me := int64(s.lib.GTIDOf(t))
	holder, _ := s.tokenVars(dir)
	h := holder.Load()
	if h == me {
		// Fast path: one atomic load is the whole synchronization.
		mTokenFast.Inc()
		return nil
	}
	if h == 0 && holder.CompareAndSwap(0, me) {
		return nil // unowned (returned or never claimed): grab it
	}
	mTokenTakeover.Inc()
	s.flow.Takeover()
	op := obs.BeginOp(s.lib.H.Name, int64(s.lib.P.PID), obs.OpTakeover, ctx.Now())
	if telemetry.Trace.Enabled() {
		telemetry.Trace.Emit(ctx.Now(), "core", "token_takeover",
			telemetry.A("qid", int64(s.side.QID)), telemetry.A("dir", int64(dir)))
	}
	// Slow path: ask the monitor to arbitrate (§4.1.1). FIFO and
	// starvation-free: the monitor keeps the (deduplicated) waiting list;
	// Aux tells it whom to revoke from. A long FIFO behind a healthy monitor
	// waits as long as it takes, and across a restart re-enters the
	// successor's (empty) FIFO. A deadline or O_NONBLOCK shed mid-takeover
	// leaves us in the FIFO: a later grant parks in the holder var and the
	// next op's fast path claims it.
	m := ctlmsg.Msg{
		Kind: ctlmsg.KTakeover, QID: s.side.QID, Dir: uint8(dir),
		SrcPort: s.sideIdx, Aux: uint64(h),
		PID: int64(s.lib.P.PID), TID: int64(t.TID),
		TraceID: op.Trace, SpanID: op.Span,
	}
	s.lib.sendCtl(ctx, &m)
	c, w := s.tokenWait(&m, dir)
	for {
		cur := holder.Load()
		if cur == me || cur == 0 && holder.CompareAndSwap(0, me) {
			op.End(ctx.Now(), true)
			return nil // granted, or freed while we waited
		}
		c.held = cur
		// No hand-back of OUR pending grant here — that would drop us from
		// the monitor's FIFO. But revocations against idle holders (threads
		// parked in application code) are executed on their behalf; the
		// busy counters make it safe.
		s.lib.processRevokes(ctx)
		if err := w.block(ctx); err != nil {
			op.End(ctx.Now(), false)
			return err
		}
	}
}

func (s *Socket) tokenVars(dir int) (holderVar, retVar) {
	if dir == DirSend {
		return &s.side.SendHolder, &s.side.SendReturnReq
	}
	return &s.side.RecvHolder, &s.side.RecvReturnReq
}

func (s *Socket) busyVar(dir int) *atomic.Int32 {
	if dir == DirSend {
		return &s.side.BusySend
	}
	return &s.side.BusyRecv
}

type holderVar = interface {
	Load() int64
	CompareAndSwap(old, new int64) bool
	Store(v int64)
}
type retVar = interface {
	Load() bool
	Store(v bool)
	CompareAndSwap(old, new bool) bool
}

// maybeHandBack returns a token at an operation boundary if the monitor
// asked for it back.
func (s *Socket) maybeHandBack(ctx exec.Context, dir int) {
	holder, ret := s.tokenVars(dir)
	if !ret.Load() {
		return
	}
	if !ret.CompareAndSwap(true, false) {
		return
	}
	holder.Store(0)
	mTokenReturns.Inc()
	m := ctlmsg.Msg{Kind: ctlmsg.KTokenReturn, QID: s.side.QID, Dir: uint8(dir),
		SrcPort: s.sideIdx, PID: int64(s.lib.P.PID)}
	s.lib.sendCtl(ctx, &m)
}

// --- send path ---

// Send writes the whole byte slice (blocking), preserving stream
// semantics. The buffer is reusable the moment Send returns, exactly like
// POSIX send (§2.1.3) — small messages are copied into the ring.
func (s *Socket) Send(ctx exec.Context, t *host.Thread, data []byte) (int, error) {
	s.lib.enter()
	defer s.lib.leave()
	if s.lib.P.Dead() {
		return 0, ErrProcessKilled
	}
	mSendOps.Inc()
	mSendBytes.Add(int64(len(data)))
	if err := s.acquireToken(ctx, t, DirSend); err != nil {
		return 0, err
	}
	defer s.maybeHandBack(ctx, DirSend)
	s.side.BusySend.Add(1)
	defer s.side.BusySend.Add(-1)
	if s.side.TxShut.Load() {
		return 0, ErrShutdown
	}
	s.flushSlotReturns(ctx)
	if b, ok := s.ep.(burster); ok && len(data) > maxInline {
		// A multi-chunk send is a batch in disguise: stage all chunks and
		// ring the doorbell once (burstEnd publishes; the explicit kick
		// wakes a receiver that parked while the bytes were invisible).
		b.burstBegin()
		defer func() {
			b.burstEnd(ctx)
			s.ep.kick(ctx)
		}()
	}
	total := 0
	for len(data) > 0 {
		n := len(data)
		if n > maxInline {
			n = maxInline
		}
		if err := s.sendMsgT(ctx, t, MData, data[:n], nil); err != nil {
			return total, err
		}
		host.CountCopy(n)
		ctx.Charge(s.lib.H.Costs.CopyCost(n))
		s.flow.AddTx(int64(n))
		data = data[n:]
		total += n
	}
	return total, nil
}

// sendMsg blocks until one ring message is enqueued. Callers must hold the
// send token and not block indefinitely elsewhere; sendMsgT is the variant
// that survives token revocation while waiting on a full ring.
func (s *Socket) sendMsg(ctx exec.Context, typ uint8, a, b []byte) error {
	return s.sendMsgT(ctx, nil, typ, a, b)
}

func (s *Socket) sendMsgT(ctx exec.Context, t *host.Thread, typ uint8, a, b []byte) error {
	if !s.trySend(ctx, typ, a, b) {
		// The retries that would find the ring as full are the scheduler's,
		// which charges each its ring operation: the loop retries with the
		// bare attempt.
		for w := s.sendWait(t); ; {
			if err := w.block(ctx); err != nil {
				return err
			}
			n := w.spun
			if _, ok := s.ep.(*rdmaEP); ok {
				n *= 2 // trySend looks again after refreshing the credit
			}
			shm.CountSendFull(n)
			if s.ep.trySend(ctx, typ, a, b) {
				break
			}
		}
	}
	s.ep.kick(ctx)
	return nil
}

// trySend is one send attempt with its ring operation charged (the
// endpoint's trySend is the attempt alone). A forked endpoint's splice is
// not part of the operation: it comes first.
func (s *Socket) trySend(ctx exec.Context, typ uint8, a, b []byte) bool {
	if f, ok := s.ep.(*forkedRdmaEP); ok && f.materialize(ctx) == nil {
		return false // death mid-splice; the retry loop surfaces the errno
	}
	ctx.Charge(s.lib.H.Costs.RingOp)
	return s.ep.trySend(ctx, typ, a, b)
}

// --- receive path ---

// Recv reads at least one byte into buf (blocking); zero-copy descriptors
// arriving on the byte API are materialized by copying (the VA API gets
// the remap, RecvVA).
func (s *Socket) Recv(ctx exec.Context, t *host.Thread, buf []byte) (int, error) {
	s.lib.enter()
	defer s.lib.leave()
	if s.lib.P.Dead() {
		return 0, ErrProcessKilled
	}
	mRecvOps.Inc()
	if err := s.acquireToken(ctx, t, DirRecv); err != nil {
		return 0, err
	}
	defer s.maybeHandBack(ctx, DirRecv)
	s.side.BusyRecv.Add(1)
	defer s.side.BusyRecv.Add(-1)
	return s.recvLockedBytes(ctx, t, buf)
}

// dispatchMsg routes one ring message; done=true means n/err are final.
func (s *Socket) dispatchMsg(ctx exec.Context, msg shm.Msg, buf []byte) (bool, int, error) {
	switch msg.Type {
	case MData:
		n := copy(buf, msg.Payload)
		if n < len(msg.Payload) {
			// Copy the remainder out of the ring: the view dies at the
			// next tryRecv.
			s.rxPending = append(s.rxPending[:0], msg.Payload[n:]...)
		}
		host.CountCopy(n)
		ctx.Charge(s.lib.H.Costs.CopyCost(n))
		mRecvBytes.Add(int64(n))
		s.flow.AddRx(int64(n))
		return true, n, nil
	case MZC:
		s.queueZC(msg.Payload)
	case MShut:
		s.side.RxShut.Store(true)
		s.side.PeerShut.Store(true)
		return true, 0, io.EOF
	case MAck:
		s.established = true
	case MZCRet:
		s.handleZCReturn(msg.Payload)
	}
	return false, 0, nil
}

// awaitRecv waits, as w says, until the receive ring has a message. In-flight
// bytes always drain before a peer's crash surfaces (reset-after-drain).
func (s *Socket) awaitRecv(ctx exec.Context, w *wait) error {
	for !s.ep.canRecv() {
		if err := w.block(ctx); err != nil {
			return err
		}
	}
	return nil
}

// raiseHUP delivers SIGHUP to the local process when the peer died
// (§4.5.4: "If an application fails, libsd in the peers will generate
// SIGHUP").
func (s *Socket) raiseHUP(ctx exec.Context) {
	s.lib.P.Signal(ctx, host.SIGHUP)
}

// peerGone reports that the peer process crashed: observed directly
// through the transport (a corpse's PID on the SHM segment, an RDMA QP
// error) or latched from the monitor's KPeerDead broadcast.
func (s *Socket) peerGone() bool {
	return s.side.PeerReset.Load() || !s.ep.peerAlive()
}

// hasDrainable reports in-flight bytes not yet delivered to the
// application; kernel TCP delivers these before surfacing a reset.
func (s *Socket) hasDrainable() bool {
	return len(s.rxPending) > 0 || s.zcQueued() || s.ep.canRecv()
}

// resetErr surfaces a peer-process crash with kernel TCP errno
// sequencing: the first operation that observes the corpse consumes the
// reset — ECONNRESET, one sd/core/resets tick, SIGHUP per §4.5.4 —
// and afterwards sends fail with EPIPE while receives report orderly
// io.EOF.
func (s *Socket) resetErr(ctx exec.Context, dir int) error {
	if s.side.ResetSeen.CompareAndSwap(false, true) {
		mResets.Inc()
		s.flow.NoteReset()
		obs.Trigger(obs.TrigReset, s.lib.H.Clk.Now(), "ECONNRESET on "+s.lib.H.Name)
		if telemetry.Trace.Enabled() {
			telemetry.Trace.Emit(ctx.Now(), "core", "reset",
				telemetry.A("qid", int64(s.side.QID)), telemetry.A("dir", int64(dir)))
		}
		s.raiseHUP(ctx)
		return ECONNRESET
	}
	if dir == DirSend {
		return EPIPE
	}
	return io.EOF
}

// --- close / shutdown (§4.5.4) ---

// Shutdown closes one or both directions, pushing out an in-band MShut.
func (s *Socket) Shutdown(ctx exec.Context, t *host.Thread, dir int) error {
	s.lib.enter()
	defer s.lib.leave()
	if dir == DirSend && !s.side.TxShut.Load() {
		if err := s.acquireToken(ctx, t, DirSend); err == nil {
			s.sendMsg(ctx, MShut, nil, nil)
		}
		s.side.TxShut.Store(true)
	}
	if dir == DirRecv {
		s.side.RxShut.Store(true)
	}
	return nil
}

// Close drops this FD's reference; the last reference shuts both
// directions ("close is equivalent to shutdown on both send and receive
// directions", with the refcount incremented on fork) and, once the peer
// has done the same, releases what the connection owns (lifecycle.go).
func (s *Socket) Close(ctx exec.Context, t *host.Thread) error {
	if _, closed := s.ep.(closedEP); closed {
		return ErrBadFD // this descriptor was closed before
	}
	s.lib.enter()
	s.lib.releaseFD(s.fd)
	s.lib.untrackSock(s)
	s.lib.leave()
	if s.side.Refs.Add(-1) > 0 {
		// This FD is gone; the side lives on through the others, and its
		// rings are theirs to release: the sdstat row stops reading them.
		s.flow.Freeze(int64(s.side.TX.OccHW()), s.lib.monEpoch.Load())
		s.ep = closedEP{}
		return nil
	}
	s.closeLast(ctx, t)
	return nil
}

// closeLast is the last reference's half of the close handshake.
func (s *Socket) closeLast(ctx exec.Context, t *host.Thread) {
	s.flow.SetState(obs.FlowClosed)
	s.Shutdown(ctx, t, DirSend)
	s.Shutdown(ctx, t, DirRecv)
	s.lib.sideClosed(s)
}

// Readable reports whether Recv would make progress (epoll hook).
func (s *Socket) Readable() bool {
	return len(s.rxPending) > 0 || s.zcQueued() || s.ep.canRecv() ||
		s.side.RxShut.Load() || s.peerGone()
}

// writableHeadroom is the TX-ring room required before epoll reports
// EPOLLOUT: one maximum inline chunk plus header/wrap slack, so a woken
// writer's next Send cannot immediately re-block.
const writableHeadroom = maxInline + 128

// Writable reports whether a Send would make progress without waiting
// (epoll hook): the TX ring has room for at least one full inline chunk,
// or the op would fail fast (shutdown/peer crash) — failing immediately
// is "not blocking" too, exactly like kernel EPOLLOUT|EPOLLERR.
func (s *Socket) Writable() bool {
	if s.side.TxShut.Load() || s.peerGone() {
		return true // Send returns ErrShutdown/EPIPE without waiting
	}
	if _, ok := s.ep.(*tcpEP); ok {
		return true // degraded path: the kernel socket buffers
	}
	tx := s.side.TX
	if tx == nil {
		return true
	}
	return tx.Cap()-tx.Used() >= writableHeadroom
}
