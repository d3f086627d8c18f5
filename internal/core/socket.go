package core

import (
	"io"

	"socksdirect/internal/ctlmsg"
	"socksdirect/internal/exec"
	"socksdirect/internal/host"
	"socksdirect/internal/obs"
	"socksdirect/internal/shm"
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

	intra   *IntraSock // non-nil for intra-host sockets
	intraEP shmEP      // ep of an intra-host socket (useSHM): part of the Socket, not an allocation of its own
	sib     *Socket    // next socket of this process on the same queue (Libsd.socks)

	qid uint64 // the socket's queue, which outlives its side (detach)

	// flow is this endpoint's row in the obs flow table (sdstat). Nil
	// until the socket is established and again once its row is frozen
	// (freezeFlow); every Flow method is nil-safe.
	flow *obs.Flow

	// stream reassembly: bytes of a partially consumed ring message.
	rxPending []byte

	// zero-copy state (queued arrivals, descriptor scratch); nil until the
	// socket's first zero-copy message.
	zc *zcState

	// stage holds the messages of RecvBatch's last vectored pop that it has
	// not delivered yet; nil until the socket's first RecvBatch.
	stage *recvStage

	// Overload controls. Deadlines are absolute virtual-clock nanoseconds
	// (0 = none); nonblock turns every would-wait point into an immediate
	// EWOULDBLOCK.
	deadline [2]int64 // by direction
	nonblock bool

	// movedBytes and movedMsgs are what the data operation under way has
	// moved, by direction: payload bytes, and the messages that carried
	// them (sent: ring messages; received: deliveries). end books them, once
	// per operation. Owned by the direction's token holder. movedMsgs,
	// sideIdx and the bools share one word, which keeps a Socket at 192 B.
	movedBytes [2]int64
	movedMsgs  [2]int32

	// sideIdx disambiguates the two endpoints' token namespaces at the
	// monitor (0 = connecting side, 1 = accepting side).
	sideIdx uint16
	// inside counts this process's threads in an operation on the Socket
	// (begin to end, and Shutdown), waits for a token included: while one
	// is, detach does not give the Socket back.
	inside uint16
	// gen moves each time the Socket is handed out for a connection: a
	// handle made for an earlier one (Handle) no longer reaches it.
	gen uint32
}

// SetSendDeadline arms an absolute virtual-time deadline (ns) for send-side
// waits: ring-full sends, send-token takeovers, zero-copy pool-slot waits.
// A send that cannot complete by the deadline returns ETIMEDOUT. 0 clears.
func (s *Socket) SetSendDeadline(at int64) { s.deadline[DirSend] = at }

// SetRecvDeadline arms an absolute virtual-time deadline (ns) for recv-side
// waits (empty-ring blocking, recv-token takeovers). 0 clears.
func (s *Socket) SetRecvDeadline(at int64) { s.deadline[DirRecv] = at }

// SetNonblock switches the socket into (or out of) O_NONBLOCK mode: any
// operation that would wait returns EWOULDBLOCK instead, and epoll's
// EPOLLIN/EPOLLOUT report when a retry can make progress.
func (s *Socket) SetNonblock(on bool) { s.nonblock = on }

// initFlow registers the socket in the obs flow table (the `sdstat` view,
// §4.5 introspection). Called once the endpoint is established; the socket
// is the flow's prober.
func (l *Libsd) initFlow(s *Socket) {
	peer := s.side.PeerHost
	if peer == "" {
		peer = l.H.Name // intra-host: both ends live here
	}
	s.flow = obs.RegisterFlow(obs.FlowKey{Host: l.H.Name, PID: int64(l.P.PID), QID: s.side.QID}, peer, s)
}

// freezeFlow makes the socket's sdstat row final. The table reuses the
// record once the row is evicted, so the socket lets go of it.
func (s *Socket) freezeFlow() {
	s.flow.Freeze()
	s.flow = nil
}

// Probe reads the flow-table fields from the endpoint (obs.Prober): its send
// ring's occupancy high-water, the monitor epoch its library last saw, and
// the transport and state its side's facts imply. Closed outranks reset.
func (s *Socket) Probe() obs.FlowProbe {
	p := obs.FlowProbe{RingHW: int64(s.side.TX.OccHW()), Epoch: s.lib.monEpoch.Load(),
		Transport: ctlmsg.TransportRDMA, State: obs.FlowEstablished}
	if s.intra != nil {
		p.Transport = ctlmsg.TransportSHM
	}
	switch {
	case s.side.is(closed):
		p.State = obs.FlowClosed
	case s.side.is(resetSeen):
		p.State = obs.FlowReset
	}
	return p
}

// newSocket makes the Socket over side: one a clean release gave back
// (detach) when the free list holds one, in its next generation.
func (l *Libsd) newSocket(side *SideState, ep endpoint) *Socket {
	s := l.sockIdle.New()
	*s = Socket{lib: l, side: side, ep: ep, qid: side.QID, gen: s.gen + 1}
	side.sock = s
	return s
}

// Gen returns the socket's generation, which Handle checks.
func (s *Socket) Gen() uint32 { return s.gen }

// Handle returns s while it serves the connection it had at generation gen,
// and its library's closed stand-in once a clean release gave s back and a
// later connection took it: an application's handle to a closed connection
// stays closed, and never reaches the connection s serves now.
func (s *Socket) Handle(gen uint32) *Socket {
	if s.gen == gen {
		return s
	}
	return &s.lib.closedSock
}

// useSHM makes the socket an intra-host endpoint on its side of is.
func (s *Socket) useSHM(is *IntraSock) {
	s.intra = is
	s.intraEP = shmEP{lib: s.lib, side: s.side, peerSide: is.Peer(s.side)}
	s.ep = &s.intraEP
}

// FD returns the descriptor this socket is installed at.
func (s *Socket) FD() int { return s.fd }

// QID returns the socket queue identity (token arbitration handle).
func (s *Socket) QID() uint64 { return s.qid }

// --- token-based sharing (§4.1): one active sender and one active
// receiver per queue; everyone else must take over through the monitor ---

func (s *Socket) acquireToken(ctx exec.Context, t *host.Thread, dir int) error {
	me := int64(s.lib.GTIDOf(t))
	holder := &s.side.Holder[dir]
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
	obs.Emit(s.lib.H.Name, int64(s.lib.P.PID), obs.EvTokenTakeover, 0, ctx.Now(), int64(s.side.QID), int64(dir))
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
	s.lib.sendCtl(&m)
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
		s.lib.processRevokes()
		if err := w.block(ctx); err != nil {
			op.End(ctx.Now(), false)
			return err
		}
	}
}

// reacquireToken is acquireToken in the middle of an operation, whose busy
// mark the calling thread holds. The mark is dropped while it waits: a
// waiter is not mid-operation with the token, and its own mark would keep
// processRevokes from returning the token of a holder that has gone idle
// (one whose revocation arrived after its last boundary) — the waiter would
// poll for it forever.
func (s *Socket) reacquireToken(ctx exec.Context, t *host.Thread, dir int) error {
	busy := &s.side.Busy[dir]
	busy.Add(-1)
	defer busy.Add(1)
	return s.acquireToken(ctx, t, dir)
}

// maybeHandBack returns a token at an operation boundary if the monitor
// asked for it back.
func (s *Socket) maybeHandBack(dir int) {
	holder, ret := &s.side.Holder[dir], &s.side.ReturnReq[dir]
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
	s.lib.sendCtl(&m)
}

// --- the operation boundary: every data operation opens with begin and
// closes with end ---

// begin opens a data operation in direction dir: it enters libsd, refuses a
// killed process and a closed descriptor (whose side may be the stand-in),
// takes the direction's token and marks the operation busy (processRevokes
// leaves a busy token alone). A send also refuses a shut-down direction and
// ships the zero-copy slot returns that wait for the send token. A nil
// error must be paired with end.
func (s *Socket) begin(ctx exec.Context, t *host.Thread, dir int) error {
	s.lib.enter()
	s.inside++
	err := ErrProcessKilled
	switch _, closed := s.ep.(closedEP); {
	case s.lib.P.Dead():
	case closed && dir == DirSend:
		err = ErrShutdown
	case closed:
		err = io.EOF
	default:
		err = s.acquireToken(ctx, t, dir)
	}
	if err != nil {
		s.inside--
		s.lib.leave()
		return err
	}
	s.side.Busy[dir].Add(1)
	if dir == DirSend {
		if s.side.is(txShut) {
			s.end(dir)
			return ErrShutdown
		}
		s.flushSlotReturns(ctx)
	}
	return nil
}

// end closes the operation begin opened: it books what the operation moved
// (sd/core/{send,recv}_{ops,bytes} and the flow row), drops the busy mark,
// hands the token back if the monitor asked for it — the operation boundary
// of §4.1 — and leaves libsd.
func (s *Socket) end(dir int) {
	if msgs, bytes := int64(s.movedMsgs[dir]), s.movedBytes[dir]; msgs > 0 {
		s.movedMsgs[dir], s.movedBytes[dir] = 0, 0
		if dir == DirSend {
			mSendOps.Inc()
			mSendBytes.Add(bytes)
			s.flow.AddTxN(msgs, bytes)
		} else {
			mRecvOps.Inc()
			mRecvBytes.Add(bytes)
			s.flow.AddRxN(msgs, bytes)
		}
	}
	s.side.Busy[dir].Add(-1)
	s.maybeHandBack(dir)
	s.inside--
	s.lib.leave()
}

// tally adds a message of n payload bytes to what the operation under way
// in direction dir has moved.
func (s *Socket) tally(dir, n int) {
	s.movedMsgs[dir]++
	s.movedBytes[dir] += int64(n)
}

// --- send path ---

// Send writes the whole byte slice (blocking), preserving stream
// semantics. The buffer is reusable the moment Send returns, exactly like
// POSIX send (§2.1.3) — small messages are copied into the ring.
func (s *Socket) Send(ctx exec.Context, t *host.Thread, data []byte) (int, error) {
	if err := s.begin(ctx, t, DirSend); err != nil {
		return 0, err
	}
	defer s.end(DirSend)
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
	return s.sendBytes(ctx, t, data, true)
}

// sendBytes is the send loop of every data operation: data goes into the
// ring in maxInline chunks, one message each, and each chunk's copy is
// charged. With block false a full ring ends it before the first chunk (0
// bytes moved); a later chunk always waits for room, so a buffer is never
// torn. t is nil for bytes that the protocol sends on its own (sendWait).
func (s *Socket) sendBytes(ctx exec.Context, t *host.Thread, data []byte, block bool) (int, error) {
	total := 0
	for len(data) > 0 {
		c := min(len(data), maxInline)
		if block || total > 0 {
			if err := s.sendMsgT(ctx, t, MData, data[:c], nil); err != nil {
				return total, err
			}
		} else if !s.trySend(ctx, MData, data[:c], nil) {
			return 0, nil
		}
		host.CountCopy(c)
		ctx.Charge(s.lib.H.Costs.CopyCost(c))
		s.tally(DirSend, c)
		data = data[c:]
		total += c
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
// endpoint's trySend is the attempt alone).
func (s *Socket) trySend(ctx exec.Context, typ uint8, a, b []byte) bool {
	ctx.Charge(s.lib.H.Costs.RingOp)
	return s.ep.trySend(ctx, typ, a, b)
}

// --- receive path ---

// Recv reads at least one byte into buf (blocking); zero-copy descriptors
// arriving on the byte API are materialized by copying (the VA API gets
// the remap, RecvVA).
func (s *Socket) Recv(ctx exec.Context, t *host.Thread, buf []byte) (int, error) {
	if err := s.begin(ctx, t, DirRecv); err != nil {
		return 0, err
	}
	defer s.end(DirRecv)
	return s.recvBytes(ctx, t, buf, recvOp{})
}

// recvOp is how recvBytes takes from the stream.
type recvOp struct {
	// stage > 0 pops up to that many messages at once into the staging
	// array (RecvBatch: one per buffer it has left); 0 pops one per look.
	stage int
	// poll returns -1 instead of waiting when nothing is there (RecvBatch
	// past its first buffer).
	poll bool
	// remap stops with 0 at a zero-copy arrival, which RecvVA maps instead
	// of copying.
	remap bool
}

// recvBytes is the receive loop of every data operation: it delivers the
// stream's next bytes into buf — what a partly read message left, a
// zero-copy arrival copied out, or the next data message, dispatching the
// control messages in front of it — and charges the copy.
func (s *Socket) recvBytes(ctx exec.Context, t *host.Thread, buf []byte, op recvOp) (int, error) {
	for {
		if len(s.rxPending) > 0 {
			n := copy(buf, s.rxPending)
			s.rxPending = s.rxPending[n:]
			return s.delivered(ctx, n), nil
		}
		if s.zcQueued() {
			if op.remap {
				return 0, nil
			}
			return s.materializeZC(ctx, buf)
		}
		msg, ok := s.pop(ctx, op.stage)
		if !ok {
			if s.side.is(rxShut) {
				return 0, io.EOF
			}
			if op.poll {
				return -1, nil
			}
			w := s.recvWait(t)
			if err := s.awaitRecv(ctx, &w); err != nil {
				return 0, err
			}
			continue
		}
		if done, n, err := s.dispatchMsg(msg, buf); done {
			if err != nil {
				return 0, err
			}
			return s.delivered(ctx, n), nil
		}
	}
}

// delivered charges the copy of n bytes into the application's buffer and
// tallies them as one delivery.
func (s *Socket) delivered(ctx exec.Context, n int) int {
	host.CountCopy(n)
	ctx.Charge(s.lib.H.Costs.CopyCost(n))
	s.tally(DirRecv, n)
	return n
}

// dispatchMsg routes one ring message; done=true means n/err are final. A
// data message's bytes go to buf, and what does not fit to rxPending: the
// view dies at the next pop.
func (s *Socket) dispatchMsg(msg shm.Msg, buf []byte) (bool, int, error) {
	switch msg.Type {
	case MData:
		n := copy(buf, msg.Payload)
		s.rxPending = append(s.rxPending, msg.Payload[n:]...)
		return true, n, nil
	case MZC:
		s.queueZC(msg.Payload)
	case MShut:
		s.side.reach(rxShut)
		s.side.reach(peerShut)
		return true, 0, io.EOF
	case MAck:
		s.side.reach(established)
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

// peerGone reports that the peer process crashed: observed directly
// through the transport (a corpse's PID on the SHM segment, an RDMA QP
// error) or latched from the monitor's KPeerDead broadcast.
func (s *Socket) peerGone() bool {
	return s.side.is(peerReset) || !s.ep.peerAlive()
}

// hasDrainable reports in-flight bytes not yet delivered to the
// application; kernel TCP delivers these before surfacing a reset.
func (s *Socket) hasDrainable() bool {
	return len(s.rxPending) > 0 || s.zcQueued() || s.ep.canRecv()
}

// resetErr surfaces a peer-process crash with kernel TCP errno
// sequencing: the first operation that observes the corpse consumes the
// reset — ECONNRESET, one sd/core/resets tick, SIGHUP (§4.5.4: "If an
// application fails, libsd in the peers will generate SIGHUP") — and
// afterwards sends fail with EPIPE while receives report orderly io.EOF.
// A corpse seen through the transport (an SHM peer's PID) latches
// peerReset here.
func (s *Socket) resetErr(ctx exec.Context, dir int) error {
	s.side.reach(peerReset)
	if s.side.reach(resetSeen) {
		mResets.Inc()
		s.flow.NoteReset()
		obs.Emit(s.lib.H.Name, int64(s.lib.P.PID), obs.EvReset, 0, ctx.Now(), int64(s.side.QID), int64(dir))
		obs.Trigger(obs.TrigReset, s.lib.H.Clk.Now(), "ECONNRESET on "+s.lib.H.Name)
		s.lib.P.Signal(ctx, host.SIGHUP)
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
	s.inside++
	defer func() { s.inside--; s.lib.leave() }()
	if dir == DirSend && !s.side.is(txShut) {
		if err := s.acquireToken(ctx, t, DirSend); err == nil {
			s.flushSlotReturns(ctx)
			s.sendMsg(ctx, MShut, nil, nil)
		}
		s.side.reach(txShut)
	}
	if dir == DirRecv {
		s.side.reach(rxShut)
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
	if s.lib.P.Dead() {
		return ErrProcessKilled // the kernel's teardown closed it (OnProcessDeath)
	}
	s.lib.enter()
	s.lib.releaseFD(s.fd)
	s.lib.leave()
	if s.side.Refs.Add(-1) > 0 {
		// This FD is gone; the side lives on through the others, and its
		// rings are theirs to release: the sdstat row stops reading them.
		s.lib.untrackSock(s)
		s.freezeFlow()
		s.dropZC()
		s.dropEP()
		return nil
	}
	s.closeLast(ctx, t)
	return nil
}

// closeLast is the last reference's half of the close handshake. The socket
// stays among its process's sockets until its MShut is out: a send token
// another process holds comes back as a grant found by queue ID.
func (s *Socket) closeLast(ctx exec.Context, t *host.Thread) {
	s.discardRX()
	s.Shutdown(ctx, t, DirSend)
	s.Shutdown(ctx, t, DirRecv)
	s.lib.untrackSock(s)
	s.lib.sideClosed(s)
}

// Readable reports whether Recv would make progress (epoll hook).
func (s *Socket) Readable() bool {
	return len(s.rxPending) > 0 || s.zcQueued() || s.ep.canRecv() ||
		s.side.is(rxShut) || s.peerGone()
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
	if s.side.is(txShut) || s.peerGone() {
		return true // Send returns ErrShutdown/EPIPE without waiting
	}
	tx := s.side.TX
	if tx == nil {
		return true
	}
	return tx.Cap()-tx.Used() >= writableHeadroom
}
