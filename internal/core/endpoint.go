package core

import (
	"encoding/binary"

	"socksdirect/internal/ctlmsg"
	"socksdirect/internal/exec"
	"socksdirect/internal/rdma"
	"socksdirect/internal/shm"
)

// endpoint is a socket's data plane: the SHM flavor shares one ring pair
// through cache coherence; the RDMA flavor keeps local ring copies and
// mirrors them with one-sided writes (§4.2).
type endpoint interface {
	// trySend enqueues one message (gather of a+b); false = ring full. The
	// ring operation is the caller's to charge (Socket.trySend does).
	trySend(ctx exec.Context, typ uint8, a, b []byte) bool
	// tryRecv dequeues one message; the view is valid until the next call.
	tryRecv(ctx exec.Context) (shm.Msg, bool)
	canRecv() bool
	// kick performs post-send work: waking a sleeping receiver (SHM) or
	// nothing (RDMA batching is handled inside trySend).
	kick(ctx exec.Context)
	// peerAlive reports whether the remote side can still make progress.
	peerAlive() bool
	// progress drives background work that must advance even when the
	// data path is stuck: completion pumping, failure detection, QP
	// re-establishment with backoff. Called from
	// every send/recv wait loop; ctx may be the zero Context (capability
	// probes).
	progress(ctx exec.Context)
}

// burster is the optional batched side of an endpoint: between burstBegin
// and burstEnd, trySend stages messages without publishing them (SHM: no
// tail store; RDMA: no doorbell), and tryRecvN dequeues many messages per
// ring touch. A closed socket's endpoint has neither.
type burster interface {
	burstBegin()
	burstEnd(ctx exec.Context)
	tryRecvN(ctx exec.Context, out []shm.Msg) int
}

// CreditReturned is an inter-host side's RX credit hook (shm.CreditHook):
// it keeps the credit for recovery to re-post and mirrors it to the peer
// through the side's current endpoint.
func (s *SideState) CreditReturned(read uint64) {
	s.LastCreditOut.Store(read)
	if s.creditEP != nil {
		s.creditEP.creditHook(read)
	}
}

// --- intra-host: shared memory, cache-coherent, zero software between the
// two rings ---

type shmEP struct {
	lib      *Libsd
	side     *SideState
	peerSide *SideState
}

func (e *shmEP) trySend(ctx exec.Context, typ uint8, a, b []byte) bool {
	if e.side.TX.TrySendV(typ, 0, a, b) {
		return true
	}
	if e.side.TX.InBurst() {
		// Full ring mid-burst: the staged messages are invisible to the
		// receiver (tail unpublished), so blocking for space would wait on
		// a peer that cannot drain. Publish and wake it, then resume the
		// burst once space frees.
		e.side.TX.EndBurst()
		e.kick(ctx)
		e.side.TX.BeginBurst()
	}
	return false
}

func (e *shmEP) tryRecv(ctx exec.Context) (shm.Msg, bool) {
	ctx.Charge(e.lib.H.Costs.RingOp)
	return e.side.RX.TryRecv()
}

func (e *shmEP) canRecv() bool { return e.side.RX.CanRecv() }

func (e *shmEP) kick(ctx exec.Context) {
	// If the receiver went into interrupt mode, route a wake through the
	// monitor (§4.4: "When sender writes to a queue in interrupt mode, it
	// also notifies the monitor and the monitor will signal the receiver
	// to resume polling").
	if sleeper := e.peerSide.RecvSleeper.Load(); sleeper != 0 {
		g := GTID(sleeper)
		m := ctlmsg.Msg{Kind: ctlmsg.KWake, PID: int64(g.PID()), TID: int64(g.TID())}
		e.lib.sendCtl(&m)
	}
}

func (e *shmEP) progress(ctx exec.Context) {}

func (e *shmEP) burstBegin() { e.side.TX.BeginBurst() }

func (e *shmEP) burstEnd(ctx exec.Context) { e.side.TX.EndBurst() }

func (e *shmEP) tryRecvN(ctx exec.Context, out []shm.Msg) int {
	ctx.Charge(e.lib.H.Costs.RingOp) // one ring touch for the whole pop
	return e.side.RX.TryRecvN(out)
}

func (e *shmEP) peerAlive() bool {
	pid := e.side.PeerPID.Load()
	if pid == 0 {
		return true
	}
	p := e.lib.H.Process(int(pid))
	return p != nil && !p.Dead()
}

// --- inter-host: two ring copies synchronized by RDMA write-with-imm,
// credit return by plain RDMA write, adaptive batching bounded by an
// in-flight counter (§4.2) ---

// batchThreshold is the in-flight RDMA message cap before sends coalesce.
const batchThreshold = 16

type rdmaEP struct {
	lib  *Libsd
	side *SideState

	qp         *rdma.QP // nil: inherited, and no QP of this process's yet
	ringRKey   uint64   // peer's RX ring data
	creditRKey uint64   // peer's credit word (for our RX credits)

	// selfRingRKey and selfCreditRKey are the rkeys of the side's RX ring
	// and credit word under this process's PD, which a splice gives the peer's
	// new QP: the NIC takes no rkey of another PD. An inherited endpoint
	// registers its own with its first splice request (recover.go).
	selfRingRKey, selfCreditRKey uint64

	inflight int
	batching bool // false disables adaptive batching (SD-unopt ablation)

	// peerPID is the process that holds the peer endpoint: whom the QP is
	// parked for, later. offered marks a dial that went out on a parked QP
	// and has no answer yet.
	peerPID int64
	offered bool

	// burst suppresses the per-message flush between burstBegin and
	// burstEnd so a whole SendBatch rides one doorbell.
	burst bool

	// failed latches when the QP dies (retry exhaustion, flush); an
	// inherited endpoint starts out failed, with no QP. Past a dead QP the
	// data path keeps accepting sends into the local ring copy (§4.2: the
	// TX ring IS the retransmit buffer) while the recovery state machine in
	// recover.go re-establishes a QP.
	failed bool
	rec    recoverState
}

const (
	wrData   = 1 // WRID tags for send-CQ dispatch
	wrCredit = 2
	wrZC     = 3
)

// trySend of an inherited endpoint sends nothing: its first use starts the
// splice of a QP of its own, which the send's wait drives (recover.go).
func (e *rdmaEP) trySend(ctx exec.Context, typ uint8, a, b []byte) bool {
	if e.qp == nil {
		e.maybeRecover(ctx)
		return false
	}
	if !e.side.TX.TrySendV(typ, 0, a, b) {
		// Stale credits? The peer returns them by writing our credit word.
		e.refreshCredit()
		if !e.side.TX.TrySendV(typ, 0, a, b) {
			if e.burst {
				// A burst defers the doorbell, but a full ring means the
				// peer must drain before we can stage more: push what is
				// coalesced so credits can come back.
				e.side.TX.EndBurst()
				e.flush(ctx)
				e.side.TX.BeginBurst()
			}
			return false
		}
	}
	if e.burst {
		return true // burstEnd rings the doorbell for the whole batch
	}
	// Adaptive batching: send immediately while the pipeline is shallow,
	// otherwise leave the bytes for the next completion to flush.
	if !e.batching || e.inflight < batchThreshold {
		e.flush(ctx)
	}
	return true
}

func (e *rdmaEP) burstBegin() {
	e.burst = true
	e.side.TX.BeginBurst()
}

func (e *rdmaEP) burstEnd(ctx exec.Context) {
	e.side.TX.EndBurst()
	e.burst = false
	e.flush(ctx) // one doorbell for everything the burst staged
}

func (e *rdmaEP) tryRecvN(ctx exec.Context, out []shm.Msg) int {
	if e.qp == nil {
		e.maybeRecover(ctx)
	}
	e.lib.pump(ctx)
	ctx.Charge(e.lib.H.Costs.RingOp)
	return e.side.RX.TryRecvN(out)
}

func (e *rdmaEP) refreshCredit() { e.side.TX.InjectCredit(e.creditIn()) }

// creditIn reads the credit word the peer writes.
func (e *rdmaEP) creditIn() uint64 { return binary.LittleEndian.Uint64(e.side.creditIn[:]) }

// flush posts the unsynchronized region of the TX ring as one or two
// one-sided writes (two when the region wraps); only the last carries the
// immediate with the byte count, so the peer's tail advances exactly once
// per flush.
func (e *rdmaEP) flush(ctx exec.Context) {
	ring := e.side.TX
	written := ring.WriteCursor()
	flushed := e.side.TxFlushed.Load()
	if written == flushed || e.qp == nil {
		return // nothing to mirror, or no QP yet (an inherited endpoint's burst)
	}
	delta := written - flushed
	// Batch size in bytes mirrored per flush: with adaptive batching this
	// grows as the pipeline deepens (§4.2's amortization).
	mBatchSize.Observe(int64(delta))
	mask := ring.Mask()
	capacity := uint64(ring.Cap())
	start := flushed & mask
	ctx.Charge(e.lib.H.Costs.RDMAPost)
	data := ring.Backing(0) // TrySend backed all it wrote, so the region is backed
	// The immediate of the last write carries the absolute tail (low 32
	// bits): in-order delivery makes the completion the exact moment the
	// bytes become observable, so the CQE is both publication and wakeup.
	imm := uint32(written)
	var err error
	if start+delta <= capacity {
		err = e.qp.PostWrite(wrData, data[start:start+delta], e.ringRKey, int64(start), imm, true)
	} else {
		// Wrapped region: both writes chain behind one doorbell so the
		// NIC sees a single posting (and arms one RTO) for the flush.
		first := capacity - start
		wrs := [2]rdma.WriteWR{
			{WRID: wrData, Data: data[start:], RKey: e.ringRKey, RAddr: int64(start)},
			{WRID: wrData, Data: data[:delta-first], RKey: e.ringRKey, RAddr: 0, Imm: imm, WithImm: true},
		}
		err = e.qp.PostWriteBatch(wrs[:])
	}
	if err != nil {
		// ErrQPState: nothing was posted. A QP that errored with no work
		// request outstanding completes nothing in error, so this refusal
		// is the only report there will be: fail the endpoint and leave
		// the bytes unflushed for recovery's resync.
		e.markFailed()
		return
	}
	e.side.TxFlushed.Store(written)
	e.inflight++
}

// tryRecv of an inherited endpoint starts the splice, and reads meanwhile
// what the shared ring holds: the parent's QP keeps delivering into it.
func (e *rdmaEP) tryRecv(ctx exec.Context) (shm.Msg, bool) {
	if e.qp == nil {
		e.maybeRecover(ctx)
	}
	e.lib.pump(ctx)
	ctx.Charge(e.lib.H.Costs.RingOp)
	return e.side.RX.TryRecv()
}

func (e *rdmaEP) canRecv() bool {
	e.lib.pump(exec.Context{})
	return e.side.RX.CanRecv()
}

func (e *rdmaEP) kick(ctx exec.Context) {}

// peerAlive is true: a dead QP means a dead path, not a dead peer. A remote
// corpse is known only by word — KPeerDead, or a refused splice (the peer
// host or process no longer holds the connection) — which latches
// peerReset.
func (e *rdmaEP) peerAlive() bool { return true }

// onRecvCQE handles an incoming write-imm completion: the immediate is
// the absolute ring tail (low 32 bits); publishing it makes the new bytes
// visible, and the CQ arm wakes any sleeper.
func (e *rdmaEP) onRecvCQE(cqe rdma.CQE) {
	if cqe.Status != rdma.WCSuccess {
		e.markFailed()
	} else if cqe.Op == rdma.OpWriteImm {
		e.side.RX.SetTailLow32(cqe.Imm)
	}
	if e.side.is(closed) {
		// Nobody reads this side any more: the completion may have carried
		// the peer's MShut, the last thing the release waits for.
		e.lib.tryReleaseInter(e.side)
	}
}

// onSendCQE releases pipeline slots and flushes coalesced bytes.
func (e *rdmaEP) onSendCQE(ctx exec.Context, cqe rdma.CQE) {
	if cqe.Status != rdma.WCSuccess {
		e.markFailed()
	} else if cqe.WRID == wrData {
		e.inflight = max(e.inflight-1, 0)
		if e.batching {
			e.flush(ctx) // ctx is the zero Context in completion context
		}
	}
	if e.side.is(closed) {
		e.lib.tryReleaseInter(e.side) // the send queue may just have drained
	}
}

// creditHook mirrors the receiver's credit return into the sender's
// memory with a plain (completion-less on the remote) RDMA write.
func (e *rdmaEP) creditHook(read uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], read)
	e.qp.PostWrite(wrCredit, buf[:], e.creditRKey, 0, 0, false)
}
