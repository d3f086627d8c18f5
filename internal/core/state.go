// Package core implements libsd, the user-space socket library that is the
// paper's primary contribution. Each simulated process loads one Libsd
// instance (the LD_PRELOAD shim of §3); it implements the socket API in
// user space, keeps an FD remapping table to preserve Linux FD semantics
// (§4.5.1), shares sockets between threads and forked processes with
// send/receive tokens instead of locks (§4.1), moves data over per-socket
// ring buffers synchronized by shared memory or one-sided RDMA writes
// (§4.2), remaps pages instead of copying for large transfers (§4.3), and
// multiplexes events from user-space queues and the kernel (§4.4). The
// control plane — connection establishment, port allocation, token
// arbitration, access control — is delegated to the per-host monitor
// daemon over an exclusive shared-memory queue.
package core

import (
	"sync"
	"sync/atomic"

	"socksdirect/internal/rdma"
	"socksdirect/internal/shm"
)

// GTID is a host-global thread identity (pid, tid packed), the unit that
// holds queue tokens.
type GTID int64

// MakeGTID packs a pid/tid pair.
func MakeGTID(pid, tid int) GTID { return GTID(int64(pid)<<20 | int64(tid)) }

// PID extracts the process part.
func (g GTID) PID() int { return int(g >> 20) }

// TID extracts the thread part.
func (g GTID) TID() int { return int(g & ((1 << 20) - 1)) }

// Ring message types on the data plane (in-band control shares the ring
// with payload, so the common case needs no side channel).
const (
	MData  uint8 = 1 // payload bytes
	MAck   uint8 = 2 // connection-establishment ACK (Fig. 6)
	MShut  uint8 = 3 // sender shut its TX direction (close handshake §4.5.4)
	MZC    uint8 = 4 // zero-copy descriptor: pages instead of bytes (§4.3)
	MZCRet uint8 = 5 // zero-copy page return (intra: obf ids; inter: slots)
	// 6 is reserved: it was MPoolInit, which nothing ever sent (the pinned
	// pool's key travels in the connection's control messages).
)

// Direction indices for token arrays.
const (
	DirSend = 0
	DirRecv = 1
)

// SideState is one endpoint's shared socket state. It lives in a SHM
// segment so that after fork both parent and child see the same rings,
// cursors, token holders and reference counts (§4.1.2: "We use SHM to
// store the socket metadata and buffers, so after fork, the data is still
// shared").
type SideState struct {
	QID uint64
	// TX and RX are the rings this side sends on and receives from. For
	// an intra-host socket they are the two directions of one shared
	// Duplex; for an inter-host socket they are this host's local copies,
	// synchronized by RDMA.
	TX, RX *shm.Ring
	// CreditIn is the 8-byte credit word the remote receiver writes with
	// one-sided RDMA (inter-host only; MR-registered).
	CreditIn []byte
	// TailIn is the 8-byte absolute tail of the RX ring, written by the
	// remote sender after each data write. Keeping it in the shared
	// segment lets parent and child both observe arrivals regardless of
	// which QP carried them (inter-host only; MR-registered).
	TailIn []byte

	// Token fast path (§4.1): the GTID currently holding each token.
	// Reading your own GTID here is the entire synchronization cost of
	// the common case.
	SendHolder atomic.Int64
	RecvHolder atomic.Int64

	// ReturnReq is set by the control plane when the monitor wants the
	// token back; the holder hands it over at the next operation boundary.
	SendReturnReq atomic.Bool
	RecvReturnReq atomic.Bool

	// Busy counters: nonzero while a thread is inside an operation that
	// uses the corresponding token. A revocation may be executed by ANY
	// thread of the process when the counter is zero (the holder is idle
	// in application code); otherwise the holder honors it at its own
	// operation boundary.
	BusySend atomic.Int32
	BusyRecv atomic.Int32

	// Sleepers: GTID of a thread that entered interrupt mode on this
	// side's RX (the peer's sender wakes it through the monitor, §4.4).
	RecvSleeper atomic.Int64

	// Poller, for the waits' idle predicates: whose token the wait on each
	// direction watches (0: none). A second thread gets into such a wait
	// only after the first was resumed to hand the token over.
	Poller [2]int64

	// PeerPID is the peer process for intra-host death detection
	// (SIGHUP on failure, §4.5.4); zero for inter-host sockets.
	PeerPID atomic.Int64

	// Refs counts FDs referring to this side (fork/dup increment;
	// close decrements; the side dies at zero).
	Refs atomic.Int32

	// Close handshake state. TxShut/RxShut gate the data path per direction
	// (RxShut is also set by a local shutdown); Closed and PeerShut drive
	// the release of the connection's resources (lifecycle.go): Closed
	// latches once the last FD reference on this side is gone and its
	// MShut went out, PeerShut only when the peer's MShut really arrived.
	TxShut   atomic.Bool // we sent MShut
	RxShut   atomic.Bool // peer sent MShut, or we shut our receive direction
	Closed   atomic.Bool
	PeerShut atomic.Bool

	// Crash state (§4.5.4). PeerReset latches when the monitor reports the
	// peer process dead (KPeerDead) or the local host observes its corpse
	// directly; the ring memory survives, so in-flight bytes drain first.
	// ResetSeen serializes reset-after-drain to kernel TCP semantics: the
	// first post-drain receive returns ECONNRESET, later ones io.EOF.
	PeerReset atomic.Bool
	ResetSeen atomic.Bool

	// --- RDMA-transport shared state (zero for SHM sockets). Living in
	// the SHM segment keeps forked processes coherent: the child's fresh
	// QP continues exactly where the parent's stopped (§4.1.2). ---

	// TxFlushed is how far the TX ring has been mirrored to the peer.
	TxFlushed atomic.Uint64
	// creditEP posts credit-return writes for the RX ring; the current
	// receive-token holder installs its endpoint here. Boxed behind an
	// interface so the degraded (kernel-TCP) endpoint can stand in for the
	// RDMA one.
	creditEP atomic.Pointer[creditBox]
	// LastCreditOut is the most recent credit value this side published to
	// the peer; recovery re-posts it (a credit write lost to the fault would
	// otherwise shrink the peer's send window forever).
	LastCreditOut atomic.Uint64

	// Self*RKey are this side's own MR rkeys (RX ring, CreditIn, TailIn),
	// kept so failure recovery can hand the unchanged keys to the peer's
	// replacement QP without re-registering anything.
	SelfRingRKey   uint64
	SelfCreditRKey uint64
	SelfTailRKey   uint64

	// Degraded latches once the socket has fallen back to kernel TCP
	// mid-stream (§4.5.3); there is no way back to RDMA for this socket.
	Degraded atomic.Bool

	// Remote zero-copy pool (sender-managed free slots, Fig. 5b). Access
	// is serialized by the send token; the mutex guards fork hand-off.
	PoolMu     sync.Mutex
	PoolRKey   uint64
	PoolFree   []int32
	PoolRemote int // slot count advertised by the peer
	PoolWant   int // slots the sender is polling PoolFree for (zcWaiter)

	// LocalPool is this side's pinned receive pool (shared across fork).
	LocalPool *zcPool

	// PendingReturns are freed pool slots awaiting a send-token holder to
	// carry them back in band (the receive path may not write the TX ring).
	PendingReturns []int32

	// PeerHost names the remote host of an inter-host socket (forked
	// children route QP re-establishment through it).
	PeerHost string

	// What an inter-host side owns besides its rings and pool, so the
	// release path can give all of it back: every endpoint (QP) ever
	// registered for the side, in any process — fork and recovery add
	// some — every MR over its memory, and its SHM segment. released
	// latches when that happened; resMu also serializes the release
	// decision, which drains the RX ring.
	resMu    sync.Mutex
	eps      []*rdmaEP
	mrs      []*rdma.MR
	segTok   shm.Token
	released atomic.Bool
	words    [2][8]byte // backing store of CreditIn and TailIn
}

// IntraSock is the SHM segment payload for an intra-host socket: one
// duplex ring pair plus both endpoints' state, so either process (and all
// their forked children) can reach everything through one capability.
type IntraSock struct {
	QID  uint64
	D    *shm.Duplex
	A, B *SideState // A = connecting side, B = accepting side

	// released latches when the segment and rings were given back, by the
	// last closer or by the monitor's crash cleanup, whichever gets there.
	released atomic.Bool
}

// NewIntraSock wires a duplex of two rings from the host's recycle list
// (fresh ones when it is empty) into two SideStates.
func NewIntraSock(reg *shm.Registry, qid uint64, ringCap int) *IntraSock {
	d := &shm.Duplex{AtoB: reg.GetRing(ringCap), BtoA: reg.GetRing(ringCap)}
	a := &SideState{QID: qid, TX: d.AtoB, RX: d.BtoA}
	b := &SideState{QID: qid, TX: d.BtoA, RX: d.AtoB}
	a.Refs.Store(1)
	b.Refs.Store(1)
	return &IntraSock{QID: qid, D: d, A: a, B: b}
}

// Peer returns the other endpoint's state (sleep/wake checks).
func (s *IntraSock) Peer(side *SideState) *SideState {
	if side == s.A {
		return s.B
	}
	return s.A
}

// ProcLink is what the monitor hands a process at registration: one
// exclusive control duplex per monitor shard (app side A, monitor side B;
// index = shard number, see internal/monitor/shard) plus a wake hook.
// The wake hook stands in for the real monitor's busy polling — a shard
// loop parks as soon as a pass finds nothing, and a control-plane sender
// nudges the shard it wrote to, which runs at the nudge: an always-polling
// monitor with zero extra latency. (An Unpark is never earlier than the
// Sim's global clock, so a sender whose own clock lags it is served at the
// global clock; EXPERIMENTS.md "One loop or four".)
type ProcLink struct {
	Ds          []*shm.Duplex
	WakeMonitor func(shard int)
	MonitorHost string
	// Epoch is the monitor incarnation that issued this link. libsd stamps
	// it on every control message; a restarted monitor (higher epoch)
	// drops messages carrying an older stamp, and libsd learns the new
	// epoch from the successor's KReRegister.
	Epoch uint32
}
