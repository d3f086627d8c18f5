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
	"fmt"
	"sync/atomic"

	"socksdirect/internal/bufpool"
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
	// an intra-host socket they are the peer side's RX and TX; for an
	// inter-host socket they are this host's local copies, synchronized
	// by RDMA.
	TX, RX *shm.Ring

	// Token fast path (§4.1), by direction (DirSend, DirRecv): the GTID
	// currently holding each token. Reading your own GTID here is the
	// entire synchronization cost of the common case.
	Holder [2]atomic.Int64

	// ReturnReq is set by the control plane when the monitor wants the
	// token back; the holder hands it over at the next operation boundary.
	ReturnReq [2]atomic.Bool

	// Busy counters: nonzero while a thread is inside an operation that
	// uses the direction's token. A revocation may be executed by ANY
	// thread of the process when the counter is zero (the holder is idle
	// in application code); otherwise the holder honors it at its own
	// operation boundary.
	Busy [2]atomic.Int32

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

	// life is the side's facts: what has happened to it (lifecycle.go).
	// Facts only accumulate; reach is the one writer.
	life atomic.Uint32

	// --- RDMA-transport shared state (zero for SHM sockets). Living in
	// the SHM segment keeps forked processes coherent: the child's fresh
	// QP continues exactly where the parent's stopped (§4.1.2). ---

	// TxFlushed is how far the TX ring has been mirrored to the peer.
	TxFlushed atomic.Uint64
	// creditEP posts credit-return writes for the RX ring; the current
	// receive-token holder installs its endpoint here.
	creditEP *rdmaEP
	// LastCreditOut is the most recent credit value this side published to
	// the peer; recovery re-posts it (a credit write lost to the fault would
	// otherwise shrink the peer's send window forever).
	LastCreditOut atomic.Uint64

	// Remote zero-copy pool (sender-managed free slots, Fig. 5b). Access
	// is serialized by the send token. poolLent marks the slots in flight.
	PoolRKey uint64
	PoolFree []int32
	poolLent [zcPoolPages / 64]uint64
	PoolWant int // slots the sender is polling PoolFree for (zcWaiter)

	// LocalPool is this side's pinned receive pool (shared across fork);
	// poolHeld marks its slots that a queued arrival names, which no other
	// descriptor may name until the arrival is received (queueZC).
	LocalPool *zcPool
	poolHeld  [zcPoolPages / 64]uint64

	// PendingReturns are freed pool slots awaiting a send-token holder to
	// carry them back in band (the receive path may not write the TX ring).
	PendingReturns []int32

	// PeerHost names the remote host of an inter-host socket (a splice
	// routes its QP request through it).
	PeerHost string

	// What an inter-host side owns besides its rings and pool, so the
	// release path can give all of it back: every endpoint (QP) ever
	// registered for the side, in any process — an inherited socket's
	// splice and recovery add some — every MR over its memory, and its SHM
	// segment. The released fact records that it was given back.
	eps    []*rdmaEP
	mrs    []*rdma.MR
	segTok shm.Token
	// creditIn is the credit word the remote receiver writes with one-sided
	// RDMA (inter-host only; MR-registered). The RX tail has no word: it
	// arrives as the immediate of the remote sender's last write
	// (rdmaEP.onRecvCQE), and whichever process's QP took the write
	// publishes it into the shared ring.
	creditIn [8]byte
	// sock is the Socket a clean release detaches before the segment is
	// reused; nil once a second process inherited the side, whose segment
	// is then dropped. home is an inter-host side's interSide.
	sock *Socket
	home *interSide
}

// fact is something that has happened to a socket side. A side's facts are
// one word (SideState.life): the two half-closes and a peer's crash happen
// independently of each other, so no single state could name them.
// ARCHITECTURE.md "Connection lifecycle" has the table of who reaches each.
type fact uint32

const (
	established fact = 1 << iota // Fig. 6's MAck went out (accept) or arrived (connect)
	txShut                       // our MShut went out
	rxShut                       // the peer's MShut arrived, or we shut our receive direction
	peerShut                     // the peer's MShut really arrived
	peerReset                    // the peer process died (§4.5.4); in-flight bytes drain first
	resetSeen                    // ECONNRESET surfaced, once; later receives read EOF
	closed                       // the last FD reference closed, its MShut out
	released                     // what the connection owns here was given back
)

// needs is the table of legal orders: the facts f may only follow.
func (f fact) needs() fact {
	switch f {
	case peerShut:
		return rxShut
	case resetSeen:
		return peerReset
	case closed:
		return txShut | rxShut
	}
	return 0
}

// is reports whether the side has reached any of fs.
func (s *SideState) is(fs fact) bool { return fact(s.life.Load())&fs != 0 }

// reach records fact f and reports whether this call did. It is the one
// writer of the word; reaching f before what it needs is a libsd bug.
func (s *SideState) reach(f fact) bool {
	for {
		old := fact(s.life.Load())
		if need := f.needs(); old&need != need {
			panic(fmt.Sprintf("libsd: queue %d reached fact %#x without %#x", s.QID, f, need&^old))
		}
		if old&f != 0 || s.life.CompareAndSwap(uint32(old), uint32(old|f)) {
			return old&f == 0
		}
	}
}

// IntraSock is the SHM segment payload for an intra-host socket: one
// duplex ring pair (A's TX is B's RX and the reverse) plus both endpoints'
// state, so either process (and all their forked children) can reach
// everything through one capability.
type IntraSock struct {
	QID  uint64
	Tok  shm.Token // the segment's
	A, B SideState // A = connecting side, B = accepting side
}

// NewIntraSock takes an IntraSock off idle and scrubs it but for its rings,
// which its release scrubbed (new, with two new rings, when idle is empty),
// and registers its segment.
func NewIntraSock(reg *shm.Registry, idle *bufpool.FreeList[IntraSock], qid uint64, ringCap int) *IntraSock {
	is := idle.New()
	tx, rx := reuseRings(is.A.TX, is.A.RX, ringCap)
	*is = IntraSock{QID: qid}
	a, b := &is.A, &is.B
	a.QID, a.TX, a.RX = qid, tx, rx
	b.QID, b.TX, b.RX = qid, a.RX, a.TX
	a.Refs.Store(1)
	b.Refs.Store(1)
	is.Tok = reg.Create(is).Token
	return is
}

// Peer returns the other endpoint's state (sleep/wake checks).
func (s *IntraSock) Peer(side *SideState) *SideState {
	if side == &s.A {
		return &s.B
	}
	return &s.A
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

	// The two words of §4.4's interrupt, in memory both sides map: InLibsd
	// counts the process's threads inside libsd, and Pending marks a
	// message the monitor wants noticed (Monitor.sendTo sets it, pollCtl
	// clears it, Libsd.leave honours it). Both are the process's to write:
	// a process that lies about them only delays its own notifications,
	// and the monitor never waits on them.
	InLibsd atomic.Int32
	Pending atomic.Bool

	// The full-ring marks, one bit per shard. A control send never waits on
	// a full ring: it queues behind it on its own side and marks the plane.
	// MonQueued: the monitor holds messages for the process; pollCtl,
	// having drained the plane, clears the bit and rings the shard.
	// LibQueued: libsd holds messages for the monitor; the shard, having
	// drained the plane, clears the bit and notifies the process as for a
	// signalled message. Both are the process's to write, as above.
	MonQueued atomic.Uint32
	LibQueued atomic.Uint32
}
