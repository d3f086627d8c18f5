// Package shm simulates the intra-host shared memory substrate of
// SocksDirect: a registry of segments attachable only with a secret token
// (the paper marks each SHM queue "by a unique token, so other
// non-privileged processes cannot access it", §3), and the per-socket ring
// buffer of §4.2 — variable-length messages stored back-to-back, a single
// producer and a single consumer running without any lock or atomic
// read-modify-write, and credit-based flow control where the receiver
// returns credits in bulk once it has consumed half the ring.
//
// On a real machine the two sides are separate processes sharing mapped
// pages; here they are threads of one Sim, which runs one at a time (two
// goroutines in TestRingConcurrentStress). The words one side writes for
// the other — the tail, the credit word, the backing's base and extent —
// are the ring's only atomics, and give the release/acquire visibility of
// the tail after the payload that x86 TSO gives in the paper; every other
// field is one side's own. The peer is untrusted (§3): whatever it writes
// into a header, the tail or the credit word, a receive returns no payload
// outside the backing and never reads past a published tail, and a send
// writes nothing past the capacity (FuzzRingHeader).
//
// A ring's storage is backed as it is written, as mapped pages are on
// first touch: a 256 B head for a small first write, the whole capacity
// for the first write past it. Whoever writes backs: TrySend, or for the
// receiver's copy of an inter-host ring the NIC through Backing, which
// also serves a sender's NIC the prefix TrySend laid down. Reset zeroes
// all that was backed, so a recycled ring carries nothing of its last
// connection.
package shm

import (
	"fmt"
	"sync/atomic"
	"unsafe"

	"socksdirect/internal/telemetry"
)

// Package-wide metric handles (resolved once; see internal/telemetry).
var (
	mMsgsSent      = telemetry.C(telemetry.ShmMsgsSent)
	mBytesSent     = telemetry.C(telemetry.ShmBytesSent)
	mMsgsRecv      = telemetry.C(telemetry.ShmMsgsRecv)
	mCreditReturns = telemetry.C(telemetry.ShmCreditReturns)
	mWrapMarkers   = telemetry.C(telemetry.ShmWrapMarkers)
	mSendFull      = telemetry.C(telemetry.ShmSendFull)
	mOccupancy     = telemetry.G(telemetry.ShmOccupancy)
	mMsgSize       = telemetry.D(telemetry.ShmMsgSize)
	mSegmentsLive  = telemetry.G(telemetry.ShmSegmentsLive)
)

// cpad pads fields apart so producer- and consumer-owned state do not
// false-share a cache line.
type cpad [64]byte

// Msg is one dequeued message. Payload aliases the ring storage and stays
// valid only until the next TryRecv on the same ring; copy it out to keep
// it longer.
type Msg struct {
	Type    uint8
	Flags   uint8
	Payload []byte
}

// Ring is the single-producer single-consumer ring buffer. One side must
// call only TrySend*, the other only TryRecv.
type Ring struct {
	capacity uint64
	mask     uint64
	// Storage is backed on first write (back, Backing). The producer
	// publishes base, then ext, then the tail; a consumer loads them in
	// reverse order.
	base atomic.Pointer[uint64]
	ext  atomic.Uint64 // bytes backed
	data []byte        // the producer's view of the backing

	_      cpad
	tail   atomic.Uint64 // bytes enqueued; written by sender, polled by receiver
	_      cpad
	credit atomic.Uint64 // bytes the receiver has freed; written by receiver
	_      cpad

	// sender-local
	written    uint64
	creditSeen uint64
	occHW      uint64 // high-water of (written - creditSeen), for sdstat
	full       bool   // the last TrySend found no room
	// An open burst (BeginBurst) stages messages without publishing the
	// tail, and their telemetry accumulates here; EndBurst publishes once.
	burst      bool
	burstMsgs  int64
	burstBytes int64
	_          cpad

	// receiver-local
	view         []byte // the backing as of tailSeen
	read         uint64
	tailSeen     uint64
	creditFlush  uint64
	creditThresh uint64
	creditHook   CreditHook
}

const (
	hdrSize   = 8
	wrapType  = 0xFF
	headBytes = 256 // what a small first write backs: a Fig. 6 MAck and a FIN
)

// NewRing makes a ring with the given power-of-two capacity in bytes.
func NewRing(capacity int) *Ring {
	if capacity <= 0 || capacity&(capacity-1) != 0 {
		panic(fmt.Sprintf("shm: ring capacity %d is not a power of two", capacity))
	}
	return &Ring{
		capacity:     uint64(capacity),
		mask:         uint64(capacity - 1),
		creditThresh: uint64(capacity) / 2,
	}
}

// back backs the head if n bytes fit it, else the whole ring, with what was written.
func (r *Ring) back(n uint64) {
	size := r.capacity
	if n <= headBytes {
		size = min(headBytes, r.capacity)
	}
	words := make([]uint64, size/8)
	data := unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), size)
	copy(data, r.data)
	r.data = data
	r.base.Store(&words[0])
	r.ext.Store(size)
}

// Reset returns the ring to its just-allocated state so it can serve a new
// connection: every cursor, credit word, burst field and the credit hook
// cleared, and the whole backing zeroed so the next peer can never read a
// previous connection's bytes (§3: peers are untrusted) — a remote NIC may
// have written past any tail it published. A connection that stayed in the
// head backed only the head, so that is all its scrub costs; the backing is
// kept. Neither side may use the ring.
func (r *Ring) Reset() {
	clear(r.data)
	r.tail.Store(0)
	r.credit.Store(0)
	r.written, r.creditSeen, r.occHW, r.full = 0, 0, 0, false
	r.read, r.tailSeen, r.creditFlush = 0, 0, 0
	r.creditHook = nil
	r.burst, r.burstMsgs, r.burstBytes = false, 0, 0
}

// Cap returns the ring capacity in bytes.
func (r *Ring) Cap() int { return int(r.capacity) }

// MaxMsg returns the largest payload a single message can carry. Larger
// transfers must be segmented (or sent zero-copy) by the caller.
func (r *Ring) MaxMsg() int { return int(r.capacity) - 2*hdrSize }

func pad8(n int) uint64 { return uint64(n+7) &^ 7 }

func packHdr(typ, flags uint8, n int) uint64 {
	return uint64(uint32(n)) | uint64(typ)<<32 | uint64(flags)<<40
}

func unpackHdr(h uint64) (typ, flags uint8, n int) {
	return uint8(h >> 32), uint8(h >> 40), int(uint32(h))
}

func hdrAt(b []byte, off uint64) *uint64 {
	return (*uint64)(unsafe.Pointer(&b[off]))
}

// free returns the sender's current view of free bytes, refreshing the
// credit counter from the receiver if stale.
func (r *Ring) free(need uint64) bool {
	if r.capacity-(r.written-r.creditSeen) >= need {
		return true
	}
	r.creditSeen = r.credit.Load()
	return r.capacity-(r.written-r.creditSeen) >= need
}

// TrySend enqueues one message; it returns false when the ring lacks space
// (the caller decides whether to spin, yield, or switch to interrupt mode).
func (r *Ring) TrySend(typ, flags uint8, payload []byte) bool {
	return r.TrySendV(typ, flags, payload, nil)
}

// TrySendV enqueues a message gathered from two byte slices (header +
// body), saving the caller an intermediate copy. Either slice may be nil.
func (r *Ring) TrySendV(typ, flags uint8, a, b []byte) bool {
	n := len(a) + len(b)
	if n > r.MaxMsg() {
		panic(fmt.Sprintf("shm: message of %d bytes exceeds ring max %d", n, r.MaxMsg()))
	}
	sz := hdrSize + pad8(n)
	off := r.written & r.mask
	rem := r.capacity - off
	total := sz
	if sz > rem {
		total += rem // skip to ring start via wrap marker
	}
	if r.full = !r.free(total); r.full {
		mSendFull.Inc()
		return false
	}
	if end := min(off+total, r.capacity); end > uint64(len(r.data)) {
		r.back(end)
	}
	if sz > rem {
		*hdrAt(r.data, off) = packHdr(wrapType, 0, 0)
		r.written += rem
		off = 0
		mWrapMarkers.Inc()
	}
	copy(r.data[off+hdrSize:], a)
	copy(r.data[off+hdrSize+uint64(len(a)):], b)
	*hdrAt(r.data, off) = packHdr(typ, flags, n)
	r.written += sz
	if r.burst {
		// Doorbell coalescing: the batch becomes visible — and its
		// telemetry is paid — once, at EndBurst.
		r.burstMsgs++
		r.burstBytes += int64(n)
		return true
	}
	r.tail.Store(r.written) // release: publish payload + header
	mMsgsSent.Inc()
	mBytesSent.Add(int64(n))
	mMsgSize.Observe(int64(n))
	occ := r.written - r.creditSeen
	mOccupancy.Set(int64(occ)) // sender-side occupancy view
	if occ > r.occHW {
		r.occHW = occ
	}
	return true
}

// BeginBurst opens a sender-side burst: subsequent TrySend* calls stage
// messages into the ring without publishing the tail, so a multi-message
// batch costs one release-store and one telemetry update instead of one
// per message (the §4.2 amortization, applied to the doorbell itself).
// Bursts do not nest; the sender must call EndBurst before the receiver
// can observe any staged message.
func (r *Ring) BeginBurst() { r.burst = true }

// InBurst reports whether a burst is open (sender-side only).
func (r *Ring) InBurst() bool { return r.burst }

// EndBurst publishes everything staged since BeginBurst with a single
// tail store and folds the accumulated telemetry in. Safe to call with
// nothing staged.
func (r *Ring) EndBurst() {
	r.burst = false
	if r.burstMsgs == 0 {
		return
	}
	r.tail.Store(r.written) // release: publish the whole batch
	mMsgsSent.Add(r.burstMsgs)
	mBytesSent.Add(r.burstBytes)
	mMsgSize.Observe(r.burstBytes / r.burstMsgs)
	r.burstMsgs, r.burstBytes = 0, 0
	occ := r.written - r.creditSeen
	mOccupancy.Set(int64(occ))
	if occ > r.occHW {
		r.occHW = occ
	}
}

// OccHW returns the highest sender-side occupancy this ring has seen: bytes
// sent and not yet credited back (written − creditSeen). The receiver returns
// credit in bulk, once it has consumed half the ring or finds it empty, so
// this is not what the ring holds: it can read up to the capacity while the
// ring holds a few bytes. Sender-local and unsynchronized: a concurrent
// reader gets a recent, not necessarily latest, value.
func (r *Ring) OccHW() uint64 { return r.occHW }

// TryRecv dequeues one message. The returned payload aliases ring memory
// and is valid until the next TryRecv call.
func (r *Ring) TryRecv() (Msg, bool) {
	if !r.CanRecv() {
		// Idle: return any outstanding credits so the sender sees the whole
		// ring free (cheap, and only on the empty path). Only when this first
		// look finds nothing: past a wrap marker whose message is not yet
		// visible, the credit waits for the next look.
		if r.creditFlush != r.read {
			r.flushCredit()
		}
		return Msg{}, false
	}
	off, h, ok := r.next()
	if !ok {
		return Msg{}, false
	}
	// Return credits for everything consumed before this message so the
	// returned payload view cannot be overwritten while in use.
	if r.read-r.creditFlush >= r.creditThresh {
		r.flushCredit()
	}
	m := r.take(off, h)
	mMsgsRecv.Inc()
	return m, true
}

// TryRecvN dequeues up to len(out) messages in one call, paying the
// credit bookkeeping and telemetry once for the whole pop. Every returned
// payload view aliases ring storage and stays valid until the next
// TryRecv/TryRecvN: credits are flushed only for bytes consumed *before*
// this call, so nothing the batch still references can be overwritten.
func (r *Ring) TryRecvN(out []Msg) int {
	if len(out) == 0 {
		return 0
	}
	// Return credits for everything consumed before this batch (same
	// validity rule as the single-message path, amortized).
	if r.read-r.creditFlush >= r.creditThresh {
		r.flushCredit()
	}
	got := 0
	for ; got < len(out); got++ {
		off, h, ok := r.next()
		if !ok {
			break
		}
		out[got] = r.take(off, h)
	}
	if got > 0 {
		mMsgsRecv.Add(int64(got))
	} else if r.creditFlush != r.read {
		// Idle: return outstanding credits, as TryRecv's empty path does.
		r.flushCredit()
	}
	return got
}

// next returns the ring offset and header of the next message, stepping
// over a wrap marker, or false when no message is visible yet (a wrap
// marker may be, and then it is consumed). A message or marker that would
// end past the backing or the tail is a hostile peer's (§3): it is not
// taken, so read never passes the tail.
func (r *Ring) next() (off, h uint64, ok bool) {
	if !r.CanRecv() {
		return 0, 0, false
	}
	off = r.read & r.mask
	if off+hdrSize > uint64(len(r.view)) {
		return 0, 0, false
	}
	h = *hdrAt(r.view, off)
	if typ, _, _ := unpackHdr(h); typ == wrapType {
		if r.read+r.capacity-off > r.tailSeen {
			return 0, 0, false
		}
		r.read += r.capacity - off
		if !r.CanRecv() {
			return 0, 0, false // the sender wrapped; its next message is not visible yet
		}
		off, h = 0, *hdrAt(r.view, 0) // the marker was backed, so offset 0 is
	}
	_, _, n := unpackHdr(h)
	return off, h, off+hdrSize+uint64(n) <= uint64(len(r.view)) && r.read+hdrSize+pad8(n) <= r.tailSeen
}

// take consumes the message whose header h is at off.
func (r *Ring) take(off, h uint64) Msg {
	typ, flags, n := unpackHdr(h)
	r.read += hdrSize + pad8(n)
	return Msg{Type: typ, Flags: flags, Payload: r.view[off+hdrSize : off+hdrSize+uint64(n)]}
}

func (r *Ring) flushCredit() {
	if r.creditHook != nil {
		r.creditHook.CreditReturned(r.read)
	} else {
		r.credit.Store(r.read)
	}
	r.creditFlush = r.read
	mCreditReturns.Inc()
}

// PeekType returns the type of the next message without consuming it
// (skipping wrap markers). It lets the socket layer drain in-band control
// messages opportunistically without touching application data.
func (r *Ring) PeekType() (uint8, bool) {
	_, h, ok := r.next()
	if !ok {
		return 0, false
	}
	typ, _, _ := unpackHdr(h)
	return typ, true
}

// CanRecv reports whether a message is available without consuming it.
func (r *Ring) CanRecv() bool {
	if r.read != r.tailSeen {
		return true
	}
	r.tailSeen = r.tail.Load()
	if n := r.ext.Load(); n > uint64(len(r.view)) {
		r.view = unsafe.Slice((*byte)(unsafe.Pointer(r.base.Load())), n)
	}
	return r.read != r.tailSeen
}

// RecvIdle reports whether TryRecv (or TryRecvN) would come back empty and
// leave the ring as it found it: no message, and no credit the empty path
// still has to return. Like CanRecv it only refreshes the cached tail.
func (r *Ring) RecvIdle() bool { return r.creditFlush == r.read && !r.CanRecv() }

// SendStalled reports whether the last TrySend failed for want of space and
// would fail again: no credit has come back since it looked. (A sender may
// fail without trying the ring — an inter-host endpoint with no QP yet — and
// then nothing says the ring is full.)
func (r *Ring) SendStalled() bool { return r.full && r.creditSeen == r.credit.Load() }

// CountSendFull books n polls of a full ring that a stalled sender left to
// the scheduler (sd/shm/send_full counts them made or played).
func CountSendFull(n int) { mSendFull.Add(int64(n)) }

// Used returns the sender-side estimate of bytes in flight (for tests and
// adaptive batching decisions).
func (r *Ring) Used() int { return int(r.written - r.credit.Load()) }

// --- hooks for the RDMA-synchronized two-copy configuration (§4.2): the
// sender's local ring copy is mirrored into the receiver's copy with
// one-sided writes, tails advance via write-imm completions, and credits
// return through a remote write into the sender's memory. ---

// Backing returns the producer's view of the storage, first backing it
// through byte end by the head-then-whole rule when it does not reach that
// far: a NIC DMAs into the receiver's copy up to the end of each write, and
// out of the sender's copy only what TrySend has laid down (end 0).
func (r *Ring) Backing(end int) []byte {
	if n := min(uint64(end), r.capacity); n > uint64(len(r.data)) {
		r.back(n)
	}
	return r.data
}

// Mask returns the cursor mask (capacity-1).
func (r *Ring) Mask() uint64 { return r.mask }

// WriteCursor returns the sender-side total bytes enqueued; the RDMA
// mirror uses it to compute the unsynchronized region.
func (r *Ring) WriteCursor() uint64 { return r.written }

// Tail returns the published tail: total bytes visible to the receiver.
// Failure recovery exchanges it so a sender knows where to resume.
func (r *Ring) Tail() uint64 { return r.tail.Load() }

// Credit returns the receiver-acknowledged consumption cursor as seen on
// this (sender-side) ring. Bytes below it were definitely consumed, so QP
// recovery can rewind the mirror cursor here and re-flush: content above
// the credit line is immutable until the receiver frees it, making the
// re-delivery byte-identical and idempotent.
func (r *Ring) Credit() uint64 { return r.credit.Load() }

// SetTail publishes an absolute tail (monotonic): the RDMA configuration
// mirrors the sender's cursor into the receiver's memory after the data,
// so any process sharing the ring copy can poll it without owning the
// completion queue (fork support, §4.1.2).
func (r *Ring) SetTail(v uint64) {
	for {
		cur := r.tail.Load()
		if v <= cur || r.tail.CompareAndSwap(cur, v) {
			return
		}
	}
}

// SetTailLow32 publishes a tail whose low 32 bits arrived in a
// write-with-immediate. The cursor advances by less than the ring
// capacity per publication, so the full value reconstructs uniquely as
// the smallest cursor >= the current tail with those low bits.
func (r *Ring) SetTailLow32(low uint32) {
	for {
		cur := r.tail.Load()
		v := (cur &^ 0xFFFFFFFF) | uint64(low)
		if v < cur {
			v += 1 << 32
		}
		if v == cur || r.tail.CompareAndSwap(cur, v) {
			return
		}
	}
}

// InjectCredit installs a credit counter that arrived by remote write.
func (r *Ring) InjectCredit(v uint64) {
	for {
		cur := r.credit.Load()
		if v <= cur || r.credit.CompareAndSwap(cur, v) {
			return
		}
	}
}

// CreditHook takes a receiver's credit returns in place of the ring's local
// credit word.
type CreditHook interface{ CreditReturned(read uint64) }

// SetCreditHook diverts the receiver's credit returns to h (which mirrors
// them to the sender's memory with a remote write) instead of the local
// credit word. Call before any traffic.
func (r *Ring) SetCreditHook(h CreditHook) { r.creditHook = h }
