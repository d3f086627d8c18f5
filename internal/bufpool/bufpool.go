// Package bufpool provides the size-classed, reference-counted buffer
// pool behind the allocation-free data path, and FreeList, the one way the
// simulated stack recycles. Table 2 of the paper puts "Allocate and
// deallocate a buffer" at 0.13 µs — already more than the per-message
// budget of an 8-byte SocksDirect send — so the real system never mallocs
// per message: payload staging is recycled. The RDMA layer stages segment
// payloads here (internal/rdma), the fabric releases them when a frame is
// dropped or delivered (internal/fabric), and libsd borrows copy scratch
// for the §4.3 zero-copy bookkeeping (internal/core).
//
// Buffers come by size class from six FreeLists behind one mutex, the one
// recycler every Sim in the process shares. A Buf carries a reference
// count so one payload can be held by several owners at once — the
// go-back-N retransmit window and every in-flight copy of the frame on the
// wire — and returns to its class when the last owner releases it. No GC
// empties a list, as it does a sync.Pool, so a seeded run allocates the
// same buffers every time. Requests above the largest class fall back to
// the garbage collector (Release becomes a no-op); those are the ≥16 KiB
// messages that travel the zero-copy path anyway (§4.3).
//
// Telemetry: sd/mem/pool/{gets,puts,misses,oversize} counters and the
// sd/mem/pool/outstanding gauge. Outstanding returning to zero after a
// teardown is the pool's leak check.
package bufpool

import (
	"sync"

	"socksdirect/internal/telemetry"
)

// Package-wide metric handles (resolved once; see internal/telemetry).
var (
	mGets        = telemetry.C(telemetry.MemPoolGets)
	mPuts        = telemetry.C(telemetry.MemPoolPuts)
	mMisses      = telemetry.C(telemetry.MemPoolMisses)
	mOversize    = telemetry.C(telemetry.MemPoolOversize)
	gOutstanding = telemetry.G(telemetry.MemPoolOutstanding)
)

// classSizes are the buffer capacities handed out, smallest to largest.
// 4096 matches rdma.MTU (one wire segment); 64 covers acks and credit
// words; the top class covers the largest single-WQE staging a flush
// posts before zero copy takes over.
var classSizes = [...]int{64, 256, 1024, 4096, 16384, 65536}

// numClasses is exported for boundary tests.
const numClasses = len(classSizes)

// classes are the released buffers of each class; mu orders the hand-offs
// between the Sims that share them.
var (
	mu      sync.Mutex
	classes [numClasses]FreeList[Buf]
)

// Buf is a pooled, reference-counted byte buffer. B aliases the pooled
// backing array and is sized to the Get request; cap(B) is the class
// size. The zero of refs means "free" — a Buf in that state must not be
// touched. One Sim holds a Buf at a time, and the pool's mutex orders the
// hand-off to the next, so refs is a plain integer.
type Buf struct {
	B     []byte
	refs  int32
	class int8 // -1: oversize, owned by the GC
}

// FreeList keeps released objects of one kind for reuse, last in first
// out. Its zero value is empty. It takes no lock: its owner — a NIC, a
// fabric, a host, a libsd, an address space — serialises Get and Put.
type FreeList[T any] []*T

// Get returns the object put last, or nil when the list is empty.
func (f *FreeList[T]) Get() (x *T) {
	if n := len(*f); n > 0 {
		x, (*f)[n-1], *f = (*f)[n-1], nil, (*f)[:n-1]
	}
	return x
}

// New returns what Get returns, or a new zero object when the list is empty.
func (f *FreeList[T]) New() *T {
	if x := f.Get(); x != nil {
		return x
	}
	return new(T)
}

// Put keeps x. The caller must not touch it again.
func (f *FreeList[T]) Put(x *T) { *f = append(*f, x) }

// Keep puts x if the list holds fewer than max objects, and reports
// whether it did.
func (f *FreeList[T]) Keep(x *T, max int) bool {
	if len(*f) >= max {
		return false
	}
	f.Put(x)
	return true
}

// Get returns a buffer with len(B) == n holding one reference. The
// contents are NOT zeroed: every data-path caller immediately overwrites
// the bytes it asked for, and clearing 4 KiB per message would put the
// memset back on the path the pool exists to clean.
func Get(n int) *Buf {
	mGets.Inc()
	gOutstanding.Add(1)
	ci := classFor(n)
	if ci < 0 {
		mOversize.Inc()
		return &Buf{B: make([]byte, n), refs: 1, class: -1}
	}
	mu.Lock()
	b := classes[ci].Get()
	mu.Unlock()
	if b == nil {
		mMisses.Inc()
		b = &Buf{B: make([]byte, classSizes[ci]), class: int8(ci)}
	}
	b.B = b.B[:cap(b.B)][:n]
	b.refs = 1
	return b
}

// Ref adds an owner. Each distinct holder of the Buf — the retransmit
// window, every copy of the frame in flight on the fabric — must hold
// its own reference and pair it with exactly one Release.
func (b *Buf) Ref() {
	if b.refs++; b.refs <= 1 {
		panic("bufpool: Ref on a released buffer")
	}
}

// Release drops one owner; the last drop returns the buffer to its class
// list. Releasing more times than referenced panics: a double release
// would let two messages share one backing array, which corrupts
// payloads silently — loud failure is the only acceptable mode.
func (b *Buf) Release() {
	if b.refs--; b.refs < 0 {
		panic("bufpool: Release without matching Get/Ref")
	}
	if b.refs != 0 {
		return
	}
	mPuts.Inc()
	gOutstanding.Add(-1)
	if b.class < 0 {
		return // oversize: the GC owns the backing array
	}
	mu.Lock()
	classes[b.class].Put(b)
	mu.Unlock()
}

// Refs reports the current reference count (tests).
func (b *Buf) Refs() int32 { return b.refs }

// classFor maps a request size to the smallest fitting class, or -1 when
// the request exceeds the largest class.
func classFor(n int) int {
	for i, s := range classSizes {
		if n <= s {
			return i
		}
	}
	return -1
}

// ClassSize reports the capacity a Get(n) buffer will have (tests and
// sizing assertions); -1 means the request is oversize.
func ClassSize(n int) int {
	ci := classFor(n)
	if ci < 0 {
		return -1
	}
	return classSizes[ci]
}

// MaxPooled is the largest request served from a pool class; anything
// bigger is a plain allocation.
func MaxPooled() int { return classSizes[numClasses-1] }

// Outstanding reports buffers currently held (gets minus final puts).
// After a full teardown — QPs closed, endpoints released, fabric drained
// — this must return to the value observed before the workload: that
// delta is the leak check the pool tests and the endpoint-close tests
// assert on.
func Outstanding() int64 { return gOutstanding.Load() }
