// Package mem simulates the virtual memory machinery that SocksDirect's
// zero-copy path (§4.3) relies on: 4 KiB physical frames with reference
// counts, per-process page tables, copy-on-write resolution that skips the
// copy on whole-page overwrites ("minimize copy-on-write"), page pinning
// for RDMA, per-process free-page pools, and obfuscated physical addresses
// so that page identifiers can travel through untrusted user-space queues
// without letting a malicious peer map arbitrary memory.
//
// Real hardware faults on COW writes; simulated applications instead access
// buffers through AddressSpace.Read/Write, which perform the same checks a
// fault handler would. The observable semantics — aliasing until first
// write, isolation after — are identical.
package mem

import (
	"errors"
	"fmt"
	"sync"

	"socksdirect/internal/costmodel"
	"socksdirect/internal/exec"
	"socksdirect/internal/telemetry"
)

// Package-wide metric handles (resolved once; see internal/telemetry).
var (
	mPageRemaps = telemetry.C(telemetry.HostPageRemaps)
	mCOWFaults  = telemetry.C(telemetry.HostCOWFaults)
)

// PageSize is the simulated page size.
const PageSize = 4096

// PageShift converts addresses to virtual page numbers.
const PageShift = 12

// PageID names a physical frame. Zero is never a valid frame.
type PageID uint64

// ObfPageID is an obfuscated PageID as carried through user-space queues.
type ObfPageID uint64

// VAddr is a simulated virtual address.
type VAddr uint64

// Errors returned by the VM layer.
var (
	ErrUnmapped   = errors.New("mem: address not mapped")
	ErrBadPage    = errors.New("mem: invalid (possibly forged) page id")
	ErrNotAligned = errors.New("mem: address not page aligned")
)

type frame struct {
	id     PageID
	data   []byte
	refs   int
	pinned bool
	home   *AddressSpace // pool that reclaims this frame at refs==0
}

// PhysMem is the host's physical memory: the frame allocator plus the
// kernel-held obfuscation secret.
type PhysMem struct {
	mu     sync.Mutex
	frames map[PageID]*frame
	next   PageID
	secret uint64
	costs  *costmodel.Costs
}

// NewPhysMem creates a physical memory with the given obfuscation secret.
// costs may be nil (no simulated charges).
func NewPhysMem(secret uint64, costs *costmodel.Costs) *PhysMem {
	if costs == nil {
		costs = &costmodel.Costs{}
	}
	return &PhysMem{
		frames: make(map[PageID]*frame),
		secret: secret | 1,
		costs:  costs,
	}
}

func (pm *PhysMem) charge(ctx exec.Context, d int64) {
	if ctx != nil && d > 0 {
		ctx.Charge(d)
	}
}

func (pm *PhysMem) allocFrame(home *AddressSpace) *frame {
	pm.next++
	f := &frame{id: pm.next, data: make([]byte, PageSize), refs: 1, home: home}
	pm.frames[f.id] = f
	return f
}

// Obfuscate hides a frame id for transit through user-space queues.
func (pm *PhysMem) Obfuscate(id PageID) ObfPageID {
	return ObfPageID(uint64(id)*0x9e3779b97f4a7c15 ^ pm.secret)
}

// Deobfuscate recovers and validates a frame id; forged values fail.
func (pm *PhysMem) Deobfuscate(o ObfPageID) (PageID, error) {
	v := (uint64(o) ^ pm.secret) * 0xf1de83e19937733d // modular inverse of the multiplier
	id := PageID(v)
	pm.mu.Lock()
	defer pm.mu.Unlock()
	if _, ok := pm.frames[id]; !ok {
		return 0, fmt.Errorf("%w: %#x", ErrBadPage, uint64(o))
	}
	return id, nil
}

// Ref adds one reference to each frame (installing an additional mapping
// of pinned pool pages, §4.3).
func (pm *PhysMem) Ref(ids []PageID) error {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	for _, id := range ids {
		f, ok := pm.frames[id]
		if !ok {
			return ErrBadPage
		}
		f.refs++
	}
	return nil
}

// FrameRefs reports a frame's reference count (pool-slot reclaim checks).
func (pm *PhysMem) FrameRefs(id PageID) int {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	f, ok := pm.frames[id]
	if !ok {
		return 0
	}
	return f.refs
}

// Unref drops one reference from each frame (releasing a transfer that
// was never mapped, e.g. after the NIC finished reading the pages).
func (pm *PhysMem) Unref(ids []PageID) {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	for _, id := range ids {
		if f, ok := pm.frames[id]; ok {
			pm.unref(f)
		}
	}
}

// FrameCount reports live frames (leak checks).
func (pm *PhysMem) FrameCount() int {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	return len(pm.frames)
}

// Pin marks frames as pinned for DMA; already-pinned frames are no-ops,
// matching §4.3 ("after a while, most pages in send and receive buffers
// become pinned").
//
// Like every charging path in this package, the virtual-time charge is
// applied after all locks are released: charging may suspend the simulated
// thread, and suspending while holding a mutex would deadlock the
// discrete-event scheduler.
func (pm *PhysMem) Pin(ctx exec.Context, ids []PageID) error {
	var charge int64
	pm.mu.Lock()
	for _, id := range ids {
		f, ok := pm.frames[id]
		if !ok {
			pm.mu.Unlock()
			return ErrBadPage
		}
		if !f.pinned {
			f.pinned = true
			charge += pm.costs.PageMap4K // pin cost ~ one kernel page op
		}
	}
	pm.mu.Unlock()
	pm.charge(ctx, charge)
	return nil
}

// Unpin clears the DMA pin on frames leaving a registered pool for good
// (a dropped zero-copy pool). Unknown ids are ignored.
func (pm *PhysMem) Unpin(ids []PageID) {
	pm.mu.Lock()
	for _, id := range ids {
		if f, ok := pm.frames[id]; ok {
			f.pinned = false
		}
	}
	pm.mu.Unlock()
}

// PinnedCount reports live pinned frames (leak checks).
func (pm *PhysMem) PinnedCount() int {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	n := 0
	for _, f := range pm.frames {
		if f.pinned {
			n++
		}
	}
	return n
}

// FrameData exposes a frame's backing bytes to trusted subsystems (the
// simulated NIC DMA engine). Untrusted code never sees PageIDs unobfuscated.
func (pm *PhysMem) FrameData(id PageID) ([]byte, error) {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	f, ok := pm.frames[id]
	if !ok {
		return nil, ErrBadPage
	}
	return f.data, nil
}

func (pm *PhysMem) unref(f *frame) {
	f.refs--
	if f.refs > 0 {
		return
	}
	if f.home != nil && len(f.home.pool) < f.home.poolCap {
		f.refs = 1 // owned by the pool
		f.home.pool = append(f.home.pool, f)
		return
	}
	delete(pm.frames, f.id)
}

type pte struct {
	f   *frame
	cow bool
}

// AddressSpace is one process's view of memory: a page table plus a local
// free-page pool ("libsd manages a pool of free pages in each process").
type AddressSpace struct {
	pm       *PhysMem
	mu       sync.Mutex
	pages    map[uint64]*pte // vpn -> pte
	heapNext VAddr
	pool     []*frame
	poolCap  int
}

// NewAddressSpace creates a process address space on the given physical
// memory.
func NewAddressSpace(pm *PhysMem) *AddressSpace {
	return &AddressSpace{
		pm:       pm,
		pages:    make(map[uint64]*pte),
		heapNext: 1 << 30, // arbitrary non-zero heap base
		poolCap:  256,
	}
}

func vpn(a VAddr) uint64 { return uint64(a) >> PageShift }

// Alloc reserves n bytes of fresh zeroed memory. Multiple-of-page sizes are
// page aligned (the paper's malloc interception, §4.3 "Page alignment").
func (as *AddressSpace) Alloc(n int) VAddr {
	as.mu.Lock()
	defer as.mu.Unlock()
	as.pm.mu.Lock()
	defer as.pm.mu.Unlock()
	base := as.heapNext
	npages := (n + PageSize - 1) / PageSize
	if npages == 0 {
		npages = 1
	}
	for i := 0; i < npages; i++ {
		f := as.takeFrameLocked()
		as.pages[vpn(base)+uint64(i)] = &pte{f: f}
	}
	as.heapNext += VAddr(npages * PageSize)
	return base
}

// takeFrameLocked pops a pooled frame or allocates a fresh one. Both locks
// must be held.
func (as *AddressSpace) takeFrameLocked() *frame {
	if n := len(as.pool); n > 0 {
		f := as.pool[n-1]
		as.pool = as.pool[:n-1]
		for i := range f.data {
			f.data[i] = 0
		}
		return f
	}
	return as.pm.allocFrame(as)
}

// FreshFrames allocates n unmapped frames (zeroed, refcount 1, owned by
// the caller) drawing from this space's free pool — the per-recv page
// allocation of §4.3 ("libsd manages a pool of free pages in each
// process locally").
func (as *AddressSpace) FreshFrames(n int) []PageID {
	as.mu.Lock()
	as.pm.mu.Lock()
	out := make([]PageID, n)
	for i := range out {
		out[i] = as.takeFrameLocked().id
	}
	as.pm.mu.Unlock()
	as.mu.Unlock()
	return out
}

// Free unmaps [addr, addr+n), dropping frame references.
func (as *AddressSpace) Free(addr VAddr, n int) error {
	if uint64(addr)%PageSize != 0 {
		return ErrNotAligned
	}
	as.mu.Lock()
	defer as.mu.Unlock()
	as.pm.mu.Lock()
	defer as.pm.mu.Unlock()
	npages := (n + PageSize - 1) / PageSize
	for i := 0; i < npages; i++ {
		p := vpn(addr) + uint64(i)
		e, ok := as.pages[p]
		if !ok {
			return ErrUnmapped
		}
		as.pm.unref(e.f)
		delete(as.pages, p)
	}
	return nil
}

// Read copies n bytes at addr into out (which it returns, reallocating if
// needed).
func (as *AddressSpace) Read(addr VAddr, out []byte) error {
	as.mu.Lock()
	defer as.mu.Unlock()
	n := len(out)
	off := 0
	for off < n {
		p := vpn(addr + VAddr(off))
		e, ok := as.pages[p]
		if !ok {
			return fmt.Errorf("%w: %#x", ErrUnmapped, uint64(addr)+uint64(off))
		}
		po := int(uint64(addr)+uint64(off)) & (PageSize - 1)
		off += copy(out[off:], e.f.data[po:])
	}
	return nil
}

// Write copies data to addr, resolving copy-on-write like a fault handler
// would. Whole-page overwrites skip the copy (§4.3 "Minimize
// copy-on-write": "it is unnecessary to copy original data of the page").
func (as *AddressSpace) Write(ctx exec.Context, addr VAddr, data []byte) error {
	var charge int64
	as.mu.Lock()
	n := len(data)
	off := 0
	for off < n {
		a := uint64(addr) + uint64(off)
		p := a >> PageShift
		po := int(a) & (PageSize - 1)
		chunk := PageSize - po
		if chunk > n-off {
			chunk = n - off
		}
		e, ok := as.pages[p]
		if !ok {
			as.mu.Unlock()
			return fmt.Errorf("%w: %#x", ErrUnmapped, a)
		}
		if e.cow || e.f.refs > 1 {
			mCOWFaults.Inc()
			as.pm.mu.Lock()
			f := as.takeFrameLocked()
			if chunk < PageSize {
				copy(f.data, e.f.data) // partial overwrite: real COW copy
				charge += as.pm.costs.PageCopy4K
			}
			charge += as.pm.costs.PageFault
			as.pm.unref(e.f)
			as.pm.mu.Unlock()
			e.f = f
			e.cow = false
		}
		copy(e.f.data[po:], data[off:off+chunk])
		off += chunk
	}
	as.mu.Unlock()
	as.pm.charge(ctx, charge)
	return nil
}

// PagesForSend returns the frames backing [addr, addr+n) marked
// copy-on-write in this address space, with one extra reference each for
// the in-flight transfer (step 1 of Fig. 5). addr must be page aligned and
// n a multiple of the page size.
func (as *AddressSpace) PagesForSend(ctx exec.Context, addr VAddr, n int) ([]PageID, error) {
	if uint64(addr)%PageSize != 0 || n%PageSize != 0 {
		return nil, ErrNotAligned
	}
	as.mu.Lock()
	defer as.mu.Unlock()
	as.pm.mu.Lock()
	defer as.pm.mu.Unlock()
	ids := make([]PageID, 0, n/PageSize)
	for i := 0; i < n/PageSize; i++ {
		e, ok := as.pages[vpn(addr)+uint64(i)]
		if !ok {
			return nil, ErrUnmapped
		}
		e.cow = true
		e.f.refs++
		ids = append(ids, e.f.id)
	}
	return ids, nil
}

// MapPages installs the given frames at addr (step 3/5 of Fig. 5),
// replacing (and unreferencing) whatever was mapped there. The frames'
// in-flight references are transferred to the mapping; they stay COW while
// shared. Charges one page-map cost per page.
func (as *AddressSpace) MapPages(ctx exec.Context, addr VAddr, ids []PageID) error {
	if uint64(addr)%PageSize != 0 {
		return ErrNotAligned
	}
	as.mu.Lock()
	as.pm.mu.Lock()
	for i, id := range ids {
		f, ok := as.pm.frames[id]
		if !ok {
			as.pm.mu.Unlock()
			as.mu.Unlock()
			return ErrBadPage
		}
		p := vpn(addr) + uint64(i)
		if old, ok := as.pages[p]; ok {
			as.pm.unref(old.f)
		}
		as.pages[p] = &pte{f: f, cow: true}
	}
	as.pm.mu.Unlock()
	as.mu.Unlock()
	// One batched remap call for the whole range (§4.3's amortization).
	mPageRemaps.Add(int64(len(ids)))
	as.pm.charge(ctx, as.pm.costs.MapCost(len(ids)))
	return nil
}

// Unmap removes npages mappings starting at addr and returns the frame ids
// that reached refcount zero *and* belong to another process's pool — the
// caller must send those home (§4.3 "libsd returns the pages to the owner
// through a message").
func (as *AddressSpace) Unmap(ctx exec.Context, addr VAddr, npages int) ([]PageID, error) {
	if uint64(addr)%PageSize != 0 {
		return nil, ErrNotAligned
	}
	as.mu.Lock()
	defer as.mu.Unlock()
	as.pm.mu.Lock()
	defer as.pm.mu.Unlock()
	var foreign []PageID
	for i := 0; i < npages; i++ {
		p := vpn(addr) + uint64(i)
		e, ok := as.pages[p]
		if !ok {
			return nil, ErrUnmapped
		}
		if e.f.home != nil && e.f.home != as && e.f.refs == 1 {
			// Would die here; hand it back to its owner instead.
			foreign = append(foreign, e.f.id)
			e.f.refs++ // keep alive for the return trip
		}
		as.pm.unref(e.f)
		delete(as.pages, p)
	}
	return foreign, nil
}

// AcceptReturned places frames returned by a peer back into this pool
// (completing the §4.3 page-return protocol).
func (as *AddressSpace) AcceptReturned(ids []PageID) {
	as.mu.Lock()
	defer as.mu.Unlock()
	as.pm.mu.Lock()
	defer as.pm.mu.Unlock()
	for _, id := range ids {
		if f, ok := as.pm.frames[id]; ok {
			as.pm.unref(f)
		}
	}
}

// Mapped reports whether addr is mapped (tests).
func (as *AddressSpace) Mapped(addr VAddr) bool {
	as.mu.Lock()
	defer as.mu.Unlock()
	_, ok := as.pages[vpn(addr)]
	return ok
}

// PoolSize reports pooled free frames (tests).
func (as *AddressSpace) PoolSize() int {
	as.mu.Lock()
	defer as.mu.Unlock()
	return len(as.pool)
}
