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
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
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

// The frame table is indexed by id in chunks of frameChunkLen. Ids are
// handed out in order and never reused, so a dead frame's slot stays nil for
// good (a stale or forged id finds nothing), and a chunk whose frames have
// all died is dropped: what stays allocated follows the live frames. The
// directory keeps one nil pointer per dropped chunk.
const (
	frameChunkShift = 8
	frameChunkLen   = 1 << frameChunkShift
)

type frameChunk struct {
	live int
	f    [frameChunkLen]*frame
}

// PhysMem is the host's physical memory: the frame allocator plus the
// kernel-held obfuscation secret.
type PhysMem struct {
	mu     sync.Mutex
	chunks []*frameChunk // chunks[id>>frameChunkShift]; nil once wholly dead
	live   int
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
	return &PhysMem{secret: secret | 1, costs: costs}
}

func (pm *PhysMem) charge(ctx exec.Context, d int64) {
	if ctx != nil && d > 0 {
		ctx.Charge(d)
	}
}

func (pm *PhysMem) allocFrame(home *AddressSpace) *frame {
	pm.next++
	f := &frame{id: pm.next, data: make([]byte, PageSize), refs: 1, home: home}
	c := int(f.id >> frameChunkShift)
	if c == len(pm.chunks) {
		// The chunk being left takes no more ids: if nothing in it is
		// alive, nothing will drop it later.
		if c > 0 && pm.chunks[c-1] != nil && pm.chunks[c-1].live == 0 {
			pm.chunks[c-1] = nil
		}
		pm.chunks = append(pm.chunks, new(frameChunk))
	}
	pm.chunks[c].f[f.id&(frameChunkLen-1)] = f
	pm.chunks[c].live++
	pm.live++
	return f
}

// frame looks a frame up by id; nil for a dead, future or forged one. The
// lock must be held.
func (pm *PhysMem) frame(id PageID) *frame {
	c := uint64(id) >> frameChunkShift
	if c >= uint64(len(pm.chunks)) || pm.chunks[c] == nil {
		return nil
	}
	return pm.chunks[c].f[id&(frameChunkLen-1)]
}

// dropFrame takes a dead frame out of the table, and its chunk with it if
// that was the last one alive there. The chunk still handing out ids stays.
func (pm *PhysMem) dropFrame(f *frame) {
	c := int(f.id >> frameChunkShift)
	ch := pm.chunks[c]
	ch.f[f.id&(frameChunkLen-1)] = nil
	ch.live--
	pm.live--
	if ch.live == 0 && c != len(pm.chunks)-1 {
		pm.chunks[c] = nil
	}
}

// Obfuscate hides a frame id for transit through user-space queues.
func (pm *PhysMem) Obfuscate(id PageID) ObfPageID {
	return ObfPageID(uint64(id)*0x9e3779b97f4a7c15 ^ pm.secret)
}

// deobfuscate recovers and validates a frame id; forged values fail. The
// lock must be held.
func (pm *PhysMem) deobfuscate(o ObfPageID) (PageID, error) {
	id := PageID((uint64(o) ^ pm.secret) * 0xf1de83e19937733d) // modular inverse of the multiplier
	if pm.frame(id) == nil {
		return 0, fmt.Errorf("%w: %#x", ErrBadPage, uint64(o))
	}
	return id, nil
}

// Deobfuscate recovers and validates a frame id; forged values fail.
func (pm *PhysMem) Deobfuscate(o ObfPageID) (PageID, error) {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	return pm.deobfuscate(o)
}

// ObfWireSize is the size of one obfuscated id in a queue message: a
// little-endian uint64.
const ObfWireSize = 8

// AppendObfuscated appends the ids to dst as they travel in a queue
// message.
func (pm *PhysMem) AppendObfuscated(dst []byte, ids []PageID) []byte {
	for _, id := range ids {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(pm.Obfuscate(id)))
	}
	return dst
}

// AppendDeobfuscated is Deobfuscate over every id of a queue message, under
// one lock; one forged id fails them all and leaves dst as it was.
func (pm *PhysMem) AppendDeobfuscated(dst []PageID, wire []byte) ([]PageID, error) {
	out := dst
	pm.mu.Lock()
	defer pm.mu.Unlock()
	for ; len(wire) >= ObfWireSize; wire = wire[ObfWireSize:] {
		id, err := pm.deobfuscate(ObfPageID(binary.LittleEndian.Uint64(wire)))
		if err != nil {
			return dst, err
		}
		out = append(out, id)
	}
	return out, nil
}

// Ref adds one reference to each frame (installing an additional mapping
// of pinned pool pages, §4.3).
func (pm *PhysMem) Ref(ids []PageID) error {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	for _, id := range ids {
		f := pm.frame(id)
		if f == nil {
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
	f := pm.frame(id)
	if f == nil {
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
		if f := pm.frame(id); f != nil {
			pm.unref(f)
		}
	}
}

// FrameCount reports live frames (leak checks).
func (pm *PhysMem) FrameCount() int {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	return pm.live
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
		f := pm.frame(id)
		if f == nil {
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
		if f := pm.frame(id); f != nil {
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
	for _, ch := range pm.chunks {
		if ch == nil {
			continue
		}
		for _, f := range ch.f {
			if f != nil && f.pinned {
				n++
			}
		}
	}
	return n
}

// FrameData exposes a frame's backing bytes to trusted subsystems (the
// simulated NIC DMA engine). Untrusted code never sees PageIDs unobfuscated.
func (pm *PhysMem) FrameData(id PageID) ([]byte, error) {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	f := pm.frame(id)
	if f == nil {
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
	pm.dropFrame(f)
}

// pte is one page-table entry; f is nil while the page is reserved but
// unmapped (freed, or unmapped and awaiting a remap).
type pte struct {
	f   *frame
	cow bool
}

// heapBase is where every address space's heap starts (arbitrary, non-zero).
const heapBase VAddr = 1 << 30

// AddressSpace is one process's view of memory: a page table plus a local
// free-page pool ("libsd manages a pool of free pages in each process").
//
// The page table is flat: pages[i] is the entry of virtual page
// vpn(heapBase)+i. Alloc is the only way to reserve addresses and it hands
// them out in order, so the table covers exactly the reserved heap; an
// address outside it is unmapped and, as with mremap, cannot be mapped.
type AddressSpace struct {
	pm      *PhysMem
	mu      sync.Mutex
	pages   []pte
	pool    []*frame
	poolCap int
}

// NewAddressSpace creates a process address space on the given physical
// memory.
func NewAddressSpace(pm *PhysMem) *AddressSpace {
	return &AddressSpace{pm: pm, poolCap: 256}
}

func vpn(a VAddr) uint64 { return uint64(a) >> PageShift }

// span returns the entries of the n pages at addr, or nil unless all of
// them are reserved. as.mu must be held, and the result dropped with it.
func (as *AddressSpace) span(addr VAddr, n int) []pte {
	i := vpn(addr) - vpn(heapBase) // an address below the heap wraps past len
	if n < 0 || i > uint64(len(as.pages)) || uint64(n) > uint64(len(as.pages))-i {
		return nil
	}
	return as.pages[i : i+uint64(n)]
}

// mapped returns the entry of the page holding addr, or nil if nothing is
// mapped there.
func (as *AddressSpace) mapped(addr VAddr) *pte {
	if s := as.span(addr, 1); s != nil && s[0].f != nil {
		return &s[0]
	}
	return nil
}

// Alloc reserves n bytes of fresh zeroed memory. Multiple-of-page sizes are
// page aligned (the paper's malloc interception, §4.3 "Page alignment").
func (as *AddressSpace) Alloc(n int) VAddr {
	as.mu.Lock()
	defer as.mu.Unlock()
	as.pm.mu.Lock()
	defer as.pm.mu.Unlock()
	base := heapBase + VAddr(len(as.pages))<<PageShift
	npages := (n + PageSize - 1) / PageSize
	if npages == 0 {
		npages = 1
	}
	for i := 0; i < npages; i++ {
		as.pages = append(as.pages, pte{f: as.takeFrameLocked(true)})
	}
	return base
}

// takeFrameLocked pops a pooled frame or allocates a fresh one. A pooled
// frame still holds its last owner's bytes: zero says the caller needs them
// gone, which the fault handler, about to overwrite the whole frame, does
// not. Both locks must be held.
func (as *AddressSpace) takeFrameLocked(zero bool) *frame {
	if n := len(as.pool); n > 0 {
		f := as.pool[n-1]
		as.pool = as.pool[:n-1]
		if zero {
			clear(f.data)
		}
		return f
	}
	return as.pm.allocFrame(as)
}

// FreshFrames appends to dst n unmapped frames (zeroed, refcount 1, owned
// by the caller) drawing from this space's free pool — the per-recv page
// allocation of §4.3 ("libsd manages a pool of free pages in each
// process locally").
func (as *AddressSpace) FreshFrames(dst []PageID, n int) []PageID {
	dst = slices.Grow(dst, n)
	as.mu.Lock()
	as.pm.mu.Lock()
	for i := 0; i < n; i++ {
		dst = append(dst, as.takeFrameLocked(true).id)
	}
	as.pm.mu.Unlock()
	as.mu.Unlock()
	return dst
}

// Free unmaps [addr, addr+n), dropping frame references. The addresses
// stay reserved.
func (as *AddressSpace) Free(addr VAddr, n int) error {
	if uint64(addr)%PageSize != 0 {
		return ErrNotAligned
	}
	as.mu.Lock()
	defer as.mu.Unlock()
	as.pm.mu.Lock()
	defer as.pm.mu.Unlock()
	pages := as.span(addr, (n+PageSize-1)/PageSize)
	if pages == nil {
		return ErrUnmapped
	}
	for i := range pages {
		e := &pages[i]
		if e.f == nil {
			return ErrUnmapped
		}
		as.pm.unref(e.f)
		*e = pte{}
	}
	return nil
}

// Read copies len(out) bytes at addr into out.
func (as *AddressSpace) Read(addr VAddr, out []byte) error {
	as.mu.Lock()
	defer as.mu.Unlock()
	n := len(out)
	off := 0
	for off < n {
		a := addr + VAddr(off)
		e := as.mapped(a)
		if e == nil {
			return fmt.Errorf("%w: %#x", ErrUnmapped, uint64(a))
		}
		off += copy(out[off:], e.f.data[int(a)&(PageSize-1):])
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
		a := addr + VAddr(off)
		po := int(a) & (PageSize - 1)
		chunk := PageSize - po
		if chunk > n-off {
			chunk = n - off
		}
		e := as.mapped(a)
		if e == nil {
			as.mu.Unlock()
			return fmt.Errorf("%w: %#x", ErrUnmapped, uint64(a))
		}
		if e.cow || e.f.refs > 1 {
			mCOWFaults.Inc()
			as.pm.mu.Lock()
			// Not zeroed: one of the two copies below covers the frame.
			f := as.takeFrameLocked(false)
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

// PagesForSend is AppendPagesForSend into a new slice.
func (as *AddressSpace) PagesForSend(ctx exec.Context, addr VAddr, n int) ([]PageID, error) {
	return as.AppendPagesForSend(nil, ctx, addr, n)
}

// AppendPagesForSend appends to dst the frames backing [addr, addr+n),
// marked copy-on-write in this address space, with one extra reference each
// for the in-flight transfer (step 1 of Fig. 5). addr must be page aligned
// and n a multiple of the page size. On error nothing is marked and dst
// comes back as it was.
func (as *AddressSpace) AppendPagesForSend(dst []PageID, ctx exec.Context, addr VAddr, n int) ([]PageID, error) {
	if uint64(addr)%PageSize != 0 || n%PageSize != 0 {
		return dst, ErrNotAligned
	}
	as.mu.Lock()
	defer as.mu.Unlock()
	as.pm.mu.Lock()
	defer as.pm.mu.Unlock()
	pages := as.span(addr, n/PageSize)
	if pages == nil {
		return dst, ErrUnmapped
	}
	for i := range pages {
		if pages[i].f == nil {
			return dst, ErrUnmapped
		}
	}
	dst = slices.Grow(dst, len(pages))
	for i := range pages {
		e := &pages[i]
		e.cow = true
		e.f.refs++
		dst = append(dst, e.f.id)
	}
	return dst, nil
}

// MapPages installs the given frames at addr (step 3/5 of Fig. 5),
// replacing (and unreferencing) whatever was mapped there; the addresses
// must be reserved. The frames' in-flight references are transferred to the
// mapping; they stay COW while shared. Charges one page-map cost per page.
func (as *AddressSpace) MapPages(ctx exec.Context, addr VAddr, ids []PageID) error {
	if uint64(addr)%PageSize != 0 {
		return ErrNotAligned
	}
	as.mu.Lock()
	as.pm.mu.Lock()
	pages := as.span(addr, len(ids))
	if pages == nil {
		as.pm.mu.Unlock()
		as.mu.Unlock()
		return ErrUnmapped
	}
	for i, id := range ids {
		f := as.pm.frame(id)
		if f == nil {
			as.pm.mu.Unlock()
			as.mu.Unlock()
			return ErrBadPage
		}
		if old := pages[i].f; old != nil {
			as.pm.unref(old)
		}
		pages[i] = pte{f: f, cow: true}
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
	pages := as.span(addr, npages)
	if pages == nil {
		return nil, ErrUnmapped
	}
	var foreign []PageID
	for i := range pages {
		e := &pages[i]
		if e.f == nil {
			return nil, ErrUnmapped
		}
		if e.f.home != nil && e.f.home != as && e.f.refs == 1 {
			// Would die here; hand it back to its owner instead.
			foreign = append(foreign, e.f.id)
			e.f.refs++ // keep alive for the return trip
		}
		as.pm.unref(e.f)
		*e = pte{}
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
		if f := as.pm.frame(id); f != nil {
			as.pm.unref(f)
		}
	}
}

// Mapped reports whether addr is mapped (tests).
func (as *AddressSpace) Mapped(addr VAddr) bool {
	as.mu.Lock()
	defer as.mu.Unlock()
	return as.mapped(addr) != nil
}

// PoolSize reports pooled free frames (tests).
func (as *AddressSpace) PoolSize() int {
	as.mu.Lock()
	defer as.mu.Unlock()
	return len(as.pool)
}
