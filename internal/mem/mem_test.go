package mem

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func newAS(t *testing.T) (*PhysMem, *AddressSpace, *AddressSpace) {
	t.Helper()
	pm := NewPhysMem(0xdeadbeef, nil)
	return pm, NewAddressSpace(pm), NewAddressSpace(pm)
}

func TestAllocReadWrite(t *testing.T) {
	_, as, _ := newAS(t)
	a := as.Alloc(3 * PageSize)
	data := make([]byte, 3*PageSize)
	for i := range data {
		data[i] = byte(i * 13)
	}
	if err := as.Write(nil, a, data); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, len(data))
	if err := as.Read(a, out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, out) {
		t.Fatal("readback mismatch")
	}
	// Unaligned sub-range.
	sub := make([]byte, 100)
	if err := as.Read(a+PageSize-50, sub); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sub, data[PageSize-50:PageSize+50]) {
		t.Fatal("cross-page read mismatch")
	}
}

func TestObfuscationRoundTripAndForgery(t *testing.T) {
	pm, as, _ := newAS(t)
	a := as.Alloc(PageSize)
	ids, err := as.PagesForSend(nil, a, PageSize)
	if err != nil {
		t.Fatal(err)
	}
	o := pm.Obfuscate(ids[0])
	back, err := pm.Deobfuscate(o)
	if err != nil || back != ids[0] {
		t.Fatalf("roundtrip failed: %v %v vs %v", err, back, ids[0])
	}
	if _, err := pm.Deobfuscate(o ^ 0x1234); err == nil {
		t.Fatal("forged page id accepted")
	}
}

// TestZeroCopyTransferAliasesUntilWrite exercises the full intra-host
// zero-copy protocol of Fig. 5a: sender marks pages COW, receiver maps
// them, both see the same bytes, and a write on either side isolates them.
func TestZeroCopyTransferAliasesUntilWrite(t *testing.T) {
	_, snd, rcv := newAS(t)
	const n = 4 * PageSize
	src := snd.Alloc(n)
	payload := make([]byte, n)
	rand.New(rand.NewSource(1)).Read(payload)
	if err := snd.Write(nil, src, payload); err != nil {
		t.Fatal(err)
	}

	ids, err := snd.PagesForSend(nil, src, n)
	if err != nil {
		t.Fatal(err)
	}
	dst := rcv.Alloc(n)
	if err := rcv.MapPages(nil, dst, ids); err != nil {
		t.Fatal(err)
	}

	got := make([]byte, n)
	if err := rcv.Read(dst, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("receiver does not see sender's bytes after remap")
	}

	// Sender overwrites one page partially: COW must protect the receiver.
	if err := snd.Write(nil, src+10, []byte("OVERWRITE")); err != nil {
		t.Fatal(err)
	}
	if err := rcv.Read(dst, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("sender overwrite leaked into receiver mapping")
	}

	// Receiver overwrite must not disturb what the sender now sees.
	if err := rcv.Write(nil, dst+PageSize, make([]byte, PageSize)); err != nil {
		t.Fatal(err)
	}
	sview := make([]byte, n)
	if err := snd.Read(src, sview); err != nil {
		t.Fatal(err)
	}
	want := append([]byte{}, payload...)
	copy(want[10:], "OVERWRITE")
	if !bytes.Equal(sview, want) {
		t.Fatal("receiver write corrupted sender view")
	}
}

func TestFullPageOverwriteSkipsCopyButIsolates(t *testing.T) {
	_, snd, rcv := newAS(t)
	src := snd.Alloc(PageSize)
	orig := bytes.Repeat([]byte{0xAA}, PageSize)
	snd.Write(nil, src, orig)
	ids, _ := snd.PagesForSend(nil, src, PageSize)
	dst := rcv.Alloc(PageSize)
	rcv.MapPages(nil, dst, ids)

	// Whole-page overwrite on sender: no copy needed, receiver keeps 0xAA.
	snd.Write(nil, src, bytes.Repeat([]byte{0xBB}, PageSize))
	got := make([]byte, PageSize)
	rcv.Read(dst, got)
	if !bytes.Equal(got, orig) {
		t.Fatal("receiver lost data after sender whole-page overwrite")
	}
	sgot := make([]byte, PageSize)
	snd.Read(src, sgot)
	if sgot[0] != 0xBB {
		t.Fatal("sender overwrite lost")
	}
}

func TestUnmapReturnsForeignPages(t *testing.T) {
	pm, snd, rcv := newAS(t)
	const n = 2 * PageSize
	src := snd.Alloc(n)
	ids, _ := snd.PagesForSend(nil, src, n)
	dst := rcv.Alloc(n)
	rcv.MapPages(nil, dst, ids)

	// Sender drops its own mapping (e.g. buffer freed after send).
	if err := snd.Free(src, n); err != nil {
		t.Fatal(err)
	}
	// Receiver unmaps: frames would die, but they belong to the sender's
	// pool, so they come back as "foreign" to be returned via message.
	foreign, err := rcv.Unmap(nil, dst, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(foreign) != 2 {
		t.Fatalf("expected 2 foreign pages, got %d", len(foreign))
	}
	before := snd.PoolSize()
	snd.AcceptReturned(foreign)
	if snd.PoolSize() != before+2 {
		t.Fatalf("pool did not grow: %d -> %d", before, snd.PoolSize())
	}
	_ = pm
}

func TestPoolRecyclesZeroed(t *testing.T) {
	_, as, _ := newAS(t)
	a := as.Alloc(PageSize)
	as.Write(nil, a, bytes.Repeat([]byte{0xFF}, PageSize))
	as.Free(a, PageSize)
	b := as.Alloc(PageSize)
	out := make([]byte, PageSize)
	as.Read(b, out)
	for _, v := range out {
		if v != 0 {
			t.Fatal("recycled page not zeroed")
		}
	}
}

func TestPinIdempotent(t *testing.T) {
	pm, as, _ := newAS(t)
	a := as.Alloc(2 * PageSize)
	ids, _ := as.PagesForSend(nil, a, 2*PageSize)
	if err := pm.Pin(nil, ids); err != nil {
		t.Fatal(err)
	}
	if err := pm.Pin(nil, ids); err != nil {
		t.Fatal(err)
	}
	if err := pm.Pin(nil, []PageID{99999}); err == nil {
		t.Fatal("pinned nonexistent frame")
	}
}

func TestErrorsOnMisuse(t *testing.T) {
	_, as, _ := newAS(t)
	if _, err := as.PagesForSend(nil, 3, PageSize); err != ErrNotAligned {
		t.Fatalf("want ErrNotAligned, got %v", err)
	}
	if err := as.Read(0x9999000, make([]byte, 8)); err == nil {
		t.Fatal("read of unmapped address succeeded")
	}
	if err := as.Write(nil, 0x9999000, []byte("x")); err == nil {
		t.Fatal("write of unmapped address succeeded")
	}
	if _, err := as.Unmap(nil, 0x9999000, 1); err == nil {
		t.Fatal("unmap of unmapped address succeeded")
	}
}

// TestCOWPropertyQuick checks, over random transfer/overwrite interleavings,
// the fundamental COW invariant: a receiver's view never changes due to
// sender writes after the transfer, and vice versa. Both free pools hold
// dirty frames, which the fault handler takes unzeroed: a fault that does not
// cover the whole frame itself leaks 0xFF into one of the views.
func TestCOWPropertyQuick(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pm := NewPhysMem(uint64(seed)+7, nil)
		snd, rcv := NewAddressSpace(pm), NewAddressSpace(pm)
		npages := 1 + rng.Intn(4)
		n := npages * PageSize
		src := snd.Alloc(n)
		sview := make([]byte, n)
		rng.Read(sview)
		snd.Write(nil, src, sview)
		ids, err := snd.PagesForSend(nil, src, n)
		if err != nil {
			return false
		}
		dst := rcv.Alloc(n)
		if rcv.MapPages(nil, dst, ids) != nil {
			return false
		}
		rview := append([]byte(nil), sview...)
		for _, as := range []*AddressSpace{snd, rcv} {
			dirty := as.Alloc(2 * n)
			as.Write(nil, dirty, bytes.Repeat([]byte{0xFF}, 2*n))
			as.Free(dirty, 2*n)
		}
		write := func(side, off, ln int) {
			junk := make([]byte, ln)
			rng.Read(junk)
			if side == 0 {
				snd.Write(nil, src+VAddr(off), junk)
				copy(sview[off:], junk)
			} else {
				rcv.Write(nil, dst+VAddr(off), junk)
				copy(rview[off:], junk)
			}
		}
		// First fault of each side: strictly inside one page, so the bytes
		// before and after it are the fault handler's to get right.
		for side := 0; side < 2; side++ {
			off := 1 + rng.Intn(PageSize-2)
			write(side, rng.Intn(npages)*PageSize+off, 1+rng.Intn(PageSize-off-1))
		}
		for i := 0; i < 20; i++ {
			off := rng.Intn(n - 1)
			write(rng.Intn(2), off, 1+rng.Intn(n-off))
		}
		got := make([]byte, n)
		rcv.Read(dst, got)
		if !bytes.Equal(got, rview) {
			return false
		}
		snd.Read(src, got)
		return bytes.Equal(got, sview)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestNoFrameLeaks(t *testing.T) {
	pm, snd, rcv := newAS(t)
	base := pm.FrameCount()
	const n = 8 * PageSize
	src := snd.Alloc(n)
	ids, _ := snd.PagesForSend(nil, src, n)
	dst := rcv.Alloc(n)
	rcv.MapPages(nil, dst, ids)
	snd.Free(src, n)
	foreign, _ := rcv.Unmap(nil, dst, 8)
	snd.AcceptReturned(foreign)
	// All frames should now be pooled or freed; pool frames are accounted.
	live := pm.FrameCount()
	if live > base+snd.PoolSize()+rcv.PoolSize() {
		t.Fatalf("leak: %d live frames, pools hold %d+%d",
			live, snd.PoolSize(), rcv.PoolSize())
	}
}

// TestOutsideHeapIsUnmapped: the page table covers the heap Alloc has
// reserved and nothing else. Below it, behind it and far from it, nothing
// reads, writes, frees or unmaps — and nothing maps: a remap needs a
// reservation.
func TestOutsideHeapIsUnmapped(t *testing.T) {
	_, as, _ := newAS(t)
	a := as.Alloc(2 * PageSize)
	ids, err := as.PagesForSend(nil, a, PageSize)
	if err != nil {
		t.Fatal(err)
	}
	for _, addr := range []VAddr{0, PageSize, a - PageSize, a + 2*PageSize, a + PageSize /* runs off the end */, 1 << 62} {
		if err := as.MapPages(nil, addr, append(ids, ids...)); !errors.Is(err, ErrUnmapped) {
			t.Errorf("MapPages(%#x) = %v", addr, err)
		}
		if _, err := as.Unmap(nil, addr, 2); !errors.Is(err, ErrUnmapped) {
			t.Errorf("Unmap(%#x) = %v", addr, err)
		}
		if err := as.Free(addr, 2*PageSize); !errors.Is(err, ErrUnmapped) {
			t.Errorf("Free(%#x) = %v", addr, err)
		}
		if err := as.Read(addr, make([]byte, 2*PageSize)); !errors.Is(err, ErrUnmapped) {
			t.Errorf("Read(%#x) = %v", addr, err)
		}
		if err := as.Write(nil, addr, make([]byte, 2*PageSize)); !errors.Is(err, ErrUnmapped) {
			t.Errorf("Write(%#x) = %v", addr, err)
		}
		if _, err := as.PagesForSend(nil, addr, 2*PageSize); !errors.Is(err, ErrUnmapped) {
			t.Errorf("PagesForSend(%#x) = %v", addr, err)
		}
	}
	if !as.Mapped(a) || !as.Mapped(a+2*PageSize-1) || as.Mapped(a-1) || as.Mapped(a+2*PageSize) {
		t.Error("Mapped disagrees with the heap's bounds")
	}
	// A freed page stays reserved: unmapped for access, mappable again.
	if err := as.Free(a, PageSize); err != nil {
		t.Fatal(err)
	}
	if err := as.Read(a, make([]byte, 1)); !errors.Is(err, ErrUnmapped) {
		t.Errorf("read of a freed page = %v", err)
	}
	if err := as.MapPages(nil, a, ids); err != nil {
		t.Errorf("MapPages over a freed page = %v", err)
	}
}

// TestDeadAndForgedFrameIDs: ids are never reused, so the id of a frame that
// died, one not handed out yet and one past the table all name nothing.
func TestDeadAndForgedFrameIDs(t *testing.T) {
	pm, as, _ := newAS(t)
	as.poolCap = 0 // freed frames die
	a := as.Alloc(PageSize)
	dead, err := as.PagesForSend(nil, a, PageSize)
	if err != nil {
		t.Fatal(err)
	}
	pm.Unref(dead)
	if err := as.Free(a, PageSize); err != nil {
		t.Fatal(err)
	}
	dst := as.Alloc(PageSize)
	for _, id := range []PageID{dead[0], 0, pm.next + 1, 1 << 40, ^PageID(0)} {
		ids := []PageID{id}
		if _, err := pm.Deobfuscate(pm.Obfuscate(id)); !errors.Is(err, ErrBadPage) {
			t.Errorf("Deobfuscate(%#x) = %v", id, err)
		}
		if got, err := pm.AppendDeobfuscated(nil, pm.AppendObfuscated(nil, ids)); !errors.Is(err, ErrBadPage) || len(got) != 0 {
			t.Errorf("AppendDeobfuscated(%#x) = %v, %v", id, got, err)
		}
		if err := pm.Ref(ids); !errors.Is(err, ErrBadPage) {
			t.Errorf("Ref(%#x) = %v", id, err)
		}
		if err := pm.Pin(nil, ids); !errors.Is(err, ErrBadPage) {
			t.Errorf("Pin(%#x) = %v", id, err)
		}
		if _, err := pm.FrameData(id); !errors.Is(err, ErrBadPage) {
			t.Errorf("FrameData(%#x) = %v", id, err)
		}
		if err := as.MapPages(nil, dst, ids); !errors.Is(err, ErrBadPage) {
			t.Errorf("MapPages(%#x) = %v", id, err)
		}
		if pm.FrameRefs(id) != 0 {
			t.Errorf("FrameRefs(%#x) != 0", id)
		}
	}
}

// TestFrameTableFollowsLiveFrames: frames that come and go leave no chunk of
// the table behind, whatever long-lived frames sit among them.
func TestFrameTableFollowsLiveFrames(t *testing.T) {
	pm, as, _ := newAS(t)
	as.poolCap = 0
	keep := as.Alloc(PageSize)
	base := pm.FrameCount()
	for i := 0; i < 10000; i++ {
		a := as.Alloc(16 * PageSize)
		if i == 5000 {
			keep = as.Alloc(PageSize)
			base++
		}
		if err := as.Free(a, 16*PageSize); err != nil {
			t.Fatal(err)
		}
	}
	if got := pm.FrameCount(); got != base {
		t.Fatalf("%d live frames, want %d", got, base)
	}
	chunks := 0
	for _, ch := range pm.chunks {
		if ch != nil {
			chunks++
		}
	}
	// The two kept frames' chunks and the one handing out ids.
	if chunks > 3 {
		t.Fatalf("%d chunks for %d live frames after %d allocated", chunks, base, pm.next)
	}
	if !as.Mapped(keep) || pm.PinnedCount() != 0 {
		t.Fatal("kept frame lost")
	}
}
