package shm

import (
	"bytes"
	"testing"
	"unsafe"
)

// backed reports how many bytes of r are backed, checking that the
// producer's view and the published extent agree.
func backed(t *testing.T, r *Ring) int {
	t.Helper()
	if n := r.ext.Load(); n != uint64(len(r.data)) {
		t.Fatalf("published extent %d, producer's view %d", n, len(r.data))
	}
	return len(r.data)
}

// TestNewRingAllocatesNoData: a new ring is its metadata and nothing
// else, however large its capacity.
func TestNewRingAllocatesNoData(t *testing.T) {
	var r *Ring
	if avg := testing.AllocsPerRun(100, func() { r = NewRing(128 << 10) }); avg != 1 {
		t.Fatalf("NewRing allocates %.0f objects, want 1 (the ring itself)", avg)
	}
	if size := unsafe.Sizeof(*r); size > 1024 {
		t.Fatalf("a ring's metadata is %d bytes", size)
	}
	if backed(t, r) != 0 || r.base.Load() != nil {
		t.Fatal("a new ring has storage")
	}
	// Looking costs nothing either.
	if _, ok := r.TryRecv(); ok || backed(t, r) != 0 {
		t.Fatal("an idle receive look backed the ring")
	}
}

// TestFirstWriteBacksTheHead: a small first message backs the 256 B
// head; the first write past it backs the whole ring, once, and every
// byte sent before the growth reads back after it.
func TestFirstWriteBacksTheHead(t *testing.T) {
	const capacity = 128 << 10
	r := NewRing(capacity)
	if !r.TrySend(1, 0, bytes.Repeat([]byte{0xA1}, 100)) {
		t.Fatal("send failed")
	}
	if n := backed(t, r); n != headBytes {
		t.Fatalf("a 100 B send backed %d bytes, want %d", n, headBytes)
	}
	if !r.TrySend(2, 0, bytes.Repeat([]byte{0xB2}, 120)) {
		t.Fatal("send failed")
	}
	if n := backed(t, r); n != headBytes {
		t.Fatalf("232 B inside the head backed %d bytes, want %d", n, headBytes)
	}
	head := r.base.Load()
	if !r.TrySend(3, 0, bytes.Repeat([]byte{0xC3}, 200)) {
		t.Fatal("send failed")
	}
	if n := backed(t, r); n != capacity {
		t.Fatalf("a write past the head backed %d bytes, want %d", n, capacity)
	}
	full := r.base.Load()
	if full == head {
		t.Fatal("growth kept the head's storage")
	}
	for i := 0; i < 100; i++ {
		r.TrySend(4, 0, make([]byte, 900))
	}
	if r.base.Load() != full {
		t.Fatal("a fully backed ring was backed again")
	}
	want := []struct {
		typ  uint8
		fill byte
		n    int
	}{{1, 0xA1, 100}, {2, 0xB2, 120}, {3, 0xC3, 200}}
	for _, w := range want {
		m, ok := r.TryRecv()
		if !ok || m.Type != w.typ || !bytes.Equal(m.Payload, bytes.Repeat([]byte{w.fill}, w.n)) {
			t.Fatalf("after growth got type %d (%d bytes, ok=%v), want type %d", m.Type, len(m.Payload), ok, w.typ)
		}
	}

	// A first message that does not fit the head backs the whole ring.
	r = NewRing(capacity)
	if !r.TrySend(1, 0, make([]byte, headBytes)) {
		t.Fatal("send failed")
	}
	if n := backed(t, r); n != capacity {
		t.Fatalf("a %d B first send backed %d bytes, want %d", headBytes, n, capacity)
	}

	// A ring no larger than the head is backed whole at once.
	r = NewRing(64)
	r.TrySend(1, 0, nil)
	if n := backed(t, r); n != 64 {
		t.Fatalf("a 64 B ring backed %d bytes", n)
	}
}

// TestBackingBacksThroughEnd: a NIC writing into a ring backs it the way
// a send does — nothing for end 0, the head for a write inside it, the
// whole ring, once, for one past it — and keeps what the head held.
func TestBackingBacksThroughEnd(t *testing.T) {
	r := NewRing(64 << 10)
	if d := r.Backing(0); len(d) != 0 || backed(t, r) != 0 {
		t.Fatalf("Backing(0) of a new ring backed %d bytes", len(d))
	}
	if d := r.Backing(headBytes); len(d) != headBytes || backed(t, r) != headBytes {
		t.Fatalf("a write to the head's end backed %d bytes, want %d", len(d), headBytes)
	}
	if d := r.Backing(headBytes + 1); len(d) != r.Cap() || backed(t, r) != r.Cap() {
		t.Fatalf("a write past the head backed %d bytes of a %d B ring", len(d), r.Cap())
	}
	full := r.base.Load()
	if d := r.Backing(2 * r.Cap()); len(d) != r.Cap() || r.base.Load() != full {
		t.Fatal("a fully backed ring was backed again")
	}

	r = NewRing(64 << 10)
	r.TrySend(7, 0, []byte("held in the head"))
	d := r.Backing(r.Cap())
	if len(d) != r.Cap() || !bytes.Contains(d[:headBytes], []byte("held in the head")) {
		t.Fatal("growth lost the head's bytes")
	}
	if m, ok := r.TryRecv(); !ok || m.Type != 7 || string(m.Payload) != "held in the head" {
		t.Fatalf("after growth got %+v ok=%v", m, ok)
	}
}

// TestResetKeepsTheBacking: a recycled ring keeps the storage it had, at
// the address it had, and Reset zeroes all of it — bytes past every
// cursor included, as a remote NIC may leave them.
func TestResetKeepsTheBacking(t *testing.T) {
	for _, full := range []bool{false, true} {
		r := NewRing(4096)
		if full {
			r.Backing(r.Cap())
		}
		r.TrySend(1, 0, bytes.Repeat([]byte{0xEE}, 100))
		size, base := backed(t, r), r.base.Load()
		r.data[int(r.WriteCursor())+16] = 0x77 // past every cursor
		r.data[size-1] = 0x77
		r.Reset()
		if backed(t, r) != size || r.base.Load() != base {
			t.Fatalf("full=%v: Reset dropped or moved the backing", full)
		}
		if !allZero(r.data) {
			t.Fatalf("full=%v: something of the old backing survived Reset", full)
		}
		if !r.TrySend(2, 0, []byte("again")) {
			t.Fatal("send after Reset failed")
		}
		if m, ok := r.TryRecv(); !ok || m.Type != 2 || string(m.Payload) != "again" {
			t.Fatalf("full=%v: after Reset got %+v ok=%v", full, m, ok)
		}
	}
	// A tail a remote writer pushed past the backing scrubs only what is backed.
	r := NewRing(4096)
	r.TrySend(1, 0, nil)
	r.SetTail(3000)
	r.Reset()
	if backed(t, r) != headBytes || !allZero(r.data) {
		t.Fatal("Reset after a tail past the head")
	}
}

// TestWrapAcrossHeadGrowth: a stream whose receiver lags crosses from
// the head to the full backing with messages still unread in the head,
// wraps several times, and arrives in order. A payload view taken from
// the head before the growth keeps its bytes.
func TestWrapAcrossHeadGrowth(t *testing.T) {
	r := NewRing(1024)
	first := bytes.Repeat([]byte{0x11}, 40)
	if !r.TrySend(1, 0, first) {
		t.Fatal("send failed")
	}
	early, ok := r.TryRecv()
	if !ok || backed(t, r) != headBytes {
		t.Fatal("first message not received from the head")
	}
	sent, got := 0, 0
	body := func(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 24+i%90) }
	for got < 200 {
		// Keep up to three messages in flight so some straddle the growth
		// and the wraps unread.
		for sent < 200 && sent-got < 3 && r.TrySend(2, 0, body(sent)) {
			sent++
		}
		m, ok := r.TryRecv()
		if !ok {
			t.Fatalf("message %d missing", got)
		}
		if !bytes.Equal(m.Payload, body(got)) {
			t.Fatalf("message %d corrupted across growth or wrap", got)
		}
		got++
	}
	if backed(t, r) != r.Cap() || r.WriteCursor() < 8*1024 {
		t.Fatalf("stream never grew the ring or never wrapped (cursor %d)", r.WriteCursor())
	}
	if !bytes.Equal(early.Payload, first) {
		t.Fatal("a view taken from the head changed after growth")
	}
}

// TestHostileTailPastTheBacking: intra-host peers are untrusted (§3). A
// tail published past what is backed, or a header whose message would end
// past it, reads as no message from every receive entry point: none
// panics, and none returns a payload outside the backing.
func TestHostileTailPastTheBacking(t *testing.T) {
	setups := map[string]func() *Ring{
		"unbacked": func() *Ring {
			r := NewRing(4096)
			r.SetTail(64)
			return r
		},
		"head, tail past it": func() *Ring {
			r := NewRing(4096)
			r.TrySend(1, 0, []byte("ok"))
			r.SetTail(3000)
			return r
		},
		"head, message past it": func() *Ring {
			r := NewRing(4096)
			r.TrySend(1, 0, nil)
			*hdrAt(r.data, 8) = packHdr(1, 0, 300)
			r.SetTail(8 + hdrSize + 304)
			return r
		},
		"full, length past capacity": func() *Ring {
			r := NewRing(4096)
			r.Backing(r.Cap())
			*hdrAt(r.data, 0) = packHdr(1, 0, 1<<20)
			r.SetTail(hdrSize + 1<<20)
			return r
		},
	}
	inside := func(r *Ring, m Msg) bool {
		lo := uintptr(unsafe.Pointer(r.base.Load()))
		p := uintptr(unsafe.Pointer(unsafe.SliceData(m.Payload)))
		return r.base.Load() != nil && p >= lo && p+uintptr(len(m.Payload)) <= lo+uintptr(r.ext.Load())
	}
	for name, setup := range setups {
		t.Run(name, func(t *testing.T) {
			r := setup()
			r.CanRecv()
			r.RecvIdle()
			// Whatever the ring yields lies inside the backing, and it
			// stops yielding.
			for i := 0; ; i++ {
				m, ok := r.TryRecv()
				if !ok {
					break
				}
				if !inside(r, m) || i > r.Cap() {
					t.Fatalf("TryRecv returned %d bytes outside the backing", len(m.Payload))
				}
			}
			r = setup()
			var out [64]Msg
			for {
				n := r.TryRecvN(out[:])
				for _, m := range out[:n] {
					if !inside(r, m) {
						t.Fatalf("TryRecvN returned %d bytes outside the backing", len(m.Payload))
					}
				}
				if n == 0 {
					break
				}
			}
			r = setup()
			for i := 0; i <= r.Cap(); i++ {
				if _, ok := r.PeekType(); !ok {
					break
				}
				if m, _ := r.TryRecv(); !inside(r, m) {
					t.Fatal("PeekType saw a message outside the backing")
				}
			}
		})
	}
}
