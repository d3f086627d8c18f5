package shm

import (
	"bytes"
	"testing"
	"unsafe"
)

// FuzzRingHeader plays a hostile peer against one ring (§3: a peer and its
// queue are untrusted). An honest sender lays down some messages and the
// receiver takes some of them; then the peer writes what it can reach: one
// message header word (type, flags and length), the tail and the credit
// word, each by an arbitrary amount. The receiver's TryRecv and TryRecvN must
// not panic, return a payload outside the backing or move read past any tail
// published; the sender's TrySend, under the forged credit, must lay each message
// it accepts down whole inside the capacity.
func FuzzRingHeader(f *testing.F) {
	f.Add(uint8(3), uint8(1), uint16(0), packHdr(1, 0, 16), int64(0), int64(0), uint16(40))
	f.Add(uint8(3), uint8(0), uint16(8), packHdr(1, 0, 300), int64(0), int64(0), uint16(8))
	f.Add(uint8(1), uint8(0), uint16(0), packHdr(1, 0, 1<<20), int64(1<<20), int64(0), uint16(0))
	f.Add(uint8(2), uint8(0), uint16(0), packHdr(1, 0, 500), int64(8), int64(0), uint16(1000))
	f.Add(uint8(2), uint8(0), uint16(0), packHdr(wrapType, 0, 0), int64(8), int64(1<<40), uint16(1000))
	f.Add(uint8(9), uint8(9), uint16(512), packHdr(7, 3, 4), int64(-64), int64(-1), uint16(1008))
	f.Fuzz(func(t *testing.T, sent, taken uint8, at uint16, hdr uint64, tail, credit int64, size uint16) {
		r := NewRing(1024)
		for i := 0; i < int(sent%32); i++ {
			if !r.TrySend(1, 0, make([]byte, i*37%200)) {
				break
			}
		}
		for i := 0; i < int(taken%32); i++ {
			r.TryRecv()
		}

		if len(r.data) > 0 {
			*hdrAt(r.data, uint64(at)%uint64(len(r.data))&^7) = hdr
		}
		// The receiver may have seen the honest tail before the forged one.
		published := r.tail.Load()
		r.tail.Store(published + uint64(tail))
		published = max(published, r.tail.Load())
		r.credit.Store(r.credit.Load() + uint64(credit))

		inside := func(m Msg) bool {
			lo := uintptr(unsafe.Pointer(r.base.Load()))
			p := uintptr(unsafe.Pointer(unsafe.SliceData(m.Payload)))
			return lo != 0 && p >= lo && p+uintptr(len(m.Payload)) <= lo+uintptr(r.ext.Load())
		}
		var out [4]Msg
		for i := 0; i < 64; i++ {
			read := r.read
			var got []Msg
			if i%2 == 0 {
				if m, ok := r.TryRecv(); ok {
					got = append(got, m)
				}
			} else {
				got = out[:r.TryRecvN(out[:])]
			}
			for _, m := range got {
				if !inside(m) {
					t.Fatalf("receive %d returned %d payload bytes outside the backing", i, len(m.Payload))
				}
			}
			if r.read != read && r.read > published {
				t.Fatalf("receive %d moved read %d -> %d, past the tail %d", i, read, r.read, published)
			}
		}

		n := int(size) % (r.MaxMsg() + 1)
		payload := bytes.Repeat([]byte{0xa5}, n)
		for i := 0; i < 4; i++ {
			w := r.written
			if !r.TrySend(2, 0, payload) {
				break
			}
			off := w & r.mask
			if hdrSize+pad8(n) > r.capacity-off {
				off = 0 // behind a wrap marker
			}
			end := off + hdrSize + uint64(n)
			if end > r.capacity || uint64(len(r.data)) > r.capacity {
				t.Fatalf("send %d wrote [%d, %d) of a %d B ring backed to %d", i, off, end, r.capacity, len(r.data))
			}
			if *hdrAt(r.data, off) != packHdr(2, 0, n) || !bytes.Equal(r.data[off+hdrSize:end], payload) {
				t.Fatalf("send %d of %d bytes is not whole at %d", i, n, off)
			}
		}
	})
}
