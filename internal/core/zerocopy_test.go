package core_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"runtime"
	"slices"
	"testing"

	"socksdirect/internal/core"
	"socksdirect/internal/exec"
	"socksdirect/internal/host"
	"socksdirect/internal/mem"
	"socksdirect/internal/monitor"
)

// TestZCSteadyStateAllocs is the zero-copy path's allocation guard, beside
// the ring's (internal/shm) and the QP's (internal/rdma): once the tables,
// the descriptor scratch and the recycled id/slot buffers are warm, a 64 KiB
// SendVA/RecvVA — COW fault on the sender, descriptor, remap, and across
// hosts the pinned pool's slot swap and slot return — allocates nothing.
// The runtime's own allocations can bleed into a window, so the guard takes
// the best of three; a real per-message allocation is in all of them.
func TestZCSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	const (
		n       = 64 << 10
		warm    = 64
		window  = 200
		windows = 3
	)
	for _, tc := range []struct {
		name  string
		inter bool
	}{{"intra", false}, {"inter", true}} {
		t.Run(tc.name, func(t *testing.T) {
			w := newWorld(t)
			best := uint64(math.MaxUint64)
			connected(t, w, tc.inter, 7650,
				func(ctx exec.Context, th *host.Thread, s *core.Socket) {
					dst := th.Proc.AS.Alloc(n)
					recv := func(msgs int) {
						for i := 0; i < msgs; i++ {
							if m, err := s.RecvVA(ctx, th, dst, n); m != n || err != nil {
								t.Errorf("recvVA = %d, %v", m, err)
								return
							}
						}
					}
					recv(warm)
					// Peered monitors beacon, and allocate, until the dial is
					// 60 ms past.
					ctx.Sleep(100_000_000)
					runtime.GC()
					for i := 0; i < windows; i++ {
						var before, after runtime.MemStats
						runtime.ReadMemStats(&before)
						recv(window)
						runtime.ReadMemStats(&after)
						best = min(best, after.Mallocs-before.Mallocs)
					}
					recv(warm) // the sender's last messages and its exit stay out of the windows
				},
				func(ctx exec.Context, th *host.Thread, s *core.Socket) {
					src := th.Proc.AS.Alloc(n)
					var seq [8]byte
					for i := 0; i < 2*warm+windows*window; i++ {
						// The last message still shares the page: one COW fault.
						binary.LittleEndian.PutUint64(seq[:], uint64(i))
						if err := th.Proc.AS.Write(&ctx, src, seq[:]); err != nil {
							t.Error(err)
							return
						}
						if _, err := s.SendVA(ctx, th, src, n); err != nil {
							t.Errorf("sendVA: %v", err)
							return
						}
					}
				})
			w.sim.Run()
			if best != 0 {
				t.Fatalf("%d allocations in the best window of %d messages, want 0", best, window)
			}
		})
	}
}

// TestZCForgedCount: a descriptor's page count is the peer's word. One that
// names more pages than the bytes it announces would have a receive sized by
// the bytes map the surplus over whatever lies behind its buffer; one that
// names none would have it wait for a tail nobody sends. Both are dropped,
// for both descriptor kinds, and the stream goes on with the next message.
func TestZCForgedCount(t *testing.T) {
	const pages = 4
	const span = pages * mem.PageSize
	slots := func(total, count int) []byte {
		s := make([]int32, count)
		for i := range s {
			s[i] = int32(i)
		}
		return core.AppendZCSlots(core.AppendZCHeader(nil, core.ZCInter, total, count), s)
	}
	// The surplus forger's pages carry the transfer references it took for
	// them. Nothing takes back those of a descriptor the receiver drops
	// (CHANGES.md FOUND): the forger lets go of them once the world is quiet.
	var forged []mem.PageID
	for _, tc := range []struct {
		name  string
		inter bool
		forge func(ctx exec.Context, th *host.Thread, s *core.Socket) error
	}{
		{"intra-surplus", false, func(ctx exec.Context, th *host.Thread, s *core.Socket) error {
			ids, err := th.Proc.AS.PagesForSend(&ctx, th.Proc.AS.Alloc(2*span), 2*span)
			if err != nil {
				return err
			}
			forged = ids
			return s.SendZCRaw(ctx, th, th.Proc.Host.Mem.AppendObfuscated(core.AppendZCHeader(nil, core.ZCIntra, span, 2*pages), ids))
		}},
		{"intra-none", false, func(ctx exec.Context, th *host.Thread, s *core.Socket) error {
			return s.SendZCRaw(ctx, th, core.AppendZCHeader(nil, core.ZCIntra, 100, 0))
		}},
		{"inter-surplus", true, func(ctx exec.Context, th *host.Thread, s *core.Socket) error {
			return s.SendZCRaw(ctx, th, slots(span, 2*pages))
		}},
		{"inter-none", true, func(ctx exec.Context, th *host.Thread, s *core.Socket) error {
			return s.SendZCRaw(ctx, th, slots(100, 0))
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newWorld(t)
			honest := []byte("honest!!")
			connected(t, w, tc.inter, 7651,
				func(ctx exec.Context, th *host.Thread, s *core.Socket) {
					as := th.Proc.AS
					dst, next := as.Alloc(span), as.Alloc(span)
					mine := bytes.Repeat([]byte{0x5a}, span)
					if err := as.Write(&ctx, next, mine); err != nil {
						t.Error(err)
					}
					n, err := s.RecvVA(ctx, th, dst, span)
					if n != len(honest) || err != nil {
						t.Errorf("recvVA = %d, %v; want the %d honest bytes", n, err, len(honest))
					}
					got := make([]byte, span)
					as.Read(next, got)
					if !bytes.Equal(got, mine) {
						t.Error("the allocation behind the receive buffer was remapped")
					}
					as.Read(dst, got)
					if !bytes.Equal(got[:len(honest)], honest) {
						t.Errorf("receive buffer starts %q", got[:len(honest)])
					}
				},
				func(ctx exec.Context, th *host.Thread, s *core.Socket) {
					if err := tc.forge(ctx, th, s); err != nil {
						t.Errorf("forge: %v", err)
					}
					if _, err := s.Send(ctx, th, honest); err != nil {
						t.Errorf("send: %v", err)
					}
				})
			w.sim.Run()
			for _, id := range forged {
				if n := w.a.Mem.FrameRefs(id); n != 2 {
					t.Errorf("forged page %d: %d references, want its mapping's and its transfer's", id, n)
				}
			}
			w.a.Mem.Unref(forged)
			forged = nil
		})
	}
}

// TestRecvVAReportsWriteError: each of RecvVA's three copies into the
// address space reports an unmapped destination, and none reports bytes it
// did not deliver.
func TestRecvVAReportsWriteError(t *testing.T) {
	const span = 4 * mem.PageSize
	for _, tc := range []struct {
		name string
		tail int // bytes the descriptor of a span-sized message announces beyond it; < 0: no descriptor
		// where RecvVA is pointed, given a span-sized buffer that ends the heap
		at    func(buf mem.VAddr) (mem.VAddr, int)
		wantN int
	}{
		// A queued zero-copy arrival met by an unaligned receive: copied.
		{"zc-by-copy", 0, func(buf mem.VAddr) (mem.VAddr, int) { return buf + span + 1, 64 }, 0},
		// Its pages map; the tail behind them does not fit the heap.
		{"zc-tail", 64, func(buf mem.VAddr) (mem.VAddr, int) { return buf, span + mem.PageSize }, span},
		// Ordinary bytes.
		{"bytes", -1, func(buf mem.VAddr) (mem.VAddr, int) { return buf + span, 64 }, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newWorld(t)
			connected(t, w, false, 7652,
				func(ctx exec.Context, th *host.Thread, s *core.Socket) {
					addr, n := tc.at(th.Proc.AS.Alloc(span))
					got, err := s.RecvVA(ctx, th, addr, n)
					if got != tc.wantN || !errors.Is(err, mem.ErrUnmapped) {
						t.Errorf("recvVA = %d, %v; want %d, ErrUnmapped", got, err, tc.wantN)
					}
				},
				func(ctx exec.Context, th *host.Thread, s *core.Socket) {
					if tc.tail >= 0 {
						if err := s.SendZCHead(ctx, th, th.Proc.AS.Alloc(span), span, tc.tail); err != nil {
							t.Errorf("zc head: %v", err)
						}
					}
					if _, err := s.Send(ctx, th, make([]byte, 64)); err != nil {
						t.Errorf("send: %v", err)
					}
				})
			w.sim.Run()
		})
	}
}

// TestForgedZCReturnIsDropped: the sender keeps the free slots of its
// peer's pinned pool, and the peer returns them in band. A peer that
// returns a slot twice, or one past the pool it advertised, would have the
// sender write two messages into one frame or outside the pool's MR: after
// a 16-page zero-copy send has taken slots 112–127, an MZCRet naming 127
// twice, 3 (free already), 128 and -1 gives back 127 once and nothing else.
func TestForgedZCReturnIsDropped(t *testing.T) {
	w := newWorld(t)
	const n = 16 * mem.PageSize
	read := false
	connected(t, w, true, 7656,
		func(ctx exec.Context, th *host.Thread, s *core.Socket) {
			for !read {
				ctx.Sleep(10_000)
			}
			if m, err := s.RecvVA(ctx, th, th.Proc.AS.Alloc(n), n); m != n || err != nil {
				t.Errorf("recvVA = %d, %v", m, err)
			}
		},
		func(ctx exec.Context, th *host.Thread, s *core.Socket) {
			defer func() { read = true }()
			if _, err := s.SendVA(ctx, th, th.Proc.AS.Alloc(n), n); err != nil {
				t.Errorf("sendVA: %v", err)
				return
			}
			free := s.ReturnZC(nil)
			if len(free) != core.ZCPoolPages-16 || slices.Contains(free, 127) {
				t.Errorf("after the send: %d free slots (127 among them: %v), want %d without 127",
					len(free), slices.Contains(free, 127), core.ZCPoolPages-16)
				return
			}
			free = s.ReturnZC(core.AppendZCReturn(nil, []int32{127, 127, 3, 128, -1}))
			if len(free) != core.ZCPoolPages-15 {
				t.Errorf("after the forged return: %d free slots, want %d", len(free), core.ZCPoolPages-15)
			}
			seen := map[int32]bool{}
			for _, slot := range free {
				if slot < 0 || slot >= core.ZCPoolPages || seen[slot] {
					t.Errorf("free slot %d: out of the pool or listed twice", slot)
				}
				seen[slot] = true
			}
			if !seen[127] {
				t.Error("the one genuine return, slot 127, was dropped")
			}
		})
	w.sim.Run()
}

// TestZCSlotNamedTwiceIsDropped: a descriptor names frames — intra-host by
// their obfuscated ids, inter-host by slots of the receiver's pinned pool —
// and RecvVA maps them. One that names a frame twice, or across hosts a slot
// an arrival still queued names, would have one frame mapped twice on one
// reference: it is dropped whole. A slot is free to name again once the
// arrival holding it has been received.
func TestZCSlotNamedTwiceIsDropped(t *testing.T) {
	w := newWorld(t)
	var socks []*core.Socket
	var frames []mem.PageID
	for i, inter := range []bool{false, true} {
		connected(t, w, inter, 7657+uint16(i), func(ctx exec.Context, th *host.Thread, s *core.Socket) {
			socks = append(socks, s)
			if !inter {
				frames = th.Proc.AS.FreshFrames(nil, 2)
			}
		}, nil)
	}
	w.sim.Run()
	t.Cleanup(func() { w.a.Mem.Unref(frames) }) // before the world ends
	intra := func(ids ...mem.PageID) []byte {
		return w.a.Mem.AppendObfuscated(core.AppendZCHeader(nil, core.ZCIntra, len(ids)*mem.PageSize, len(ids)), ids)
	}
	inter := func(slots ...int32) []byte {
		return core.AppendZCSlots(core.AppendZCHeader(nil, core.ZCInter, len(slots)*mem.PageSize, len(slots)), slots)
	}
	for _, tc := range []struct {
		name  string
		inter bool
		feed  [][]byte
		want  int // arrivals queued
	}{
		{"a frame twice", false, [][]byte{intra(frames[0], frames[0])}, 0},
		{"distinct frames", false, [][]byte{intra(frames[0], frames[1])}, 1},
		{"a slot twice", true, [][]byte{inter(3, 3)}, 0},
		{"a slot a queued arrival holds", true, [][]byte{inter(3, 4), inter(5, 4)}, 1},
		{"distinct slots", true, [][]byte{inter(3, 4), inter(5, 6)}, 2},
		{"a slot received before", true, [][]byte{inter(4, 3)}, 1},
	} {
		s := socks[0]
		if tc.inter {
			s = socks[1]
		}
		got := s.FeedZC(false, tc.feed...)
		if len(got) != tc.want {
			t.Errorf("%s: %d arrivals queued, want %d", tc.name, len(got), tc.want)
		}
		if dup := sharedFrame(got...); dup != 0 {
			t.Errorf("%s: frame %d queued twice", tc.name, dup)
		}
	}
}

// sharedFrame returns a frame that two of the arrivals' pages name, or 0.
func sharedFrame(arrivals ...core.ZCArrival) mem.PageID {
	seen := map[mem.PageID]bool{}
	for _, a := range arrivals {
		for _, id := range a.Frames {
			if seen[id] {
				return id
			}
			seen[id] = true
		}
	}
	return 0
}

// FuzzZCDescriptor feeds arbitrary bytes to the receiver of MZC and MZCRet
// messages, over shared memory and over RDMA, twice in a row. The peer and
// its queue are untrusted (§4.3): no payload may panic the receiver, queue an
// arrival whose pages outnumber the whole pages of the bytes it announces
// (RecvVA sizes its buffer check by the bytes and maps the pages), queue an
// arrival that names one frame twice or, over RDMA, arrivals that together
// name one pool frame twice (RecvVA would map it twice), or move a buffer or
// a frame. Intra-host arrivals may share frames: each holds its own
// transfer references.
func FuzzZCDescriptor(f *testing.F) {
	w := newWorld(f)
	var socks []*core.Socket
	var frames []mem.PageID
	for i, inter := range []bool{false, true} {
		connected(f, w, inter, 7653+uint16(i),
			func(ctx exec.Context, th *host.Thread, s *core.Socket) {
				socks = append(socks, s)
				if !inter {
					frames = th.Proc.AS.FreshFrames(nil, 4)
				}
			}, nil)
	}
	w.sim.Run()
	if len(socks) != 2 {
		f.Fatal("no connections to fuzz")
	}
	f.Cleanup(func() { w.a.Mem.Unref(frames) }) // before the world ends
	pm := w.a.Mem
	honest := pm.AppendObfuscated(core.AppendZCHeader(nil, core.ZCIntra, 4*mem.PageSize+7, 4), frames)
	if got := socks[0].FeedZC(false, honest); len(got) != 1 || len(got[0].Frames) != 4 {
		f.Fatalf("an honest descriptor queued %v", got)
	}
	f.Add(false, honest)
	f.Add(false, pm.AppendObfuscated(core.AppendZCHeader(nil, core.ZCIntra, 2*mem.PageSize, 4), frames))
	f.Add(false, core.AppendZCSlots(core.AppendZCHeader(nil, core.ZCInter, 2*mem.PageSize, 2), []int32{0, 127}))
	f.Add(false, core.AppendZCSlots(core.AppendZCHeader(nil, core.ZCInter, mem.PageSize, 1), []int32{128}))
	f.Add(false, core.AppendZCHeader(nil, core.ZCIntra, 0, 0))
	f.Add(true, core.AppendZCReturn(nil, []int32{1, 2, 3}))
	f.Add(true, []byte{0xff, 0xff, 0xff, 0xff, 1})
	f.Fuzz(func(t *testing.T, ret bool, payload []byte) {
		before := monitor.TakeCensus(w.a, w.b)
		for i, s := range socks {
			got := s.FeedZC(ret, payload, payload)
			for _, a := range got {
				if len(a.Frames) == 0 || len(a.Frames) != a.Total>>mem.PageShift {
					t.Errorf("queued %d pages for %d bytes", len(a.Frames), a.Total)
				}
				if dup := sharedFrame(a); dup != 0 {
					t.Errorf("frame %d named twice by one arrival", dup)
				}
			}
			if dup := sharedFrame(got...); i == 1 && dup != 0 {
				t.Errorf("frame %d of the pinned pool queued twice", dup)
			}
		}
		if c := monitor.TakeCensus(w.a, w.b); c != before {
			t.Errorf("census %+v -> %+v", before, c)
		}
	})
}

// TestCloseReleasesQueuedZC: a socket closed with a zero-copy arrival it
// never received gives back what the arrival held, as close discards a
// receive queue. Intra-host, the arrival's transfer references: once the
// sender frees its buffer, all 16 frames are back in its address space's
// free pool. Inter-host, the arrival's pool slots: they go back to the
// sender ahead of the close's MShut, so by its EOF the sender finds every
// slot of the peer's pool free.
func TestCloseReleasesQueuedZC(t *testing.T) {
	const pages = 16
	const n = pages * mem.PageSize
	for _, inter := range []bool{false, true} {
		name := "intra"
		if inter {
			name = "inter"
		}
		t.Run(name, func(t *testing.T) {
			w := newWorld(t)
			sent := false
			connected(t, w, inter, 7658,
				func(ctx exec.Context, th *host.Thread, s *core.Socket) {
					for !sent {
						ctx.Sleep(10_000)
					}
					ctx.Sleep(100_000)
					s.Close(ctx, th)
				},
				func(ctx exec.Context, th *host.Thread, s *core.Socket) {
					as := th.Proc.AS
					src := as.Alloc(n)
					if _, err := s.SendVA(ctx, th, src, n); err != nil {
						t.Errorf("sendVA: %v", err)
					}
					sent = true
					if _, err := s.Recv(ctx, th, make([]byte, 8)); err != io.EOF {
						t.Errorf("recv after the peer's close: %v, want EOF", err)
					}
					if free := len(s.ReturnZC(nil)); inter && free != core.ZCPoolPages {
						t.Errorf("%d slots of the peer's pool free after its close, want all %d", free, core.ZCPoolPages)
					}
					s.Close(ctx, th)
					ctx.Sleep(100_000)
					as.Free(src, n)
					if got := as.PoolSize(); !inter && got != pages {
						t.Errorf("%d frames back in the sender's pool, want the %d it sent", got, pages)
					}
				})
			w.sim.Run()
		})
	}
}
