package core_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"testing"

	"socksdirect/internal/bufpool"
	"socksdirect/internal/core"
	"socksdirect/internal/exec"
	"socksdirect/internal/host"
	"socksdirect/internal/mem"
)

// TestZCSteadyStateAllocs is the zero-copy path's allocation guard, beside
// the ring's (internal/shm) and the QP's (internal/rdma): once the tables,
// the descriptor scratch and the recycled id/slot buffers are warm, a 64 KiB
// SendVA/RecvVA — COW fault on the sender, descriptor, remap, and across
// hosts the pinned pool's slot swap and slot return — allocates nothing.
// The runtime's own allocations bleed into a window (the one after the
// collection rebuilds the insides of bufpool's sync.Pools), so the guard
// takes the best of three; a real per-message allocation is in all of them.
func TestZCSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	// One P: a sync.Pool (bufpool stages the QP's packets) hits only on the P
	// that filled it, and the simulated threads' goroutines move between Ps.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
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
						if err := th.Proc.AS.Write(ctx, src, seq[:]); err != nil {
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
	for _, tc := range []struct {
		name  string
		inter bool
		forge func(ctx exec.Context, th *host.Thread, s *core.Socket) error
	}{
		{"intra-surplus", false, func(ctx exec.Context, th *host.Thread, s *core.Socket) error {
			return s.SendZCHead(ctx, th, th.Proc.AS.Alloc(2*span), 2*span, -span)
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
					if err := as.Write(ctx, next, mine); err != nil {
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

// FuzzZCDescriptor feeds arbitrary bytes to the receiver of MZC and MZCRet
// messages, over shared memory and over RDMA. The peer and its queue are
// untrusted (§4.3): no payload may panic the receiver, queue an arrival whose
// pages outnumber the whole pages of the bytes it announces (RecvVA sizes its
// buffer check by the bytes and maps the pages), or move a buffer or a frame.
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
	pm := w.a.Mem
	honest := pm.AppendObfuscated(core.AppendZCHeader(nil, core.ZCIntra, 4*mem.PageSize+7, 4), frames)
	if got := socks[0].FeedZC(false, honest); len(got) != 1 || got[0].Pages != 4 {
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
		bufs, live := bufpool.Outstanding(), w.a.Mem.FrameCount()+w.b.Mem.FrameCount()
		for _, s := range socks {
			for _, a := range s.FeedZC(ret, payload) {
				if a.Pages == 0 || a.Pages != a.Total>>mem.PageShift {
					t.Errorf("queued %d pages for %d bytes", a.Pages, a.Total)
				}
			}
		}
		if got := bufpool.Outstanding(); got != bufs {
			t.Errorf("bufpool outstanding %d -> %d", bufs, got)
		}
		if got := w.a.Mem.FrameCount() + w.b.Mem.FrameCount(); got != live {
			t.Errorf("frames %d -> %d", live, got)
		}
	})
}
