package core

import (
	"encoding/binary"
	"io"

	"socksdirect/internal/bufpool"
	"socksdirect/internal/exec"
	"socksdirect/internal/host"
	"socksdirect/internal/mem"
	"socksdirect/internal/rdma"
	"socksdirect/internal/telemetry"
)

// zcPool is the receiver-side pinned page pool for inter-host zero copy
// (Fig. 5b): the pool's MR is published to the sender at connection setup;
// the sender owns the free-slot list and writes payload pages straight
// into pool frames; the receiver remaps them into application buffers and
// returns slots once the application mapping is gone.
type zcPool struct {
	as  *mem.AddressSpace
	ids []mem.PageID
	mr  *rdma.MR
}

// zcPoolPages is the pool size per socket direction.
const zcPoolPages = 128

// newZCPool builds the receiver's pinned pool: bare frames (no virtual
// mapping — they belong to the NIC until received) registered as one MR.
// It tolerates a nil ctx (control-path invocations charge nothing).
func newZCPool(ctx exec.Context, p *host.Process, pd *rdma.PD) (*zcPool, error) {
	ids := p.AS.FreshFrames(zcPoolPages)
	if err := p.Host.Mem.Pin(ctx, ids); err != nil {
		return nil, err
	}
	return &zcPool{
		as:  p.AS,
		ids: ids,
		mr:  pd.RegisterFrames(p.Host.Mem, ids),
	}, nil
}

// zcRecv is a queued zero-copy arrival awaiting RecvVA (or byte-API
// materialization).
type zcRecv struct {
	ids   []mem.PageID // resolved frames (deobfuscated / pool slots)
	slots []int32      // inter-host only: pool slots to return
	total int
	intra bool
}

// --- descriptor encoding (MZC payload) ---

// intra: [0x01][total u32][count u32][obf u64 × count]
// inter: [0x02][total u32][count u32][slot u32 × count]

func encodeZCIntra(total int, obf []mem.ObfPageID) []byte {
	out := make([]byte, 9+8*len(obf))
	out[0] = 1
	binary.LittleEndian.PutUint32(out[1:], uint32(total))
	binary.LittleEndian.PutUint32(out[5:], uint32(len(obf)))
	for i, o := range obf {
		binary.LittleEndian.PutUint64(out[9+8*i:], uint64(o))
	}
	return out
}

func encodeZCInter(total int, slots []int32) []byte {
	out := make([]byte, 9+4*len(slots))
	out[0] = 2
	binary.LittleEndian.PutUint32(out[1:], uint32(total))
	binary.LittleEndian.PutUint32(out[5:], uint32(len(slots)))
	for i, s := range slots {
		binary.LittleEndian.PutUint32(out[9+4*i:], uint32(s))
	}
	return out
}

// queueZC decodes an MZC descriptor into pending receive state. Bad
// descriptors (forged page ids) poison the socket rather than the host.
func (s *Socket) queueZC(payload []byte) {
	if len(payload) < 9 {
		return
	}
	total := int(binary.LittleEndian.Uint32(payload[1:]))
	count := int(binary.LittleEndian.Uint32(payload[5:]))
	switch payload[0] {
	case 1:
		if len(payload) < 9+8*count {
			return
		}
		ids := make([]mem.PageID, 0, count)
		for i := 0; i < count; i++ {
			o := mem.ObfPageID(binary.LittleEndian.Uint64(payload[9+8*i:]))
			id, err := s.lib.H.Mem.Deobfuscate(o)
			if err != nil {
				return // forged descriptor: drop (isolation holds)
			}
			ids = append(ids, id)
		}
		s.rxZC = append(s.rxZC, zcRecv{ids: ids, total: total, intra: true})
	case 2:
		pool := s.side.LocalPool
		if pool == nil || len(payload) < 9+4*count {
			return
		}
		ids := make([]mem.PageID, 0, count)
		slots := make([]int32, 0, count)
		for i := 0; i < count; i++ {
			slot := int32(binary.LittleEndian.Uint32(payload[9+4*i:]))
			if slot < 0 || int(slot) >= len(pool.ids) {
				return
			}
			ids = append(ids, pool.ids[slot])
			slots = append(slots, slot)
		}
		s.rxZC = append(s.rxZC, zcRecv{ids: ids, slots: slots, total: total})
	}
}

// handleZCReturn gives returned pool slots back to the sender-side
// allocator (inter-host; intra-host pages return through the kernel's
// frame refcounting).
func (s *Socket) handleZCReturn(payload []byte) {
	if _, ok := s.ep.(*rdmaEP); !ok || len(payload) < 4 {
		return
	}
	count := int(binary.LittleEndian.Uint32(payload))
	s.side.PoolMu.Lock()
	for i := 0; i < count && 4+4*i+4 <= len(payload); i++ {
		s.side.PoolFree = append(s.side.PoolFree, int32(binary.LittleEndian.Uint32(payload[4+4*i:])))
	}
	s.side.PoolMu.Unlock()
}

func encodeZCReturn(slots []int32) []byte {
	out := make([]byte, 4+4*len(slots))
	binary.LittleEndian.PutUint32(out, uint32(len(slots)))
	for i, s := range slots {
		binary.LittleEndian.PutUint32(out[4+4*i:], uint32(s))
	}
	return out
}

// --- VA-based send/recv: the paths where §4.3's remapping pays off ---

// SendVA transmits n bytes from a page-aligned buffer in the process
// address space. At or above ZCThreshold the pages move by remapping
// (intra-host) or by NIC DMA into the peer's pinned pool (inter-host);
// the trailing non-page-multiple remainder is copied inline, as the paper
// does ("If the size of sent message is not a multiple of 4 KiB, the last
// chunk of data is copied").
func (s *Socket) SendVA(ctx exec.Context, t *host.Thread, addr mem.VAddr, n int) (int, error) {
	if n < ZCThreshold || uint64(addr)%mem.PageSize != 0 {
		return s.sendVACopy(ctx, t, addr, n)
	}
	s.lib.enter()
	defer s.lib.leave()
	if err := s.acquireToken(ctx, t, DirSend); err != nil {
		return 0, err
	}
	defer s.maybeHandBack(ctx, DirSend)
	s.side.BusySend.Add(1)
	defer s.side.BusySend.Add(-1)
	if s.side.TxShut.Load() {
		return 0, ErrShutdown
	}
	s.flushSlotReturns(ctx)
	whole := n &^ (mem.PageSize - 1)
	switch ep := s.ep.(type) {
	case *shmEP:
		if err := s.zcSendIntra(ctx, addr, whole); err != nil {
			return 0, err
		}
	case *rdmaEP:
		if err := s.zcSendInter(ctx, ep, addr, whole); err != nil {
			return 0, err
		}
	default:
		return s.sendVACopyLocked(ctx, addr, n)
	}
	// Remainder rides the ring as ordinary bytes. The scratch is pooled:
	// sendMsg copies into the ring before returning, so the buffer is
	// dead — and releasable — the moment it does.
	if rem := n - whole; rem > 0 {
		pb := bufpool.Get(rem)
		if err := s.lib.P.AS.Read(addr+mem.VAddr(whole), pb.B); err != nil {
			pb.Release()
			return whole, err
		}
		err := s.sendMsg(ctx, MData, pb.B, nil)
		pb.Release()
		if err != nil {
			return whole, err
		}
		host.CountCopy(rem)
		ctx.Charge(s.lib.H.Costs.CopyCost(rem))
	}
	return n, nil
}

func (s *Socket) zcSendIntra(ctx exec.Context, addr mem.VAddr, n int) error {
	ids, err := s.lib.P.AS.PagesForSend(ctx, addr, n) // COW + transfer refs (Fig. 5a step 1)
	if err != nil {
		return err
	}
	obf := make([]mem.ObfPageID, len(ids))
	for i, id := range ids {
		obf[i] = s.lib.H.Mem.Obfuscate(id) // step 2: obfuscated addresses
	}
	return s.sendMsg(ctx, MZC, encodeZCIntra(n, obf), nil)
}

// zcMaxChunkPages bounds one inter-host ZC descriptor to half the remote
// pool so transfers larger than the pool pipeline instead of deadlocking
// on slot exhaustion.
const zcMaxChunkPages = zcPoolPages / 2

func (s *Socket) zcSendInter(ctx exec.Context, ep *rdmaEP, addr mem.VAddr, n int) error {
	for off := 0; off < n; off += zcMaxChunkPages * mem.PageSize {
		chunk := n - off
		if chunk > zcMaxChunkPages*mem.PageSize {
			chunk = zcMaxChunkPages * mem.PageSize
		}
		if err := s.zcSendInterChunk(ctx, ep, addr+mem.VAddr(off), chunk); err != nil {
			return err
		}
	}
	return nil
}

func (s *Socket) zcSendInterChunk(ctx exec.Context, ep *rdmaEP, addr mem.VAddr, n int) error {
	need := n / mem.PageSize
	// Allocate pool slots (sender-managed free list, Fig. 5b step 2);
	// returns arrive as in-band MZCRet drained here.
	// Slot exhaustion is the zero-copy would-block point: a receiver that
	// stopped returning slots is waited for under O_NONBLOCK and the deadline.
	var slots []int32
	s.side.PoolWant = need
	for w := s.poolWait(); ; {
		s.side.PoolMu.Lock()
		if len(s.side.PoolFree) >= need {
			slots = append([]int32(nil), s.side.PoolFree[len(s.side.PoolFree)-need:]...)
			s.side.PoolFree = s.side.PoolFree[:len(s.side.PoolFree)-need]
			s.side.PoolMu.Unlock()
			break
		}
		s.side.PoolMu.Unlock()
		s.drainCtl(ctx)
		s.lib.pump(ctx)
		if err := w.block(ctx); err != nil {
			return err
		}
	}

	ids, err := s.lib.P.AS.PagesForSend(ctx, addr, n) // COW on sender (step 1)
	if err != nil {
		return err
	}
	// Step 3: the NIC DMA-reads the pinned pages and writes them into the
	// peer's pool frames. No CPU copy: only the verb-post cost is charged.
	for i, id := range ids {
		fd, err := s.lib.H.Mem.FrameData(id)
		if err != nil {
			return err
		}
		ctx.Charge(s.lib.H.Costs.RDMAPost)
		if err := ep.qp.PostWrite(wrZC, fd, s.side.PoolRKey, int64(slots[i])*mem.PageSize, 0, false); err != nil {
			return err
		}
	}
	// Transfer refs held only for the DMA read, which happened at post.
	s.lib.H.Mem.Unref(ids)
	// Step 4: page (slot) descriptors go in-band, ordered after the data
	// on the same QP.
	return s.sendMsg(ctx, MZC, encodeZCInter(n, slots), nil)
}

// sendVACopy is the sub-threshold path: read out of the address space and
// send as ordinary bytes. Scratch comes from the buffer pool; Send copies
// into the ring, so the pool gets the buffer back before returning.
func (s *Socket) sendVACopy(ctx exec.Context, t *host.Thread, addr mem.VAddr, n int) (int, error) {
	// Memory admission control: send-side staging is charged against the
	// host's bufpool byte quota. Receive paths are never charged — their
	// progress is what drains the quota — so admission can shed load but
	// never deadlock.
	if !bufpool.TryAdmit(n) {
		return 0, ENOBUFS
	}
	defer bufpool.AdmitRelease(n)
	pb := bufpool.Get(n)
	if err := s.lib.P.AS.Read(addr, pb.B); err != nil {
		pb.Release()
		return 0, err
	}
	m, err := s.Send(ctx, t, pb.B)
	pb.Release()
	return m, err
}

func (s *Socket) sendVACopyLocked(ctx exec.Context, addr mem.VAddr, n int) (int, error) {
	if !bufpool.TryAdmit(n) {
		return 0, ENOBUFS
	}
	defer bufpool.AdmitRelease(n)
	pb := bufpool.Get(n)
	if err := s.lib.P.AS.Read(addr, pb.B); err != nil {
		pb.Release()
		return 0, err
	}
	buf := pb.B
	total := 0
	for len(buf) > 0 {
		c := len(buf)
		if c > maxInline {
			c = maxInline
		}
		if err := s.sendMsg(ctx, MData, buf[:c], nil); err != nil {
			pb.Release()
			return total, err
		}
		host.CountCopy(c)
		ctx.Charge(s.lib.H.Costs.CopyCost(c))
		buf = buf[c:]
		total += c
	}
	pb.Release()
	return total, nil
}

// RecvVA receives into a page-aligned buffer in the process address
// space. Zero-copy arrivals are remapped (Fig. 5 steps 3–5); byte
// arrivals are copied in.
func (s *Socket) RecvVA(ctx exec.Context, t *host.Thread, addr mem.VAddr, n int) (int, error) {
	s.lib.enter()
	defer s.lib.leave()
	if err := s.acquireToken(ctx, t, DirRecv); err != nil {
		return 0, err
	}
	defer s.maybeHandBack(ctx, DirRecv)
	s.side.BusyRecv.Add(1)
	defer s.side.BusyRecv.Add(-1)
	for {
		if len(s.rxZC) > 0 {
			z := s.rxZC[0]
			if uint64(addr)%mem.PageSize != 0 || n < z.total {
				pb := bufpool.Get(n)
				m, err := s.recvLockedBytes(ctx, t, pb.B)
				if err != nil {
					pb.Release()
					return 0, err
				}
				s.lib.P.AS.Write(ctx, addr, pb.B[:m])
				pb.Release()
				return m, err
			}
			s.rxZC = s.rxZC[1:]
			whole := z.total &^ (mem.PageSize - 1)
			if err := s.lib.P.AS.MapPages(ctx, addr, z.ids); err != nil {
				return 0, err
			}
			mZCRemaps.Inc()
			if telemetry.Trace.Enabled() {
				telemetry.Trace.Emit(ctx.Now(), "core", "zc_remap",
					telemetry.A("pages", int64(len(z.ids))))
			}
			if !z.intra && s.side.LocalPool != nil {
				// The received frames now belong to the application; put
				// fresh pinned pages into their slots and hand the slots
				// straight back to the sender (per-recv page allocation,
				// §4.3 — one batched remap worth of cost).
				pool := s.side.LocalPool
				fresh := pool.as.FreshFrames(len(z.slots))
				s.lib.H.Mem.Pin(nil, fresh)
				for i, slot := range z.slots {
					pool.ids[slot] = fresh[i]
					pool.mr.SwapFrame(int(slot), fresh[i])
				}
				ctx.Charge(s.lib.H.Costs.MapCost(len(z.slots)))
				s.queueSlotReturns(ctx, z.slots)
			}
			// The sub-page tail was sent as MData right behind the MZC.
			if rem := z.total - whole; rem > 0 {
				pb := bufpool.Get(rem)
				m, err := s.recvExactly(ctx, pb.B)
				if err != nil {
					pb.Release()
					return whole, err
				}
				err = s.lib.P.AS.Write(ctx, addr+mem.VAddr(whole), pb.B[:m])
				pb.Release()
				if err != nil {
					return whole, err
				}
			}
			return z.total, nil
		}
		// No ZC queued yet: take ordinary bytes, but bounce back here the
		// moment a zero-copy descriptor surfaces.
		pb := bufpool.Get(n)
		m, err := s.recvBytes(ctx, t, pb.B, false)
		if err != nil {
			pb.Release()
			return 0, err
		}
		if m > 0 {
			werr := s.lib.P.AS.Write(ctx, addr, pb.B[:m])
			pb.Release()
			if werr != nil {
				return 0, werr
			}
			return m, nil
		}
		pb.Release()
	}
}

// queueSlotReturns ships freed slots back to the sender if this thread
// holds the send token, deferring otherwise (single-sender discipline).
func (s *Socket) queueSlotReturns(ctx exec.Context, slots []int32) {
	s.side.PoolMu.Lock()
	s.side.PendingReturns = append(s.side.PendingReturns, slots...)
	s.side.PoolMu.Unlock()
	s.flushSlotReturns(ctx)
}

// flushSlotReturns must only run with the send token held (or during
// connection teardown when no one else can send).
func (s *Socket) flushSlotReturns(ctx exec.Context) {
	s.side.PoolMu.Lock()
	pend := s.side.PendingReturns
	s.side.PendingReturns = nil
	s.side.PoolMu.Unlock()
	if len(pend) == 0 {
		return
	}
	if err := s.sendMsg(ctx, MZCRet, encodeZCReturn(pend), nil); err != nil {
		s.side.PoolMu.Lock()
		s.side.PendingReturns = append(pend, s.side.PendingReturns...)
		s.side.PoolMu.Unlock()
	}
}

// materializeZC copies a queued zero-copy arrival into a plain byte
// buffer (the byte API cannot remap, §4.3's "smaller messages are copied"
// degenerate case).
func (s *Socket) materializeZC(ctx exec.Context, buf []byte) (int, error) {
	z := s.rxZC[0]
	// Pool scratch sized to the page roundup so the frame-append loop
	// never outgrows the pooled capacity; any spill into rxPending is
	// copied out before the release.
	pb := bufpool.Get(len(z.ids) * mem.PageSize)
	out := pb.B[:0]
	for _, id := range z.ids {
		fd, err := s.lib.H.Mem.FrameData(id)
		if err != nil {
			pb.Release()
			return 0, err
		}
		out = append(out, fd...)
	}
	out = out[:min(z.total, len(out))]
	mZCCopies.Inc()
	host.CountCopy(len(out))
	ctx.Charge(s.lib.H.Costs.CopyCost(len(out)))
	s.rxZC = s.rxZC[1:]
	if z.intra {
		s.lib.H.Mem.Unref(z.ids) // transfer refs die here
	} else if _, ok := s.ep.(*rdmaEP); ok {
		s.queueSlotReturns(ctx, z.slots)
	}
	n := copy(buf, out)
	if n < len(out) {
		s.rxPending = append(s.rxPending[:0], out[n:]...)
	}
	pb.Release()
	return n, nil
}

// recvLockedBytes is Recv's inner loop without token management (already
// held by the caller). Queued zero-copy arrivals are materialized by
// copying — the byte API cannot remap.
func (s *Socket) recvLockedBytes(ctx exec.Context, t *host.Thread, buf []byte) (int, error) {
	return s.recvBytes(ctx, t, buf, true)
}

// recvBytes returns (0, nil) on a queued zero-copy arrival when
// materialize is false, so RecvVA can remap instead of copying.
func (s *Socket) recvBytes(ctx exec.Context, t *host.Thread, buf []byte, materialize bool) (int, error) {
	for {
		if len(s.rxPending) > 0 {
			n := copy(buf, s.rxPending)
			s.rxPending = s.rxPending[n:]
			host.CountCopy(n)
			ctx.Charge(s.lib.H.Costs.CopyCost(n))
			return n, nil
		}
		if len(s.rxZC) > 0 {
			if !materialize {
				return 0, nil
			}
			return s.materializeZC(ctx, buf)
		}
		msg, ok := s.ep.tryRecv(ctx)
		if !ok {
			if s.side.RxShut.Load() {
				return 0, io.EOF
			}
			w := s.recvWait(t)
			if err := s.awaitRecv(ctx, &w); err != nil {
				return 0, err
			}
			continue
		}
		if done, n, err := s.dispatchMsg(ctx, msg, buf); done {
			return n, err
		}
	}
}

// recvExactly fills buf completely from the stream (ZC tail bytes, which ride
// the ring right behind their descriptor); an error comes with the partial count.
func (s *Socket) recvExactly(ctx exec.Context, buf []byte) (int, error) {
	got := 0
	for got < len(buf) {
		if len(s.rxPending) > 0 {
			n := copy(buf[got:], s.rxPending)
			s.rxPending = s.rxPending[n:]
			got += n
			continue
		}
		w := s.tailWait()
		if err := s.awaitRecv(ctx, &w); err != nil {
			return got, err
		}
		msg, ok := s.ep.tryRecv(ctx)
		if !ok {
			continue
		}
		if msg.Type == MData {
			n := copy(buf[got:], msg.Payload)
			if n < len(msg.Payload) {
				s.rxPending = append(s.rxPending[:0], msg.Payload[n:]...)
			}
			got += n
		} else {
			var scratch [1]byte
			s.dispatchMsg(ctx, msg, scratch[:0])
		}
	}
	return got, nil
}

// drainCtl consumes leading non-data messages (slot returns, acks) so the
// send path can make progress without stealing application data.
func (s *Socket) drainCtl(ctx exec.Context) {
	for {
		var typ uint8
		var ok bool
		switch ep := s.ep.(type) {
		case *shmEP:
			typ, ok = ep.side.RX.PeekType()
		case *rdmaEP:
			s.lib.pump(ctx)
			typ, ok = ep.side.RX.PeekType()
		default:
			return
		}
		if !ok || (typ != MZCRet && typ != MAck) {
			return
		}
		msg, ok2 := s.ep.tryRecv(ctx)
		if !ok2 {
			return
		}
		switch msg.Type {
		case MZCRet:
			s.handleZCReturn(msg.Payload)
		case MAck:
			s.established = true
		}
	}
}
