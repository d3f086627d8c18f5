package core

import (
	"encoding/binary"

	"socksdirect/internal/bufpool"
	"socksdirect/internal/exec"
	"socksdirect/internal/host"
	"socksdirect/internal/mem"
	"socksdirect/internal/obs"
	"socksdirect/internal/rdma"
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
// It takes the zero ctx too (control-path invocations charge nothing).
func newZCPool(ctx exec.Context, p *host.Process, pd *rdma.PD) (*zcPool, error) {
	ids := p.AS.FreshFrames(nil, zcPoolPages)
	if err := p.Host.Mem.Pin(&ctx, ids); err != nil {
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

// zcState is all a socket keeps for zero copy. It hangs off one pointer that
// the first zero-copy message fills in: most sockets never see one, and every
// dial builds two Sockets. Nothing in it is allocated per message.
type zcState struct {
	// Receive side, owned by the receive token's holder.
	rx   []zcRecv // arrivals awaiting RecvVA, oldest first
	free []zcRecv // spent arrivals, emptied: queueZC refills their buffers

	// Send side, owned by the send token's holder, and dead once the MZC is
	// in the ring: the descriptor, the frames it names and (inter-host)
	// their slots in the peer's pool.
	desc  []byte
	ids   []mem.PageID
	slots []int32

	// ret is the MZCRet buffer. Either token's holder may
	// flush slot returns, so it is taken out (nil) while its message waits
	// for the ring; a flush that finds it gone builds its own.
	ret []byte
}

// zcFreeMax bounds zcState.free: arrivals are consumed about as fast as they
// queue, so a few spent ones cover the refills.
const zcFreeMax = 4

func (s *Socket) zcs() *zcState {
	if s.zc == nil {
		s.zc = new(zcState)
	}
	return s.zc
}

// zcQueued reports a zero-copy arrival awaiting its receive.
func (s *Socket) zcQueued() bool { return s.zc != nil && len(s.zc.rx) > 0 }

// pop removes the oldest arrival, moving the rest down so that rx keeps its
// backing array.
func (z *zcState) pop() zcRecv {
	r := z.rx[0]
	n := copy(z.rx, z.rx[1:])
	z.rx[n] = zcRecv{}
	z.rx = z.rx[:n]
	return r
}

// spent takes back the buffers of an arrival nobody reads any more.
func (z *zcState) spent(r zcRecv) {
	if len(z.free) < zcFreeMax {
		z.free = append(z.free, zcRecv{ids: r.ids[:0], slots: r.slots[:0]})
	}
}

// --- the descriptor codec ---
//
// MZC:    [kind u8][total u32][count u32], then count items:
//         zcIntra  obfuscated frame ids, as mem writes them
//         zcInter  slots of the receiver's pinned pool, u32 each
// MZCRet: [count u32], then count pool slots, u32 each

const (
	zcIntra     = 1
	zcInter     = 2
	zcHeaderLen = 9
	zcSlotLen   = 4
)

func appendZCHeader(dst []byte, kind byte, total, count int) []byte {
	dst = append(dst, kind)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(total))
	return binary.LittleEndian.AppendUint32(dst, uint32(count))
}

func appendSlots(dst []byte, slots []int32) []byte {
	for _, slot := range slots {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(slot))
	}
	return dst
}

func appendZCReturn(dst []byte, slots []int32) []byte {
	return appendSlots(binary.LittleEndian.AppendUint32(dst, uint32(len(slots))), slots)
}

// parseZC checks an MZC payload's framing and returns its items. The peer
// is untrusted: a descriptor must name at least one page and exactly the
// whole pages of the bytes it announces, or a receive sized by total would
// map count pages over whatever lies behind its buffer.
func parseZC(payload []byte) (kind byte, total int, items []byte, ok bool) {
	if len(payload) < zcHeaderLen {
		return 0, 0, nil, false
	}
	kind = payload[0]
	total = int(binary.LittleEndian.Uint32(payload[1:]))
	count := int(binary.LittleEndian.Uint32(payload[5:]))
	size := zcSlotLen
	if kind == zcIntra {
		size = mem.ObfWireSize
	} else if kind != zcInter {
		return 0, 0, nil, false
	}
	items = payload[zcHeaderLen:]
	if count == 0 || count != total>>mem.PageShift || len(items) < count*size {
		return 0, 0, nil, false
	}
	return kind, total, items[:count*size], true
}

// appendReturnedSlots appends the slots of an MZCRet payload: as many as it
// both announces and holds.
func appendReturnedSlots(dst []int32, payload []byte) []int32 {
	if len(payload) < 4 {
		return dst
	}
	count := binary.LittleEndian.Uint32(payload)
	for p := payload[4:]; count > 0 && len(p) >= zcSlotLen; count, p = count-1, p[zcSlotLen:] {
		dst = append(dst, int32(binary.LittleEndian.Uint32(p)))
	}
	return dst
}

// queueZC decodes an MZC descriptor into pending receive state. Bad
// descriptors (forged page ids) poison the socket rather than the host.
func (s *Socket) queueZC(payload []byte) {
	kind, total, items, ok := parseZC(payload)
	if !ok {
		return
	}
	z := s.zcs()
	var r zcRecv
	if n := len(z.free); n > 0 {
		r, z.free = z.free[n-1], z.free[:n-1]
	}
	r.total = total
	switch kind {
	case zcIntra:
		ids, err := s.lib.H.Mem.AppendDeobfuscated(r.ids, items)
		if err != nil {
			z.spent(r)
			return // forged descriptor: drop (isolation holds)
		}
		r.ids, r.intra = ids, true
	case zcInter:
		pool := s.side.LocalPool
		if pool == nil {
			z.spent(r)
			return
		}
		for ; len(items) > 0; items = items[zcSlotLen:] {
			slot := int32(binary.LittleEndian.Uint32(items))
			if slot < 0 || int(slot) >= len(pool.ids) {
				z.spent(r)
				return
			}
			r.ids = append(r.ids, pool.ids[slot])
			r.slots = append(r.slots, slot)
		}
	}
	z.rx = append(z.rx, r)
}

// handleZCReturn gives returned pool slots back to the sender-side
// allocator (inter-host; intra-host pages return through the kernel's
// frame refcounting).
func (s *Socket) handleZCReturn(payload []byte) {
	if _, ok := s.ep.(*rdmaEP); !ok {
		return
	}
	s.side.PoolFree = appendReturnedSlots(s.side.PoolFree, payload)
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
		return s.sendVACopy(ctx, t, addr, n, false)
	}
	if err := s.begin(ctx, t, DirSend); err != nil {
		return 0, err
	}
	defer s.end(ctx, DirSend)
	whole := n &^ (mem.PageSize - 1)
	var err error
	switch ep := s.ep.(type) {
	case *shmEP:
		err = s.zcSendIntra(ctx, addr, whole)
	case *rdmaEP:
		if ep.failed.Load() {
			// No QP to post the pages on — a dead one, or none yet: the bytes
			// take the ring, which recovery re-sends.
			return s.sendVACopy(ctx, t, addr, n, true)
		}
		err = s.zcSendInter(ctx, ep, addr, whole)
	default:
		return s.sendVACopy(ctx, t, addr, n, true)
	}
	if err != nil {
		return 0, err
	}
	s.tally(DirSend, whole)
	// Remainder rides the ring as ordinary bytes, right behind the pages, so
	// the protocol sends it (t nil: nothing sheds it). The scratch is
	// pooled: the send copies into the ring before returning, so the buffer
	// is dead — and releasable — the moment it does.
	if rem := n - whole; rem > 0 {
		pb := bufpool.Get(rem)
		err := s.lib.P.AS.Read(addr+mem.VAddr(whole), pb.B)
		if err == nil {
			_, err = s.sendBytes(ctx, nil, pb.B, true)
		}
		pb.Release()
		if err != nil {
			return whole, err
		}
	}
	return n, nil
}

func (s *Socket) zcSendIntra(ctx exec.Context, addr mem.VAddr, n int) error {
	z := s.zcs()
	ids, err := s.lib.P.AS.AppendPagesForSend(z.ids[:0], &ctx, addr, n) // COW + transfer refs (Fig. 5a step 1)
	if err != nil {
		return err
	}
	z.ids = ids
	// Step 2: obfuscated addresses.
	z.desc = s.lib.H.Mem.AppendObfuscated(appendZCHeader(z.desc[:0], zcIntra, n, len(ids)), ids)
	return s.sendMsg(ctx, MZC, z.desc, nil)
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
	z := s.zcs()
	s.side.PoolWant = need
	for w := s.poolWait(); ; {
		if cut := len(s.side.PoolFree) - need; cut >= 0 {
			z.slots = append(z.slots[:0], s.side.PoolFree[cut:]...)
			s.side.PoolFree = s.side.PoolFree[:cut]
			break
		}
		s.drainCtl(ctx)
		s.lib.pump(ctx)
		if err := w.block(ctx); err != nil {
			return err
		}
	}

	ids, err := s.lib.P.AS.AppendPagesForSend(z.ids[:0], &ctx, addr, n) // COW on sender (step 1)
	if err != nil {
		return err
	}
	z.ids = ids
	// Step 3: the NIC DMA-reads the pinned pages and writes them into the
	// peer's pool frames. No CPU copy: only the verb-post cost is charged.
	for i, id := range ids {
		fd, err := s.lib.H.Mem.FrameData(id)
		if err != nil {
			return err
		}
		ctx.Charge(s.lib.H.Costs.RDMAPost)
		if err := ep.qp.PostWrite(wrZC, fd, s.side.PoolRKey, int64(z.slots[i])*mem.PageSize, 0, false); err != nil {
			return err
		}
	}
	// Transfer refs held only for the DMA read, which happened at post.
	s.lib.H.Mem.Unref(ids)
	// Step 4: page (slot) descriptors go in-band, ordered after the data
	// on the same QP.
	z.desc = appendSlots(appendZCHeader(z.desc[:0], zcInter, n, need), z.slots)
	return s.sendMsg(ctx, MZC, z.desc, nil)
}

// sendVACopy is the copy path: read out of the address space and send as
// ordinary bytes — through Send, or, when the caller already holds the send
// token (locked), through its send loop. Scratch comes from the buffer
// pool; the send copies into the ring, so the pool gets the buffer back
// before returning.
func (s *Socket) sendVACopy(ctx exec.Context, t *host.Thread, addr mem.VAddr, n int, locked bool) (int, error) {
	// Memory admission control: send-side staging is charged against the
	// host's staging quota (Host.Admit).
	if !s.lib.H.Admit(n) {
		return 0, ENOBUFS
	}
	defer s.lib.H.Unadmit(n)
	pb := bufpool.Get(n)
	defer pb.Release()
	if err := s.lib.P.AS.Read(addr, pb.B); err != nil {
		return 0, err
	}
	if locked {
		return s.sendBytes(ctx, t, pb.B, true)
	}
	return s.Send(ctx, t, pb.B)
}

// RecvVA receives into a page-aligned buffer in the process address
// space. Zero-copy arrivals are remapped (Fig. 5 steps 3–5); byte
// arrivals are copied in.
func (s *Socket) RecvVA(ctx exec.Context, t *host.Thread, addr mem.VAddr, n int) (int, error) {
	if err := s.begin(ctx, t, DirRecv); err != nil {
		return 0, err
	}
	defer s.end(ctx, DirRecv)
	for {
		zc := s.zcQueued()
		// A receive too small or unaligned for the arrival gets it by copy.
		// One that is big enough for total has room for every page queueZC
		// let through; the last test says so again here.
		if zc {
			if z := &s.zc.rx[0]; uint64(addr)%mem.PageSize == 0 && n >= z.total && n/mem.PageSize >= len(z.ids) {
				return s.remapZC(ctx, addr)
			}
		}
		// Take bytes (or the arrival, copied), but with no arrival queued yet
		// bounce back here the moment a zero-copy descriptor surfaces.
		pb := bufpool.Get(n)
		m, err := s.recvBytes(ctx, t, pb.B, recvOp{remap: !zc})
		if err == nil && m > 0 {
			err = s.lib.P.AS.Write(&ctx, addr, pb.B[:m])
		}
		pb.Release()
		if err != nil {
			return 0, err
		}
		if m > 0 || zc {
			return m, nil
		}
	}
}

// remapZC maps the oldest zero-copy arrival's pages at addr and reads its
// sub-page tail in behind them.
func (s *Socket) remapZC(ctx exec.Context, addr mem.VAddr) (int, error) {
	z := s.zc.pop()
	total, whole := z.total, z.total&^(mem.PageSize-1)
	if err := s.lib.P.AS.MapPages(&ctx, addr, z.ids); err != nil {
		s.zc.spent(z)
		return 0, err
	}
	mZCRemaps.Inc()
	obs.Emit(s.lib.H.Name, int64(s.lib.P.PID), obs.EvZCRemap, 0, ctx.Now(), int64(len(z.ids)), 0)
	if !z.intra && s.side.LocalPool != nil {
		// The received frames now belong to the application; put fresh
		// pinned pages into their slots and hand the slots straight back to
		// the sender (per-recv page allocation, §4.3 — one batched remap
		// worth of cost). The mapping has taken the old frames over, so
		// z.ids is free to list the fresh ones.
		pool := s.side.LocalPool
		z.ids = pool.as.FreshFrames(z.ids[:0], len(z.slots))
		s.lib.H.Mem.Pin(nil, z.ids)
		for i, slot := range z.slots {
			pool.ids[slot] = z.ids[i]
			pool.mr.SwapFrame(int(slot), z.ids[i])
		}
		ctx.Charge(s.lib.H.Costs.MapCost(len(z.slots)))
		s.queueSlotReturns(ctx, z.slots)
	}
	s.zc.spent(z)
	// The sub-page tail was sent as MData right behind the MZC.
	var err error
	if rem := total - whole; rem > 0 {
		pb := bufpool.Get(rem)
		if _, err = s.recvExactly(ctx, pb.B); err == nil {
			err = s.lib.P.AS.Write(&ctx, addr+mem.VAddr(whole), pb.B)
		}
		pb.Release()
		if err != nil {
			total = whole
		}
	}
	s.tally(DirRecv, total)
	return total, err
}

// queueSlotReturns ships freed slots back to the sender if this thread
// holds the send token, deferring otherwise (single-sender discipline).
func (s *Socket) queueSlotReturns(ctx exec.Context, slots []int32) {
	s.side.PendingReturns = append(s.side.PendingReturns, slots...)
	s.flushSlotReturns(ctx)
}

// flushSlotReturns must only run with the send token held (or during
// connection teardown when no one else can send).
func (s *Socket) flushSlotReturns(ctx exec.Context) {
	if len(s.side.PendingReturns) == 0 {
		return
	}
	z := s.zcs()
	msg := appendZCReturn(z.ret[:0], s.side.PendingReturns)
	z.ret = nil
	s.side.PendingReturns = s.side.PendingReturns[:0]
	err := s.sendMsg(ctx, MZCRet, msg, nil)
	if err != nil {
		s.side.PendingReturns = appendReturnedSlots(s.side.PendingReturns, msg)
	}
	z.ret = msg
}

// materializeZC copies a queued zero-copy arrival into a plain byte
// buffer (the byte API cannot remap, §4.3's "smaller messages are copied"
// degenerate case).
func (s *Socket) materializeZC(ctx exec.Context, buf []byte) (int, error) {
	z := &s.zc.rx[0]
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
	r := s.zc.pop()
	if r.intra {
		s.lib.H.Mem.Unref(r.ids) // transfer refs die here
	} else if _, ok := s.ep.(*rdmaEP); ok {
		s.queueSlotReturns(ctx, r.slots)
	}
	s.zc.spent(r)
	n := copy(buf, out)
	if n < len(out) {
		s.rxPending = append(s.rxPending[:0], out[n:]...)
	}
	pb.Release()
	s.tally(DirRecv, n)
	return n, nil
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
		if msg, ok := s.ep.tryRecv(ctx); ok {
			_, n, _ := s.dispatchMsg(msg, buf[got:])
			got += n
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
		msg, ok := s.ep.tryRecv(ctx)
		if !ok {
			return
		}
		s.dispatchMsg(msg, nil)
	}
}
