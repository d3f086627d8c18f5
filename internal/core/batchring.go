package core

import (
	"io"

	"socksdirect/internal/exec"
	"socksdirect/internal/host"
	"socksdirect/internal/shm"
)

// This file is the vectored op path (sendmmsg/recvmmsg flavor): an
// io_uring-style submission/completion ring between the application
// thread and libsd. A batch pays the per-op overhead once — one token
// check (§4.1), one busy-counter round trip, one obs flow-table update,
// one ops-counter add, one receiver wakeup, and one ring doorbell (SHM
// tail store / RDMA write post) — instead of once per message, which is
// where the paper's amortization argument (§4.2) actually lives.

// BatchMax is the submission/completion ring depth: the largest number
// of messages one submission window moves before completions are reaped.
// Larger SendBatch/RecvBatch calls run as consecutive windows. The fixed
// arrays below keep the batch path free of per-op allocation.
const BatchMax = 64

// batchSQE is one staged submission: the buffer to send from or receive
// into.
type batchSQE struct {
	buf []byte
}

// batchCQE is one completion: bytes moved and the error (if any) for the
// matching submission.
type batchCQE struct {
	n   int
	err error
}

// batchRing is a socket's per-direction submission/completion pair. It is
// owned by whichever thread holds that direction's token (§4.1 serializes
// them), so no field needs synchronization. The recv side additionally
// stages multi-pop message views from the transport; Payload views in
// msgs alias ring storage and are consumed before the next pop.
type batchRing struct {
	sq [BatchMax]batchSQE
	cq [BatchMax]batchCQE

	msgs  [BatchMax]shm.Msg // staged arrivals from one vectored pop
	mhead int
	mlen  int
}

// sendBatchRing lazily allocates the send-side ring. Called with the send
// token held, so the one-time allocation needs no synchronization.
func (s *Socket) sendBatchRing() *batchRing {
	if s.sendBR == nil {
		s.sendBR = new(batchRing)
	}
	return s.sendBR
}

func (s *Socket) recvBatchRing() *batchRing {
	if s.recvBR == nil {
		s.recvBR = new(batchRing)
	}
	return s.recvBR
}

// SendBatch transmits the buffers as consecutive messages, amortizing
// token acquisition, flow accounting, telemetry and the transport
// doorbell across the whole batch. It blocks until at least the first
// message is in the ring; after that it is opportunistic — a full ring
// ends the batch early with a short count and a nil error (sendmmsg
// semantics), and the caller resubmits the tail. Each buffer becomes one
// message when it fits maxInline; larger buffers are segmented like Send
// (their continuation chunks may block so the stream framing is never
// torn). The returned count is fully sent buffers.
func (s *Socket) SendBatch(ctx exec.Context, t *host.Thread, bufs [][]byte) (int, error) {
	s.lib.enter()
	defer s.lib.leave()
	if s.lib.P.Dead() {
		return 0, ErrProcessKilled
	}
	if len(bufs) == 0 {
		return 0, nil
	}
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

	br := s.sendBatchRing()
	sent := 0
	var bytes int64
	var err error
	for sent < len(bufs) {
		n := len(bufs) - sent
		if n > BatchMax {
			n = BatchMax
		}
		for i := 0; i < n; i++ {
			br.sq[i] = batchSQE{buf: bufs[sent+i]}
		}
		var done int
		done, err = s.submitSend(ctx, t, br, n, sent == 0)
		for i := 0; i < done; i++ {
			bytes += int64(br.cq[i].n)
		}
		sent += done
		if err != nil || done < n {
			break
		}
	}
	mSendOps.Add(int64(sent))
	mSendBytes.Add(bytes)
	s.flow.AddTxN(int64(sent), bytes)
	return sent, err
}

// submitSend runs one submission window: it opens a transport burst,
// walks the staged entries in order, and writes a completion per entry.
// blockFirst makes entry 0 wait for ring space; later entries stop the
// window on a full ring (partial batch). A pending token revocation is
// honored at entry boundaries: the staged burst is published first so
// the contender never waits behind invisible bytes.
func (s *Socket) submitSend(ctx exec.Context, t *host.Thread, br *batchRing, n int, blockFirst bool) (int, error) {
	b, _ := s.ep.(burster)
	if b != nil {
		b.burstBegin()
	}
	me := int64(s.lib.GTIDOf(t))
	holder, ret := s.tokenVars(DirSend)
	done := 0
	var err error
	for done < n {
		if done > 0 && (ret.Load() || holder.Load() != me) {
			if b != nil {
				b.burstEnd(ctx)
			}
			s.ep.kick(ctx)
			s.maybeHandBack(ctx, DirSend)
			if err = s.acquireToken(ctx, t, DirSend); err != nil {
				break
			}
			if b != nil {
				b.burstBegin()
			}
		}
		data := br.sq[done].buf
		moved := 0
		full := false
		for chunk := 0; len(data) > 0; chunk++ {
			c := len(data)
			if c > maxInline {
				c = maxInline
			}
			if (blockFirst && done == 0) || chunk > 0 {
				if err = s.sendMsgT(ctx, t, MData, data[:c], nil); err != nil {
					break
				}
			} else if !s.trySend(ctx, MData, data[:c], nil) {
				full = true
				break
			}
			host.CountCopy(c)
			ctx.Charge(s.lib.H.Costs.CopyCost(c))
			data = data[c:]
			moved += c
		}
		if err != nil || full {
			break
		}
		br.cq[done] = batchCQE{n: moved}
		done++
	}
	if b != nil {
		b.burstEnd(ctx)
	}
	s.ep.kick(ctx) // one wakeup for the whole window
	return done, err
}

// RecvBatch fills the buffers with consecutive messages, recvmmsg-style:
// it blocks until the first buffer has bytes, then drains whatever is
// already available without blocking and returns the filled count. Each
// buffer gets at most one ring message's bytes (a message larger than
// its buffer spills to the next buffer, preserving the byte stream). If
// lens is non-nil, lens[i] receives buffer i's byte count. Per-op
// overhead — token, busy counters, flow-table update, telemetry, ring
// credit bookkeeping — is paid once per batch via the vectored pop.
func (s *Socket) RecvBatch(ctx exec.Context, t *host.Thread, bufs [][]byte, lens []int) (int, error) {
	s.lib.enter()
	defer s.lib.leave()
	if s.lib.P.Dead() {
		return 0, ErrProcessKilled
	}
	if len(bufs) == 0 {
		return 0, nil
	}
	if err := s.acquireToken(ctx, t, DirRecv); err != nil {
		return 0, err
	}
	defer s.maybeHandBack(ctx, DirRecv)
	s.side.BusyRecv.Add(1)
	defer s.side.BusyRecv.Add(-1)

	br := s.recvBatchRing()
	filled := 0
	var bytes int64
	var err error
	for filled < len(bufs) {
		n, derr := s.recvBatchOne(ctx, t, br, bufs[filled], filled == 0, len(bufs)-filled)
		if derr != nil {
			if filled == 0 {
				err = derr
			}
			// filled > 0: the condition is latched (RxShut); the next
			// call re-surfaces it, preserving exactly-once errno order.
			break
		}
		if n < 0 {
			break // nothing more available; opportunistic tail ends
		}
		if lens != nil && filled < len(lens) {
			lens[filled] = n
		}
		bytes += int64(n)
		filled++
	}
	s.drainStaged(ctx, br)
	mRecvOps.Add(int64(filled))
	mRecvBytes.Add(bytes)
	s.flow.AddRxN(int64(filled), bytes)
	return filled, err
}

// recvBatchOne delivers the next message's bytes into buf. It returns
// -1 when nothing is available and block is false. remaining caps the
// vectored pop so a batch never stages more messages than it has buffers
// left (staged views must not outlive the call; see drainStaged).
func (s *Socket) recvBatchOne(ctx exec.Context, t *host.Thread, br *batchRing, buf []byte, block bool, remaining int) (int, error) {
	for {
		if len(s.rxPending) > 0 {
			n := copy(buf, s.rxPending)
			s.rxPending = s.rxPending[n:]
			host.CountCopy(n)
			ctx.Charge(s.lib.H.Costs.CopyCost(n))
			return n, nil
		}
		if s.zcQueued() {
			return s.materializeZC(ctx, buf)
		}
		if br.mlen == 0 {
			br.mhead = 0
			cap := remaining
			if cap > BatchMax {
				cap = BatchMax
			}
			if b, ok := s.ep.(burster); ok {
				br.mlen = b.tryRecvN(ctx, br.msgs[:cap])
			} else if msg, ok := s.ep.tryRecv(ctx); ok {
				br.msgs[0], br.mlen = msg, 1
			}
			if br.mlen == 0 {
				if s.side.RxShut.Load() {
					return 0, io.EOF
				}
				if !block {
					return -1, nil
				}
				w := s.recvWait(t)
				if err := s.awaitRecv(ctx, &w); err != nil {
					return 0, err
				}
				continue
			}
		}
		msg := br.msgs[br.mhead]
		br.mhead++
		br.mlen--
		if msg.Type == MData {
			n := copy(buf, msg.Payload)
			if n < len(msg.Payload) {
				s.rxPending = append(s.rxPending[:0], msg.Payload[n:]...)
			}
			host.CountCopy(n)
			ctx.Charge(s.lib.H.Costs.CopyCost(n))
			return n, nil
		}
		var scratch [1]byte
		if done, _, derr := s.dispatchMsg(ctx, msg, scratch[:0]); done {
			return 0, derr // MShut -> io.EOF (latched in RxShut)
		}
	}
}

// drainStaged empties any staged-but-undelivered arrivals before
// RecvBatch returns: the views alias ring storage and would be
// invalidated by the next single-message Recv. Data bytes move to
// rxPending (stream order preserved); control messages dispatch now.
// This only runs when an oversized message spilled mid-batch, so the
// copy is rare.
func (s *Socket) drainStaged(ctx exec.Context, br *batchRing) {
	for br.mlen > 0 {
		msg := br.msgs[br.mhead]
		br.mhead++
		br.mlen--
		if msg.Type == MData {
			s.rxPending = append(s.rxPending, msg.Payload...)
			continue
		}
		var scratch [1]byte
		s.dispatchMsg(ctx, msg, scratch[:0])
	}
}
