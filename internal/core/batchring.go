package core

import (
	"socksdirect/internal/exec"
	"socksdirect/internal/host"
	"socksdirect/internal/shm"
)

// This file is the vectored op path (sendmmsg/recvmmsg flavor). A batch
// opens and closes like every data operation, through begin and end, and
// moves its buffers through the same send and receive loops; what it pays
// once instead of once per message is the token check (§4.1), the busy
// mark, the obs flow-table update, the ops-counter add, the receiver
// wakeup and the ring doorbell (SHM tail store / RDMA write post) — where
// the paper's amortization argument (§4.2) actually lives.

// BatchMax is the most buffers one doorbell publishes on the send side,
// and the most messages one vectored pop stages on the receive side.
// Larger SendBatch/RecvBatch calls run in consecutive windows; the fixed
// staging array keeps the batch path free of per-op allocation.
const BatchMax = 64

// recvStage holds the arrivals of one vectored pop that RecvBatch has not
// delivered yet. It belongs to the receive token's holder. The Payload views
// alias ring storage: RecvBatch hands what is left to drainStaged before it
// returns.
type recvStage struct {
	msgs [BatchMax]shm.Msg
	head int
	n    int
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
	if len(bufs) == 0 {
		return 0, nil
	}
	if err := s.begin(ctx, t, DirSend); err != nil {
		return 0, err
	}
	defer s.end(DirSend)
	sent := 0
	for sent < len(bufs) {
		window := bufs[sent:min(len(bufs), sent+BatchMax)]
		done, err := s.submitSend(ctx, t, window, sent == 0)
		sent += done
		if err != nil || done < len(window) {
			return sent, err
		}
	}
	return sent, nil
}

// submitSend sends one window of buffers behind one transport burst and
// returns how many went whole. blockFirst makes buffer 0 wait for ring
// space; a later buffer that finds the ring full ends the window (partial
// batch). A pending token revocation is honored at buffer boundaries: the
// staged burst is published first so the contender never waits behind
// invisible bytes.
func (s *Socket) submitSend(ctx exec.Context, t *host.Thread, bufs [][]byte, blockFirst bool) (int, error) {
	b, _ := s.ep.(burster)
	if b != nil {
		b.burstBegin()
	}
	me := int64(s.lib.GTIDOf(t))
	holder, ret := &s.side.Holder[DirSend], &s.side.ReturnReq[DirSend]
	done := 0
	var err error
	for ; done < len(bufs); done++ {
		if done > 0 && (ret.Load() || holder.Load() != me) {
			if b != nil {
				b.burstEnd(ctx)
			}
			s.ep.kick(ctx)
			s.maybeHandBack(DirSend)
			if err = s.reacquireToken(ctx, t, DirSend); err != nil {
				break
			}
			if b != nil {
				b.burstBegin()
			}
		}
		var n int
		if n, err = s.sendBytes(ctx, t, bufs[done], blockFirst && done == 0); err != nil || n < len(bufs[done]) {
			break
		}
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
	if len(bufs) == 0 {
		return 0, nil
	}
	if err := s.begin(ctx, t, DirRecv); err != nil {
		return 0, err
	}
	defer s.end(DirRecv)
	filled := 0
	var err error
	for filled < len(bufs) {
		n, rerr := s.recvBytes(ctx, t, bufs[filled], recvOp{stage: len(bufs) - filled, poll: filled > 0})
		if rerr != nil {
			if filled == 0 {
				err = rerr
			}
			// filled > 0: the condition is latched (rxShut); the next
			// call re-surfaces it, preserving exactly-once errno order.
			break
		}
		if n < 0 {
			break // nothing more available; opportunistic tail ends
		}
		if lens != nil && filled < len(lens) {
			lens[filled] = n
		}
		filled++
	}
	s.drainStaged()
	return filled, err
}

// pop takes the next message off the receive ring: one per look, or, with
// stage > 0, out of the staging array, which one vectored pop of up to
// stage messages refills when it runs dry.
func (s *Socket) pop(ctx exec.Context, stage int) (shm.Msg, bool) {
	if stage == 0 {
		return s.ep.tryRecv(ctx)
	}
	if s.stage == nil {
		s.stage = new(recvStage) // with the receive token held: no race
	}
	st := s.stage
	if st.n == 0 {
		st.head = 0
		if b, ok := s.ep.(burster); ok {
			st.n = b.tryRecvN(ctx, st.msgs[:min(stage, BatchMax)])
		} else if msg, ok := s.ep.tryRecv(ctx); ok {
			st.msgs[0], st.n = msg, 1
		}
		if st.n == 0 {
			return shm.Msg{}, false
		}
	}
	st.head++
	st.n--
	return st.msgs[st.head-1], true
}

// drainStaged empties the staging array before RecvBatch returns: the
// views alias ring storage and would be invalidated by the next
// single-message Recv. Data bytes move to rxPending (stream order
// preserved); control messages dispatch now. This only runs when an
// oversized message spilled mid-batch, so the copy is rare.
func (s *Socket) drainStaged() {
	for st := s.stage; st != nil && st.n > 0; st.n-- {
		s.dispatchMsg(st.msgs[st.head], nil)
		st.head++
	}
}
