package core_test

import (
	"errors"
	"io"
	"testing"

	"socksdirect/internal/core"
	"socksdirect/internal/exec"
	"socksdirect/internal/host"
	"socksdirect/internal/monitor"
	"socksdirect/internal/obs"
)

// TestSendBatchPartialOnFullRing drives SendBatch into a non-draining
// receiver: the batch must end early with a short count and a nil error
// (sendmmsg semantics), the receiver must then drain exactly the
// delivered prefix in order, and the ring must hold nothing beyond it.
func TestSendBatchPartialOnFullRing(t *testing.T) {
	w := newWorld(t)
	sp, sl := proc(t, w.a, "server", 0)
	cp, clib := proc(t, w.a, "client", 1000)

	const n, size = 64, 4096 // 256 KiB total vs the 128 KiB ring
	var sentK int
	var drained, gotEnd bool
	sp.Spawn("srv", func(ctx exec.Context, th *host.Thread) {
		lst, _ := sl.ListenOn(ctx, th, 7400)
		s, _, err := lst.Accept(ctx)
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		for sentK == 0 {
			ctx.Sleep(5_000) // hold off draining until the batch ended short
		}
		buf := make([]byte, size)
		for i := 0; i < sentK; i++ {
			m, err := s.Recv(ctx, th, buf)
			if err != nil {
				t.Errorf("drain recv %d: %v", i, err)
				return
			}
			if m != size {
				t.Errorf("message %d: got %d bytes, want %d", i, m, size)
				return
			}
			for _, b := range buf[:m] {
				if b != byte(i) {
					t.Errorf("message %d: wrong fill byte %#x", i, b)
					return
				}
			}
		}
		drained = true
		// The very next bytes must be the client's post-drain marker: the
		// short batch left nothing staged or half-sent behind.
		m, err := s.Recv(ctx, th, buf)
		if err != nil || string(buf[:m]) != "END" {
			t.Errorf("marker after drain: %q err %v", buf[:m], err)
			return
		}
		gotEnd = true
	})
	cp.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
		ctx.Sleep(10_000)
		s, _, err := clib.Connect(ctx, th, "hostA", 7400)
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		bufs := make([][]byte, n)
		for i := range bufs {
			bufs[i] = make([]byte, size)
			for j := range bufs[i] {
				bufs[i][j] = byte(i)
			}
		}
		k, err := s.SendBatch(ctx, th, bufs)
		if err != nil {
			t.Errorf("SendBatch: %v", err)
			return
		}
		if k <= 0 || k >= n {
			t.Errorf("SendBatch on full ring: k=%d, want 0<k<%d", k, n)
			return
		}
		sentK = k
		for !drained {
			ctx.Sleep(5_000)
		}
		if _, err := s.Send(ctx, th, []byte("END")); err != nil {
			t.Errorf("marker send: %v", err)
		}
	})
	w.sim.Run()
	if sentK == 0 || !drained || !gotEnd {
		t.Fatalf("partial-batch flow incomplete: k=%d drained=%v end=%v", sentK, drained, gotEnd)
	}
}

// TestSendBatchPeerCrash kills the receiver mid-stream: the batch that
// hits the crash surfaces exactly one ECONNRESET (possibly after a
// partial count), and every batch after it fails EPIPE.
func TestSendBatchPeerCrash(t *testing.T) {
	w := newWorld(t)
	sp, sl := proc(t, w.a, "server", 0)
	cp, clib := proc(t, w.a, "client", 0)

	sp.Spawn("srv", func(ctx exec.Context, th *host.Thread) {
		lst, _ := sl.ListenOn(ctx, th, 7401)
		if _, _, err := lst.Accept(ctx); err != nil {
			t.Errorf("accept: %v", err)
		}
		// Never receives; dies while the client's batches fill the ring.
	})
	var batchErr, nextErr error
	cp.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
		ctx.Sleep(10_000)
		s, _, err := clib.Connect(ctx, th, "hostA", 7401)
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		bufs := make([][]byte, 8)
		for i := range bufs {
			bufs[i] = make([]byte, 4096)
		}
		for {
			if _, batchErr = s.SendBatch(ctx, th, bufs); batchErr != nil {
				break
			}
		}
		_, nextErr = s.SendBatch(ctx, th, bufs)
	})
	cp.Spawn("killer", func(ctx exec.Context, th *host.Thread) {
		ctx.Sleep(500_000) // the ring is long full; the sender is blocked
		sp.Signal(ctx, host.SIGKILL)
	})
	w.sim.Run()
	if !errors.Is(batchErr, core.ECONNRESET) {
		t.Fatalf("batch hitting the crash: want ECONNRESET, got %v", batchErr)
	}
	if !errors.Is(nextErr, core.EPIPE) {
		t.Fatalf("batch after reset consumed: want EPIPE, got %v", nextErr)
	}
}

// TestRecvBatchPeerCrash is the receive side: messages already in the
// ring when the sender dies are delivered first (batched), then exactly
// one ECONNRESET, then io.EOF — the kernel TCP errno order, vectored.
func TestRecvBatchPeerCrash(t *testing.T) {
	w := newWorld(t)
	sp, sl := proc(t, w.a, "server", 0)
	cp, clib := proc(t, w.a, "client", 0)

	const msgs, size = 8, 1024
	var got int
	var resetErr, eofErr error
	sp.Spawn("srv", func(ctx exec.Context, th *host.Thread) {
		lst, _ := sl.ListenOn(ctx, th, 7402)
		s, _, err := lst.Accept(ctx)
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		ctx.Sleep(400_000) // the client has sent everything and died
		bufs := make([][]byte, msgs)
		lens := make([]int, msgs)
		for i := range bufs {
			bufs[i] = make([]byte, size)
		}
		for got < msgs {
			n, err := s.RecvBatch(ctx, th, bufs[got:], lens[got:])
			if err != nil {
				t.Errorf("drain RecvBatch after %d msgs: %v", got, err)
				return
			}
			for i := 0; i < n; i++ {
				if lens[got+i] != size {
					t.Errorf("message %d: %d bytes, want %d", got+i, lens[got+i], size)
					return
				}
			}
			got += n
		}
		_, resetErr = s.RecvBatch(ctx, th, bufs, lens)
		_, eofErr = s.RecvBatch(ctx, th, bufs, lens)
	})
	cp.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
		ctx.Sleep(10_000)
		s, _, err := clib.Connect(ctx, th, "hostA", 7402)
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		payload := make([]byte, size)
		for i := 0; i < msgs; i++ {
			if _, err := s.Send(ctx, th, payload); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
		}
		ctx.Sleep(50_000)
		cp.Signal(ctx, host.SIGKILL)
	})
	w.sim.Run()
	if got != msgs {
		t.Fatalf("drained %d messages before errno, want %d", got, msgs)
	}
	if !errors.Is(resetErr, core.ECONNRESET) {
		t.Fatalf("first empty RecvBatch after crash: want ECONNRESET, got %v", resetErr)
	}
	if eofErr != io.EOF {
		t.Fatalf("RecvBatch after reset consumed: want io.EOF, got %v", eofErr)
	}
}

// sumTakeovers totals the flow table's takeover counters (the table is
// global; callers diff before/after).
func sumTakeovers() int64 {
	var n int64
	for _, f := range obs.Flows() {
		n += f.Takeovers
	}
	return n
}

// TestSendBatchTokenTakeover runs large batches on one thread while a
// second thread of the same process contends with single sends: the
// monitor-brokered takeover must interleave them without losing or
// duplicating a byte, and submitSend's entry-boundary revocation check
// must actually hand the token over mid-batch.
func TestSendBatchTokenTakeover(t *testing.T) {
	w := newWorld(t)
	sp, sl := proc(t, w.a, "server", 0)
	cp, clib := proc(t, w.a, "client", 0)

	const (
		batchRounds, batchN, batchSize = 12, 32, 2048 // thread 1: 0xA5 fill
		singleRounds, singleSize       = 48, 512      // thread 2: 0x5A fill
	)
	wantBatch := batchRounds * batchN * batchSize
	wantSingle := singleRounds * singleSize
	before := sumTakeovers()

	var gotBatch, gotSingle int
	sp.Spawn("srv", func(ctx exec.Context, th *host.Thread) {
		lst, _ := sl.ListenOn(ctx, th, 7403)
		s, _, err := lst.Accept(ctx)
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		buf := make([]byte, batchSize)
		for gotBatch < wantBatch || gotSingle < wantSingle {
			n, err := s.Recv(ctx, th, buf)
			if err != nil {
				t.Errorf("recv: %v", err)
				return
			}
			switch buf[0] {
			case 0xA5:
				gotBatch += n
			case 0x5A:
				gotSingle += n
			default:
				t.Errorf("unknown fill byte %#x", buf[0])
				return
			}
		}
	})
	var sock *core.Socket
	cp.Spawn("batcher", func(ctx exec.Context, th *host.Thread) {
		ctx.Sleep(10_000)
		s, _, err := clib.Connect(ctx, th, "hostA", 7403)
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		sock = s
		bufs := make([][]byte, batchN)
		for i := range bufs {
			bufs[i] = make([]byte, batchSize)
			for j := range bufs[i] {
				bufs[i][j] = 0xA5
			}
		}
		for r := 0; r < batchRounds; r++ {
			for sent := 0; sent < batchN; {
				n, err := s.SendBatch(ctx, th, bufs[sent:])
				if err != nil {
					t.Errorf("SendBatch round %d: %v", r, err)
					return
				}
				sent += n
			}
		}
	})
	cp.Spawn("contender", func(ctx exec.Context, th *host.Thread) {
		for sock == nil {
			ctx.Sleep(5_000)
		}
		payload := make([]byte, singleSize)
		for i := range payload {
			payload[i] = 0x5A
		}
		for i := 0; i < singleRounds; i++ {
			if _, err := sock.Send(ctx, th, payload); err != nil {
				t.Errorf("contending send %d: %v", i, err)
				return
			}
			ctx.Sleep(2_000)
		}
	})
	w.sim.Run()
	if gotBatch != wantBatch || gotSingle != wantSingle {
		t.Fatalf("byte totals: batch %d/%d single %d/%d",
			gotBatch, wantBatch, gotSingle, wantSingle)
	}
	if d := sumTakeovers() - before; d <= 0 {
		t.Fatalf("no token takeovers recorded (delta %d); contention never exercised the mid-batch revocation path", d)
	}
}

// TestBatchTakesTokenFromIdleHolder: a contender takes the send token from
// the middle of a batch, sends once and goes idle outside the library while
// still holding it; the batch asks for it back at its next entry, and the
// revocation reaches the contender's process only after the contender's last
// boundary. The batching thread, inside the library, receives it and must
// return the token on the idle holder's behalf — which a busy mark of its
// own, held across the wait, would forbid forever: the batch would end at
// its deadline.
func TestBatchTakesTokenFromIdleHolder(t *testing.T) {
	w := boundaryWorld(t)
	sp, sl := proc(t, w.a, "server", 0)
	cp, cl := proc(t, w.a, "client", 0)
	const batchN, size = 32, 2048 // 220 sim-ns an entry
	sp.Spawn("srv", func(ctx exec.Context, th *host.Thread) {
		lst, _ := sl.ListenOn(ctx, th, 7404)
		lst.Accept(ctx) // holds the connection; the ring has room for it all
	})
	var sock *core.Socket
	var start int64
	done := false
	cp.Spawn("batcher", func(ctx exec.Context, th *host.Thread) {
		ctx.Sleep(10_000)
		s, _, err := cl.Connect(ctx, th, "hostA", 7404)
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		bufs := make([][]byte, batchN)
		for i := range bufs {
			bufs[i] = make([]byte, size)
		}
		sock, start = s, ctx.Now()
		s.SetSendDeadline(start + 1_000_000)
		for sent := 0; sent < batchN; {
			n, err := s.SendBatch(ctx, th, bufs[sent:])
			if err != nil {
				t.Errorf("SendBatch after %d entries: %v", sent, err)
				return
			}
			sent += n
		}
		done = true
		sp.Signal(ctx, host.SIGKILL)
	})
	cp.Spawn("contender", func(ctx exec.Context, th *host.Thread) {
		for sock == nil {
			ctx.Sleep(100)
		}
		ctx.Sleep(start + 2_000 - ctx.Now()) // a few entries into the batch
		if _, err := sock.Send(ctx, th, make([]byte, 512)); err != nil {
			t.Errorf("contending send: %v", err)
		}
		ctx.Sleep(100_000_000) // idle, holding the token
	})
	w.sim.Run()
	if !done {
		t.Fatal("the batch did not finish")
	}
}

// TestBatchAcrossMonitorRestart keeps batched traffic flowing while the
// host's monitor is stopped and a successor started: the data path (shm
// ring + doorbells) needs no daemon, so the stream must stay byte-exact,
// and a contended takeover during the outage must surface as retryable
// EAGAIN rather than hanging or corrupting the stream.
func TestBatchAcrossMonitorRestart(t *testing.T) {
	w := newWorld(t)
	sp, sl := proc(t, w.a, "server", 0)
	cp, clib := proc(t, w.a, "client", 0)

	const (
		batchRounds, batchN, batchSize = 60, 16, 512 // 0xA5 fill
		singleRounds, singleSize       = 30, 256     // 0x5A fill
	)
	wantBatch := batchRounds * batchN * batchSize
	wantSingle := singleRounds * singleSize

	var gotBatch, gotSingle int
	sp.Spawn("srv", func(ctx exec.Context, th *host.Thread) {
		lst, _ := sl.ListenOn(ctx, th, 7404)
		s, _, err := lst.Accept(ctx)
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		bufs := make([][]byte, batchN)
		lens := make([]int, batchN)
		for i := range bufs {
			bufs[i] = make([]byte, batchSize)
		}
		for gotBatch < wantBatch || gotSingle < wantSingle {
			n, err := s.RecvBatch(ctx, th, bufs, lens)
			if err != nil {
				t.Errorf("RecvBatch: %v", err)
				return
			}
			for i := 0; i < n; i++ {
				switch bufs[i][0] {
				case 0xA5:
					gotBatch += lens[i]
				case 0x5A:
					gotSingle += lens[i]
				default:
					t.Errorf("unknown fill byte %#x", bufs[i][0])
					return
				}
			}
		}
	})
	var sock *core.Socket
	cp.Spawn("batcher", func(ctx exec.Context, th *host.Thread) {
		ctx.Sleep(10_000)
		s, _, err := clib.Connect(ctx, th, "hostA", 7404)
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		sock = s
		bufs := make([][]byte, batchN)
		for i := range bufs {
			bufs[i] = make([]byte, batchSize)
			for j := range bufs[i] {
				bufs[i][j] = 0xA5
			}
		}
		for r := 0; r < batchRounds; r++ {
			for sent := 0; sent < batchN; {
				n, err := s.SendBatch(ctx, th, bufs[sent:])
				if err != nil {
					t.Errorf("SendBatch round %d: %v", r, err)
					return
				}
				sent += n
			}
			ctx.Sleep(5_000) // stretch the stream across the outage window
		}
	})
	cp.Spawn("contender", func(ctx exec.Context, th *host.Thread) {
		for sock == nil {
			ctx.Sleep(5_000)
		}
		payload := make([]byte, singleSize)
		for i := range payload {
			payload[i] = 0x5A
		}
		for i := 0; i < singleRounds; i++ {
			for {
				_, err := sock.Send(ctx, th, payload)
				if err == nil {
					break
				}
				if !errors.Is(err, core.EAGAIN) {
					t.Errorf("contending send %d: %v", i, err)
					return
				}
				ctx.Sleep(10_000) // monitor down; takeover is retryable
			}
			ctx.Sleep(4_000)
		}
	})
	var ma2 *monitor.Monitor
	w.sim.Spawn("restart-ctl", func(ctx exec.Context) {
		ctx.Sleep(80_000)
		w.ma.Stop()
		ctx.Sleep(120_000)
		ma2 = monitor.Restart(w.a)
	})
	w.sim.Run()
	if gotBatch != wantBatch || gotSingle != wantSingle {
		t.Fatalf("byte totals across restart: batch %d/%d single %d/%d",
			gotBatch, wantBatch, gotSingle, wantSingle)
	}
	if ma2 == nil {
		t.Fatal("restart controller never ran")
	}
}
