package core_test

import (
	"errors"
	"testing"

	"socksdirect/internal/core"
	"socksdirect/internal/exec"
	"socksdirect/internal/host"
	"socksdirect/internal/mem"
	"socksdirect/internal/obs"
	"socksdirect/internal/telemetry"
)

// TestEveryDataOpRefusesAKilledProcess: each of the six data operations
// opens the same way, so a thread of a SIGKILLed process gets
// ErrProcessKilled from every one of them — the zero-copy ones included —
// and after Shutdown(DirSend) every send operation gets ErrShutdown.
func TestEveryDataOpRefusesAKilledProcess(t *testing.T) {
	const zcBytes = 64 * 1024 // the remap path of SendVA and RecvVA
	type op func(ctx exec.Context, th *host.Thread, s *core.Socket, addr mem.VAddr) (int, error)
	buf := make([]byte, 64)
	ops := []struct {
		name string
		send bool
		run  op
	}{
		{"Send", true, func(ctx exec.Context, th *host.Thread, s *core.Socket, _ mem.VAddr) (int, error) {
			return s.Send(ctx, th, buf)
		}},
		{"SendBatch", true, func(ctx exec.Context, th *host.Thread, s *core.Socket, _ mem.VAddr) (int, error) {
			return s.SendBatch(ctx, th, [][]byte{buf, buf})
		}},
		{"SendVA", true, func(ctx exec.Context, th *host.Thread, s *core.Socket, addr mem.VAddr) (int, error) {
			return s.SendVA(ctx, th, addr, zcBytes)
		}},
		{"Recv", false, func(ctx exec.Context, th *host.Thread, s *core.Socket, _ mem.VAddr) (int, error) {
			return s.Recv(ctx, th, buf)
		}},
		{"RecvBatch", false, func(ctx exec.Context, th *host.Thread, s *core.Socket, _ mem.VAddr) (int, error) {
			return s.RecvBatch(ctx, th, [][]byte{buf, buf}, nil)
		}},
		{"RecvVA", false, func(ctx exec.Context, th *host.Thread, s *core.Socket, addr mem.VAddr) (int, error) {
			return s.RecvVA(ctx, th, addr, zcBytes)
		}},
	}
	// run connects a client intra-host, lets prepare act on the new socket
	// 1 µs later, and calls o 10 µs after that.
	run := func(t *testing.T, port uint16, o op, prepare func(ctx exec.Context, th *host.Thread, cp *host.Process, s *core.Socket)) (int, error) {
		w := newWorld(t)
		sp, sl := proc(t, w.a, "server", 0)
		cp, clib := proc(t, w.a, "client", 0)
		sp.Spawn("srv", func(ctx exec.Context, th *host.Thread) {
			lst, _ := sl.ListenOn(ctx, th, port)
			if _, _, err := lst.Accept(ctx); err != nil {
				t.Errorf("accept: %v", err)
			}
		})
		n, err := -1, error(nil)
		cp.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
			ctx.Sleep(10_000)
			s, _, cerr := clib.Connect(ctx, th, "hostA", port)
			if cerr != nil {
				t.Errorf("connect: %v", cerr)
				return
			}
			addr := clib.P.AS.Alloc(zcBytes)
			clib.P.AS.Write(ctx, addr, make([]byte, zcBytes))
			ctx.Sleep(1_000)
			prepare(ctx, th, cp, s)
			ctx.Sleep(10_000)
			n, err = o(ctx, th, s, addr)
		})
		w.sim.Run()
		return n, err
	}
	kill := func(ctx exec.Context, _ *host.Thread, cp *host.Process, _ *core.Socket) {
		cp.Signal(ctx, host.SIGKILL)
	}
	shut := func(ctx exec.Context, th *host.Thread, _ *host.Process, s *core.Socket) {
		s.Shutdown(ctx, th, core.DirSend)
	}
	for i, o := range ops {
		t.Run(o.name+"/killed", func(t *testing.T) {
			if n, err := run(t, uint16(7600+i), o.run, kill); n != 0 || !errors.Is(err, core.ErrProcessKilled) {
				t.Fatalf("%s in a killed process: (%d, %v), want (0, ErrProcessKilled)", o.name, n, err)
			}
		})
		if !o.send {
			continue
		}
		t.Run(o.name+"/shutdown", func(t *testing.T) {
			if n, err := run(t, uint16(7620+i), o.run, shut); n != 0 || !errors.Is(err, core.ErrShutdown) {
				t.Fatalf("%s after Shutdown(DirSend): (%d, %v), want (0, ErrShutdown)", o.name, n, err)
			}
		})
	}
}

// TestZeroCopyPairIsCounted: an intra-host 64 KiB SendVA/RecvVA pair, which
// moves its pages by remapping, is booked like any data operation: one op
// and 65 536 bytes on sd/core/{send,recv}_{ops,bytes}, and 65 536 bytes in
// one message on the sender's and the receiver's flow rows.
func TestZeroCopyPairIsCounted(t *testing.T) {
	const n = 64 * 1024
	w := newWorld(t)
	sp, sl := proc(t, w.a, "server", 0)
	cp, clib := proc(t, w.a, "client", 0)
	got := 0
	sp.Spawn("srv", func(ctx exec.Context, th *host.Thread) {
		lst, _ := sl.ListenOn(ctx, th, 7640)
		s, _, err := lst.Accept(ctx)
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		if got, err = s.RecvVA(ctx, th, sl.P.AS.Alloc(n), n); err != nil {
			t.Errorf("RecvVA: %v", err)
		}
	})
	var before telemetry.Snapshot
	var qid uint64
	var cliBefore, srvBefore obs.FlowSnapshot
	cp.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
		ctx.Sleep(10_000)
		s, _, err := clib.Connect(ctx, th, "hostA", 7640)
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		src := clib.P.AS.Alloc(n)
		clib.P.AS.Write(ctx, src, make([]byte, n))
		ctx.Sleep(50_000) // the server has accepted and waits in RecvVA
		qid = s.QID()
		cliBefore, srvBefore = flowRow("hostA", cp.PID, qid), flowRow("hostA", sp.PID, qid)
		before = telemetry.Capture()
		if m, err := s.SendVA(ctx, th, src, n); m != n || err != nil {
			t.Errorf("SendVA: (%d, %v)", m, err)
		}
	})
	w.sim.Run()
	if got != n {
		t.Fatalf("RecvVA got %d bytes, want %d", got, n)
	}
	d := telemetry.Capture().Diff(before)
	for _, k := range []string{telemetry.CoreSendBytes, telemetry.CoreRecvBytes} {
		if d[k] != n {
			t.Errorf("%s moved %d, want %d", k, d[k], n)
		}
	}
	for _, k := range []string{telemetry.CoreSendOps, telemetry.CoreRecvOps} {
		if d[k] != 1 {
			t.Errorf("%s moved %d, want 1", k, d[k])
		}
	}
	cli, srvRow := flowRow("hostA", cp.PID, qid), flowRow("hostA", sp.PID, qid)
	if tx, msgs := cli.BytesTx-cliBefore.BytesTx, cli.MsgsTx-cliBefore.MsgsTx; tx != n || msgs != 1 {
		t.Errorf("sender's flow row: %d bytes in %d messages, want %d in 1", tx, msgs, n)
	}
	if rx, msgs := srvRow.BytesRx-srvBefore.BytesRx, srvRow.MsgsRx-srvBefore.MsgsRx; rx != n || msgs != 1 {
		t.Errorf("receiver's flow row: %d bytes in %d messages, want %d in 1", rx, msgs, n)
	}
}
