package core_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"testing"

	"socksdirect/internal/core"
	"socksdirect/internal/exec"
	"socksdirect/internal/host"
	"socksdirect/internal/mem"
	"socksdirect/internal/monitor"
	"socksdirect/internal/telemetry"
)

// Tests of the parked QP pair (ARCHITECTURE.md "Connection lifecycle"): a
// cleanly closed inter-host connection keeps its QP connected on both sides,
// the next dial between the two processes offers it in the SYN, and the
// acceptor adopts the twin — or does not, and then the dial is a cold one.

// parkCounts is what a dial does to the parked pairs and the NICs.
type parkCounts struct{ hits, misses, created int64 }

func readPark() parkCounts {
	return parkCounts{
		hits:    telemetry.C(telemetry.CoreQPParkHits).Load(),
		misses:  telemetry.C(telemetry.CoreQPParkMisses).Load(),
		created: telemetry.C(telemetry.RdmaQPsCreated).Load(),
	}
}

func (p parkCounts) since(b parkCounts) parkCounts {
	return parkCounts{p.hits - b.hits, p.misses - b.misses, p.created - b.created}
}

// echoSeq is echoOnce with a payload of its own, so that an echo answered by
// the wrong connection's bytes shows.
func echoSeq(t *testing.T, ctx exec.Context, th *host.Thread, l *core.Libsd, dst string, port uint16, seq uint64) bool {
	t.Helper()
	req, reply := make([]byte, 8), make([]byte, 8)
	binary.LittleEndian.PutUint64(req, seq)
	s, _, err := l.Connect(ctx, th, dst, port)
	if err != nil {
		t.Errorf("dial %d to %s: %v", seq, dst, err)
		return false
	}
	defer s.Close(ctx, th)
	if _, err := s.Send(ctx, th, req); err != nil {
		t.Errorf("dial %d: send: %v", seq, err)
		return false
	}
	if m, err := s.Recv(ctx, th, reply); err != nil || !bytes.Equal(reply[:m], req) {
		t.Errorf("dial %d: echo %x, %v", seq, reply[:m], err)
		return false
	}
	return true
}

// settle is long enough for both sides of a closed connection to release it
// and park their QPs, short enough for the listener to still be polling.
const settle = 50_000

// TestParkedPairCarriesManyConnections: one QP pair under 200 connections in
// a row, each on recycled rings from cursor 0 and with its own MRs. Most
// payloads are larger than a ring, so the cursors wrap; one goes as SendVA
// above the zero-copy threshold, into the recycled pool.
func TestParkedPairCarriesManyConnections(t *testing.T) {
	w := newWorld(t)
	monitor.Peer(w.ma, w.mb)
	sp, sl := proc(t, w.b, "server", 0)
	cp, cl := proc(t, w.a, "client", 1000)
	conns, zcAt := 200, 77
	if raceEnabled {
		conns, zcAt = 40, 17
	}
	size := func(i int) int {
		if i == zcAt {
			return 4 * core.ZCThreshold
		}
		return 40_000 + i*7919%150_000
	}
	fill := func(b []byte, i int) {
		for j := range b {
			b[j] = byte(i*31 + j*7 + j>>8)
		}
	}
	sp.Spawn("srv", func(ctx exec.Context, th *host.Thread) {
		lst, err := sl.ListenOn(ctx, th, 7600)
		if err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		for i := 0; i < conns; i++ {
			s, _, err := lst.Accept(ctx)
			if err != nil {
				t.Errorf("accept %d: %v", i, err)
				return
			}
			buf := make([]byte, size(i))
			for n := 0; n < len(buf); {
				m, err := s.Recv(ctx, th, buf[n:])
				if err != nil {
					t.Errorf("conn %d: recv at %d: %v", i, n, err)
					return
				}
				n += m
			}
			if _, err := s.Send(ctx, th, buf); err != nil {
				t.Errorf("conn %d: send: %v", i, err)
			}
			s.Recv(ctx, th, buf[:1]) // the client's close
			s.Close(ctx, th)
		}
	})
	var d wire
	var p parkCounts
	// The server reads with plain Recv: a zero-copy message is one it has to
	// materialize.
	zc := -telemetry.C(telemetry.CoreZCCopies).Load()
	cp.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
		ctx.Sleep(10_000)
		w0, p0 := readWire(), readPark()
		for i := 0; i < conns; i++ {
			want, got := make([]byte, size(i)), make([]byte, size(i))
			fill(want, i)
			s, _, err := cl.Connect(ctx, th, "hostB", 7600)
			if err != nil {
				t.Errorf("connect %d: %v", i, err)
				return
			}
			if i == zcAt {
				src := cl.P.AS.Alloc(len(want))
				cl.P.AS.Write(ctx, src, want)
				_, err = s.SendVA(ctx, th, mem.VAddr(src), len(want))
			} else {
				_, err = s.Send(ctx, th, want)
			}
			if err != nil {
				t.Errorf("conn %d: send: %v", i, err)
				return
			}
			for n := 0; n < len(got); {
				m, err := s.Recv(ctx, th, got[n:])
				if err != nil {
					t.Errorf("conn %d: recv at %d: %v", i, n, err)
					return
				}
				n += m
			}
			if !bytes.Equal(got, want) {
				t.Errorf("conn %d: %d bytes came back corrupt", i, len(want))
				return
			}
			s.Close(ctx, th)
			ctx.Sleep(settle)
		}
		d, p = readWire().since(w0), readPark().since(p0)
		zc += telemetry.C(telemetry.CoreZCCopies).Load()
	})
	w.sim.Run()
	if d != (wire{}) {
		t.Errorf("%d connections on one pair moved %+v", conns, d)
	}
	// The first connection builds the pair; every later one adopts it.
	if want := (parkCounts{hits: int64(conns - 1), created: 2}); p != want {
		t.Errorf("park counters %+v, want %+v", p, want)
	}
	if zc == 0 {
		t.Error("the SendVA connection did not go zero-copy")
	}
}

// TestParkMisses: the ways an offered QP is not adopted, and the ways a
// parked one is not even offered. Each second dial is then a cold dial —
// the dialer re-targets its QP at the endpoint the acceptor built — that
// echoes byte-exact, drops nothing and retransmits nothing.
func TestParkMisses(t *testing.T) {
	type env struct {
		w      *world
		ctx    exec.Context
		th     *host.Thread
		cl     *core.Libsd
		srv    []*host.Process // srv[0] served the first dial
		srvLib []*core.Libsd
	}
	for _, tc := range []struct {
		name      string
		listeners int
		hold      int // the server keeps its connections 1..hold open until the last is in
		between   func(t *testing.T, e *env)
		want      parkCounts // of the second dial
	}{
		{"other listener process", 2, 0, func(*testing.T, *env) {},
			parkCounts{misses: 1, created: 1}},
		{"twin's owner killed", 2, 0, func(t *testing.T, e *env) {
			e.srv[0].Signal(e.ctx, host.SIGKILL)
			e.ctx.Sleep(settle)
		}, parkCounts{misses: 1, created: 1}},
		{"twin evicted by the bound", 1, core.MaxParkedQPs, func(t *testing.T, e *env) {
			// A second client process opens eight connections at once and
			// closes them: the server parks eight more QPs, and the oldest,
			// our twin, goes.
			fp, fl := proc(t, e.w.a, "filler", 1000)
			done := false
			fp.Spawn("fill", func(ctx exec.Context, th *host.Thread) {
				var held []*core.Socket
				for i := 0; i < core.MaxParkedQPs; i++ {
					s, _, err := fl.Connect(ctx, th, "hostB", 7601)
					if err != nil {
						t.Errorf("filler connect %d: %v", i, err)
						break
					}
					held = append(held, s)
				}
				for _, s := range held {
					s.Close(ctx, th)
				}
				done = true
			})
			for !done {
				e.ctx.Sleep(settle)
			}
			e.ctx.Sleep(settle)
			if n := e.srvLib[0].ParkedQPs(); n != core.MaxParkedQPs {
				t.Errorf("server holds %d parked QPs, want the bound", n)
			}
		}, parkCounts{misses: 1, created: 1}},
		{"twin in error", 1, 0, func(t *testing.T, e *env) { e.srvLib[0].ErrorParkedQPs() },
			parkCounts{misses: 1, created: 1}},
		{"own parked QP in error", 1, 0, func(t *testing.T, e *env) { e.cl.ErrorParkedQPs() },
			parkCounts{created: 2}}, // nothing offered: the acceptor's twin stays parked
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newWorld(t)
			monitor.Peer(w.ma, w.mb)
			e := &env{w: w}
			for i := 0; i < tc.listeners; i++ {
				sp, sl := proc(t, w.b, fmt.Sprintf("server%d", i), 0)
				sp.Spawn("srv", holdingEchoServer(t, sl, 7601, 1, tc.hold, true))
				e.srv, e.srvLib = append(e.srv, sp), append(e.srvLib, sl)
			}
			cp, cl := proc(t, w.a, "client", 1000)
			e.cl = cl
			var d wire
			var p parkCounts
			ok := false
			cp.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
				e.ctx, e.th = ctx, th
				ctx.Sleep(10_000)
				if !echoSeq(t, ctx, th, cl, "hostB", 7601, 1) {
					return
				}
				ctx.Sleep(settle)
				if e.srvLib[0].ParkedQPs() == 0 { // the other one served it
					e.srv[0], e.srv[1] = e.srv[1], e.srv[0]
					e.srvLib[0], e.srvLib[1] = e.srvLib[1], e.srvLib[0]
				}
				if cl.ParkedQPs() != 1 || e.srvLib[0].ParkedQPs() != 1 {
					t.Errorf("after the first dial: %d and %d QPs parked, want 1 and 1",
						cl.ParkedQPs(), e.srvLib[0].ParkedQPs())
				}
				tc.between(t, e)
				w0, p0 := readWire(), readPark()
				ok = echoSeq(t, ctx, th, cl, "hostB", 7601, 2)
				ctx.Sleep(settle)
				d, p = readWire().since(w0), readPark().since(p0)
				for _, sp := range e.srv {
					sp.Signal(ctx, host.SIGKILL)
				}
			})
			w.sim.Run()
			if !ok {
				t.Fatal("the second dial did not echo")
			}
			if d != (wire{}) {
				t.Errorf("the second dial moved %+v", d)
			}
			if p != tc.want {
				t.Errorf("the second dial: %+v, want %+v", p, tc.want)
			}
		})
	}
}

// holdingEchoServer is echoServer, except that the connections it accepts
// as numbers first to last (from 0) are kept open, unread, while it goes on
// accepting, and — if closing — closed together when the last of them is in.
func holdingEchoServer(t *testing.T, l *core.Libsd, port uint16, first, last int, closing bool) func(exec.Context, *host.Thread) {
	return func(ctx exec.Context, th *host.Thread) {
		lst, err := l.ListenOn(ctx, th, port)
		if err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		buf := make([]byte, 8)
		var held []*core.Socket
		for n := 0; ; n++ {
			s, _, err := lst.Accept(ctx)
			if err != nil {
				return
			}
			if n >= first && n <= last {
				if held = append(held, s); n == last && closing {
					for _, h := range held {
						h.Close(ctx, th)
					}
				}
				continue
			}
			if m, err := s.Recv(ctx, th, buf); err == nil {
				if _, err := s.Send(ctx, th, buf[:m]); err == nil {
					s.Recv(ctx, th, buf) // the client's close
				}
			}
			s.Close(ctx, th)
		}
	}
}

// TestParkCrossDial: two processes that hold the two halves of one parked
// pair dial each other at the same instant. Each takes its half for its own
// dial, so neither finds the twin the other's SYN asks for: two misses, two
// cold dials, two good echoes.
func TestParkCrossDial(t *testing.T) {
	w := newWorld(t)
	monitor.Peer(w.ma, w.mb)
	pa, la := proc(t, w.a, "peerA", 0)
	pb, lb := proc(t, w.b, "peerB", 0)
	pa.Spawn("srv", echoServer(t, la, 7602))
	pb.Spawn("srv", echoServer(t, lb, 7602))
	const at = 400_000
	var p parkCounts
	var d wire
	oks := 0
	pa.Spawn("dial", func(ctx exec.Context, th *host.Thread) {
		ctx.Sleep(10_000)
		if !echoSeq(t, ctx, th, la, "hostB", 7602, 1) {
			return
		}
		ctx.Sleep(at - settle - ctx.Now())
		if la.ParkedQPs() != 1 || lb.ParkedQPs() != 1 {
			t.Errorf("%d and %d QPs parked before the cross dial, want 1 and 1", la.ParkedQPs(), lb.ParkedQPs())
		}
		w0, p0 := readWire(), readPark()
		ctx.Sleep(at - ctx.Now())
		if echoSeq(t, ctx, th, la, "hostB", 7602, 2) {
			oks++
		}
		ctx.Sleep(1_000_000)
		d, p = readWire().since(w0), readPark().since(p0)
		pa.Signal(ctx, host.SIGKILL)
		pb.Signal(ctx, host.SIGKILL)
	})
	pb.Spawn("dial", func(ctx exec.Context, th *host.Thread) {
		ctx.Sleep(at)
		if echoSeq(t, ctx, th, lb, "hostA", 7602, 3) {
			oks++
		}
	})
	w.sim.Run()
	if oks != 2 {
		t.Fatalf("%d of the two crossing dials echoed", oks)
	}
	if d != (wire{}) {
		t.Errorf("the crossing dials moved %+v", d)
	}
	if want := (parkCounts{misses: 2, created: 2}); p != want {
		t.Errorf("the crossing dials: %+v, want %+v", p, want)
	}
}

// TestParkHitThenStolen: the SYN goes to the listener process that holds the
// twin, which adopts it from its signal handler — and never accepts. A
// second listener process, done with a dial of its own, steals the
// connection: the victim's endpoint, twin included, is torn down, the thief
// builds its own, and the dialer, which had its hit, re-targets like any
// stolen accept.
func TestParkHitThenStolen(t *testing.T) {
	w := newWorld(t)
	monitor.Peer(w.ma, w.mb)
	p1, l1 := proc(t, w.b, "once", 0)
	p2, l2 := proc(t, w.b, "thief", 0)
	cp, cl := proc(t, w.a, "client", 1000)
	op, ol := proc(t, w.a, "other", 1000)
	thiefUp := false
	p1.Spawn("srv", func(ctx exec.Context, th *host.Thread) {
		lst, err := l1.ListenOn(ctx, th, 7603)
		if err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		s, _, err := lst.Accept(ctx)
		if err != nil {
			return
		}
		buf := make([]byte, 8)
		if m, err := s.Recv(ctx, th, buf); err == nil {
			s.Send(ctx, th, buf[:m])
			s.Recv(ctx, th, buf)
		}
		s.Close(ctx, th)
		ctx.Sleep(20_000_000) // listening still, accepting no more
	})
	p2.Spawn("srv", func(ctx exec.Context, th *host.Thread) {
		for !thiefUp {
			ctx.Sleep(settle)
		}
		echoServer(t, l2, 7603)(ctx, th)
	})
	steals := telemetry.C(telemetry.MonWorkSteals)
	var d wire
	var p parkCounts
	var stolen int64
	oks := 0
	// The monitor takes the port's listeners in turn: dial 1 finds only p1,
	// dial 2 (another process's: the client keeps its parked QP) goes to p2,
	// dial 3 to p1 again — with the offer — and dial 4 to p2, which steals
	// dial 3 when it is done with it.
	cp.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
		ctx.Sleep(10_000)
		if !echoSeq(t, ctx, th, cl, "hostB", 7603, 1) {
			return
		}
		thiefUp = true
		ctx.Sleep(4 * settle)
		if cl.ParkedQPs() != 1 || l1.ParkedQPs() != 1 {
			t.Errorf("%d and %d QPs parked after the first dial, want 1 and 1", cl.ParkedQPs(), l1.ParkedQPs())
		}
		done := false
		op.Spawn("dial2", func(ctx exec.Context, th *host.Thread) {
			echoSeq(t, ctx, th, ol, "hostB", 7603, 2)
			done = true
		})
		for !done {
			ctx.Sleep(settle)
		}
		w0, p0, s0 := readWire(), readPark(), steals.Load()
		cp.Spawn("dial4", func(ctx exec.Context, th *host.Thread) {
			ctx.Sleep(20_000) // dial 3 is with p1
			if echoSeq(t, ctx, th, cl, "hostB", 7603, 4) {
				oks++
			}
		})
		if echoSeq(t, ctx, th, cl, "hostB", 7603, 3) {
			oks++
		}
		ctx.Sleep(4 * settle)
		d, p, stolen = readWire().since(w0), readPark().since(p0), steals.Load()-s0
		p1.Signal(ctx, host.SIGKILL)
		p2.Signal(ctx, host.SIGKILL)
	})
	w.sim.Run()
	if oks != 2 {
		t.Fatalf("%d of the stolen dial and the thief's own echoed", oks)
	}
	// Dial 3's twin was adopted and died with the victim's endpoint; the
	// thief built a QP for it and one for dial 4, whose dialer built one too.
	if want := (parkCounts{hits: 1, created: 3}); stolen != 1 || p != want {
		t.Errorf("%d steals and %+v, want 1 and %+v", stolen, p, want)
	}
	if d != (wire{}) {
		t.Errorf("a stolen hit moved %+v", d)
	}
}

// TestParkedQPsClosedOnHostDeath: the monitor's notice that a peer host died
// reaches a process through a connection it has there; its QPs parked toward
// that host go with it.
func TestParkedQPsClosedOnHostDeath(t *testing.T) {
	w := newWorld(t)
	monitor.Peer(w.ma, w.mb)
	sp, sl := proc(t, w.b, "server", 0)
	cp, cl := proc(t, w.a, "client", 1000)
	sp.Spawn("srv", holdingEchoServer(t, sl, 7604, 1, 1, false))
	var before, after int
	var liveErr error
	cp.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
		ctx.Sleep(10_000)
		if !echoSeq(t, ctx, th, cl, "hostB", 7604, 1) {
			return
		}
		ctx.Sleep(settle)
		live, _, err := cl.Connect(ctx, th, "hostB", 7604) // takes the parked QP
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		if !echoSeq(t, ctx, th, cl, "hostB", 7604, 2) { // and this one parks another
			return
		}
		ctx.Sleep(settle)
		before = cl.ParkedQPs()
		w.mb.Stop()
		// Host A's monitor counts silent heartbeats only while it has
		// control traffic of its own: refused local dials will do.
		for i := 0; i < 140; i++ {
			cl.Connect(ctx, th, "hostA", 9)
			ctx.Sleep(25_000_000)
		}
		after = cl.ParkedQPs()
		_, liveErr = live.Recv(ctx, th, make([]byte, 8))
		sp.Signal(ctx, host.SIGKILL)
	})
	w.sim.Run()
	if before != 1 || after != 0 {
		t.Errorf("%d QPs parked toward hostB before its death, %d after; want 1 and 0", before, after)
	}
	if !errors.Is(liveErr, core.ECONNRESET) {
		t.Errorf("the live connection ended with %v, want the reset that carried the notice", liveErr)
	}
}

// TestParkedQPsAcrossMonitorRestart: the parked list is the process's own
// and the monitor keeps no record of it. A monitor restarted on either host
// hears of no connection in the re-registration reports, and the next dial
// adopts the pair as if nothing had happened.
func TestParkedQPsAcrossMonitorRestart(t *testing.T) {
	for _, restartServer := range []bool{false, true} {
		name := "dialer's monitor"
		if restartServer {
			name = "acceptor's monitor"
		}
		t.Run(name, func(t *testing.T) {
			w := newWorld(t)
			monitor.Peer(w.ma, w.mb)
			sp, sl := proc(t, w.b, "server", 0)
			cp, cl := proc(t, w.a, "client", 1000)
			sp.Spawn("srv", echoServer(t, sl, 7605))
			var p parkCounts
			var d wire
			records := -1
			ok := false
			cp.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
				ctx.Sleep(10_000)
				if !echoSeq(t, ctx, th, cl, "hostB", 7605, 1) {
					return
				}
				ctx.Sleep(settle)
				var m *monitor.Monitor
				if restartServer {
					// The old channel toward hostB ends at a monitor that is
					// gone, and nothing heals it for a SYN (ROADMAP 1(c), on
					// the parent too): peer the successor by hand.
					m = monitor.Restart(w.b)
					monitor.Peer(w.ma, m)
				} else {
					m = monitor.Restart(w.a)
				}
				ctx.Sleep(5_000_000) // re-registration reports are in
				records = m.LiveConnRecords()
				w0, p0 := readWire(), readPark()
				ok = echoSeq(t, ctx, th, cl, "hostB", 7605, 2)
				ctx.Sleep(settle)
				d, p = readWire().since(w0), readPark().since(p0)
				sp.Signal(ctx, host.SIGKILL)
			})
			w.sim.Run()
			if !ok {
				t.Fatal("the dial after the restart did not echo")
			}
			if records != 0 {
				t.Errorf("the restarted monitor holds %d connection records with none open", records)
			}
			// (QPs were created meanwhile: the successor's monitor channels.)
			if p.hits != 1 || p.misses != 0 {
				t.Errorf("the dial after the restart: %+v, want one hit", p)
			}
			if d != (wire{}) {
				t.Errorf("the dial after the restart moved %+v", d)
			}
		})
	}
}
