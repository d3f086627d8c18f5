package core_test

import (
	"bytes"
	"math/rand"
	"testing"

	"socksdirect/internal/core"
	"socksdirect/internal/costmodel"
	"socksdirect/internal/exec"
	"socksdirect/internal/fabric"
	"socksdirect/internal/host"
	"socksdirect/internal/ksocket"
	"socksdirect/internal/monitor"
)

// streamIntegrity pushes a randomized mix of send sizes through one
// connection and verifies the receiver sees the exact byte stream —
// the fundamental socket contract, exercised across message-boundary
// splits, ring wraps, credit returns and (inter-host) RDMA mirroring.
func streamIntegrity(t *testing.T, intra bool, seed int64) {
	w := newWorld(t)
	if !intra {
		monitor.Peer(w.ma, w.mb)
	}
	serverHost, serverName := w.b, "hostB"
	if intra {
		serverHost, serverName = w.a, "hostA"
	}
	sp, sl := proc(t, serverHost, "server", 0)
	cp, clib := proc(t, w.a, "client", 0)

	rng := rand.New(rand.NewSource(seed))
	const total = 96 * 1024
	payload := make([]byte, total)
	rng.Read(payload)

	var got []byte
	sp.Spawn("srv", func(ctx exec.Context, th *host.Thread) {
		lst, _ := sl.ListenOn(ctx, th, 7900)
		s, _, err := lst.Accept(ctx)
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		buf := make([]byte, 7001) // deliberately odd read size
		for len(got) < total {
			n, err := s.Recv(ctx, th, buf)
			if err != nil {
				t.Errorf("recv at %d: %v", len(got), err)
				return
			}
			got = append(got, buf[:n]...)
		}
	})
	cp.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
		ctx.Sleep(10_000)
		s, _, err := clib.Connect(ctx, th, serverName, 7900)
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		sent := 0
		for sent < total {
			n := 1 + rng.Intn(9000)
			if sent+n > total {
				n = total - sent
			}
			if _, err := s.Send(ctx, th, payload[sent:sent+n]); err != nil {
				t.Errorf("send at %d: %v", sent, err)
				return
			}
			sent += n
		}
	})
	w.sim.Run()
	if !bytes.Equal(got, payload) {
		i := 0
		for i < len(got) && i < len(payload) && got[i] == payload[i] {
			i++
		}
		t.Fatalf("stream corrupted: %d/%d bytes, first divergence at %d", len(got), total, i)
	}
}

func TestStreamIntegrityIntraHost(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		streamIntegrity(t, true, seed)
	}
}

func TestStreamIntegrityInterHost(t *testing.T) {
	for seed := int64(4); seed <= 6; seed++ {
		streamIntegrity(t, false, seed)
	}
}

// TestSDInterHostOverLossyFabric runs the full SocksDirect stack over a
// link that drops and jitters frames: the NIC's go-back-N must hide it
// completely (the paper's premise that transport reliability is the NIC's
// job, §2.1.2).
func TestSDInterHostOverLossyFabric(t *testing.T) {
	s := exec.NewSim(exec.SimConfig{})
	costs := costmodel.Default
	a := host.New("hostA", s, &costs, 1)
	b := host.New("hostB", s, &costs, 2)
	host.NewNet(a.Clk, fabric.Config{
		PropDelay:  costs.OneWayWireLatency(),
		GbitPerSec: costs.LinkBandwidthGbps,
		LossRate:   0.03,
		JitterNs:   3000,
		Seed:       77,
	}).Join(a, b)
	ka, kb := ksocket.New(a), ksocket.New(b)
	ma, mb := monitor.Start(a, ka), monitor.Start(b, kb)
	monitor.Peer(ma, mb)
	sp := b.NewProcess("server", 0)
	sl, _ := core.Init(sp)
	cp := a.NewProcess("client", 0)
	clib, _ := core.Init(cp)

	const msgs = 120
	recvd := 0
	sp.Spawn("srv", func(ctx exec.Context, th *host.Thread) {
		lst, _ := sl.ListenOn(ctx, th, 7901)
		sock, _, err := lst.Accept(ctx)
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		buf := make([]byte, 64)
		for recvd < msgs {
			n, err := sock.Recv(ctx, th, buf)
			if err != nil {
				t.Errorf("recv %d: %v", recvd, err)
				return
			}
			want := byte(recvd)
			for k := 0; k < n; k++ {
				if buf[k] != want {
					t.Errorf("msg %d corrupted", recvd)
					return
				}
			}
			recvd++
			sock.Send(ctx, th, buf[:n])
		}
	})
	ok := true
	cp.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
		ctx.Sleep(10_000)
		sock, _, err := clib.Connect(ctx, th, "hostB", 7901)
		if err != nil {
			t.Errorf("connect: %v", err)
			ok = false
			return
		}
		msg := make([]byte, 32)
		buf := make([]byte, 64)
		for i := 0; i < msgs; i++ {
			for k := range msg {
				msg[k] = byte(i)
			}
			if _, err := sock.Send(ctx, th, msg); err != nil {
				t.Errorf("send %d: %v", i, err)
				ok = false
				return
			}
			if _, err := sock.Recv(ctx, th, buf); err != nil {
				t.Errorf("echo %d: %v", i, err)
				ok = false
				return
			}
		}
	})
	s.Run()
	if !ok || recvd != msgs {
		t.Fatalf("lossy fabric: %d/%d echoed ok=%v", recvd, msgs, ok)
	}
}
