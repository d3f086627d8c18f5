package monitor

import (
	"fmt"
	"testing"

	"socksdirect/internal/costmodel"
	"socksdirect/internal/exec"
	"socksdirect/internal/host"
	"socksdirect/internal/ksocket"
)

// TestOneChannelPerHostPair is the table of ways a monitor channel breaks
// and heals. Host a is the lower-named of the two. A NIC fault errors the
// channel at one end or at both; the end named first queues N SYNs toward
// the other, which probes from there, and the second end queues N SYNs back:
//
//   - one end, idle: the second end queues after the heal is complete;
//   - one end, mid-probe: after it accepted the prober's SYN, before the
//     prober has the answer;
//   - both ends, idle: both ends queue at once, so both probe at once;
//   - both ends, mid-probe: the second fault lands, and the second end
//     queues, while the first end's probe is in flight; the second end's SYN
//     reaches the first before the first end's probe completes,
//   - or after it: that SYN is held on the wire;
//   - one end or both, mid-drain: the faults land at once, and each faulted
//     end's router drops its flushed channel in the pass that meets the
//     first flushed slot, before either end queues;
//   - one end or both, after a restart: the first end's monitor restarts
//     (with both, the second's too, 0.5 ms later). 1 ms after the last
//     restart the second end — the survivor, or the second successor —
//     queues N toward the first, and the first end's successor N back. No
//     test peers a successor: its own probes heal its pairs.
//
// Afterwards every SYN has been dispatched exactly once on the far end, the
// two ends hold the two halves of one pair, and each NIC holds that pair's
// QP and nothing else: the errored QPs, the losing pair's and a dead
// incarnation's are closed.
func TestOneChannelPerHostPair(t *testing.T) {
	const n = 8
	for _, c := range []struct {
		name    string
		both    bool  // the fault or restart lands on both ends, else on the first
		second  int64 // when the second end queues (restarts, in a restart row), after the first
		holdSYN bool  // the second end's SYN reaches the first end after its probe completes
		drain   bool  // both faults land at once, and the routers drain before anyone queues
		restart bool  // a monitor restart, not a NIC fault
	}{
		{"one end, idle", false, 1_000_000, false, false, false},
		{"one end, mid-probe", false, 6_000, false, false, false},
		{"both ends, idle", true, 0, false, false, false},
		{"both ends, mid-probe, SYN before the probe completes", true, 2_000, false, false, false},
		{"both ends, mid-probe, SYN after the probe completes", true, 2_000, true, false, false},
		{"one end, mid-drain", false, 6_000, false, true, false},
		{"both ends, mid-drain", true, 6_000, false, true, false},
		{"one end, after a restart", false, 0, false, false, true},
		{"both ends, after a restart", true, 500_000, false, false, true},
	} {
		for _, first := range []string{"a", "b"} {
			t.Run(fmt.Sprintf("%s, %s first", c.name, first), func(t *testing.T) {
				s, net, ms := netPair()
				m1, m2 := ms[first], ms[map[string]string{"a": "b", "b": "a"}[first]]
				Peer(m1, m2)
				link1, link2 := listenerOn(m1, 80), listenerOn(m2, 80)
				queue := func(ctx exec.Context, from, to *Monitor, id uint64) {
					for i := uint64(0); i < n; i++ {
						cm := syn(id+i, uint16(id+i))
						from.mchanSend(ctx, to.H.Name, &cm, true)
					}
				}
				switch {
				case c.restart:
					s.Spawn("restarts", func(ctx exec.Context) {
						ctx.Sleep(100_000_000)
						m1 = restartListening(m1)
						if c.both {
							ctx.Sleep(c.second)
							m2 = restartListening(m2)
						}
						ctx.Sleep(1_000_000)
						queue(ctx, m2, m1, 2000)
						queue(ctx, m1, m2, 1000)
					})
				case c.drain:
					s.Spawn("first", func(ctx exec.Context) {
						ctx.Sleep(100_000_000)
						faulted := []*Monitor{m1}
						if c.both {
							faulted = append(faulted, m2)
						}
						dropsInOnePass(t, ctx, faulted...)
						queue(ctx, m1, m2, 1000)
						ctx.Sleep(c.second)
						queue(ctx, m2, m1, 2000)
					})
				default:
					s.Spawn("first", func(ctx exec.Context) {
						ctx.Sleep(100_000_000) // past the heartbeats' quiet window
						m1.H.NIC.FailAllQPs()
						queue(ctx, m1, m2, 1000)
					})
					s.Spawn("second", func(ctx exec.Context) {
						ctx.Sleep(100_000_000 + c.second)
						if c.both {
							m2.H.NIC.FailAllQPs()
						}
						back := net.Knet.Edge(m2.H.Name, m1.H.Name)
						if c.holdSYN {
							back.SetExtraDelay(30_000) // the probe SYN the first send launches
						}
						queue(ctx, m2, m1, 2000)
						back.SetExtraDelay(0)
					})
				}
				s.Run()

				checkSyns(t, dispatched(link2), 1000, n, m1.H.Name)
				checkSyns(t, dispatched(link1), 2000, n, m2.H.Name)
				c1, c2 := m1.peers[m2.H.Name].mc, m2.peers[m1.H.Name].mc
				if c1 == nil || c2 == nil {
					t.Fatalf("channels %v and %v: an end holds none", c1, c2)
				}
				if h, qpn := c1.qp.Peer(); h != m2.H.Name || qpn != c2.qp.QPN() {
					t.Errorf("%s holds a half connected to QP %d, %s holds QP %d", m1.H.Name, qpn, m2.H.Name, c2.qp.QPN())
				}
				if h, qpn := c2.qp.Peer(); h != m1.H.Name || qpn != c1.qp.QPN() {
					t.Errorf("%s holds a half connected to QP %d, %s holds QP %d", m2.H.Name, qpn, m1.H.Name, c1.qp.QPN())
				}
				for _, m := range []*Monitor{m1, m2} {
					if got := m.H.NIC.QPCount(); got != 1 {
						t.Errorf("%s: %d QPs on the NIC, want the channel's 1", m.H.Name, got)
					}
				}
			})
		}
	}
}

// restartListening restarts m's monitor and gives the successor m's listener
// on port 80, which a bare test process cannot re-register.
func restartListening(m *Monitor) *Monitor {
	next := Restart(m.H)
	next.shardOfPort(80).ports[80] = m.shardOfPort(80).ports[80]
	return next
}

// dropsInOnePass errors each monitor's NIC at once and checks that its
// router drops the flushed channel in the pass that meets the first flushed
// slot: the channel is gone, one heal is counted per end, and the other
// flushed slots are never drained.
func dropsInOnePass(t *testing.T, ctx exec.Context, ms ...*Monitor) {
	t.Helper()
	h0 := mMchanHeals.Load()
	var old []*mchan
	for _, m := range ms {
		old = append(old, m.peerList[0].mc)
		m.H.NIC.FailAllQPs()
	}
	ctx.Sleep(1_000) // the routers' first pass
	for i, m := range ms {
		if p := m.peerList[0]; p.mc != nil || old[i].recvCQ.Len() != mchanBufs-1 {
			t.Errorf("%s: channel %p held, %d of %d flushed slots left: the flushed channel outlived one pass",
				m.H.Name, p.mc, old[i].recvCQ.Len(), mchanBufs)
		}
	}
	if got := mMchanHeals.Load() - h0; got != int64(len(ms)) {
		t.Errorf("%d heals counted, want one per faulted end (%d)", got, len(ms))
	}
}

// netPair is newHostPair on the routed network, whose edges a test can
// slow down one direction at a time. No scenario runs for a virtual second:
// one that does is a heal that never ends.
func netPair() (*exec.Sim, *host.Net, map[string]*Monitor) {
	s := exec.NewSim(exec.SimConfig{MaxVirtualTime: 1_000_000_000})
	costs := costmodel.Default
	net := host.NewNet(s.Clock(), host.LinkConfig(&costs, 3))
	ms := make(map[string]*Monitor)
	for i, name := range []string{"a", "b"} {
		h := host.New(name, s, &costs, uint64(i+1))
		net.Join(h)
		ms[name] = Start(h, ksocket.New(h))
	}
	return s, net, ms
}

// TestRestartedPeerIsNotACrossing: probe IDs are compared within one
// incarnation of the peer. Host a, the lower-named, built the channel with
// its own probe; b's monitor restarts, and the new incarnation, which has
// answered none of a's probes, probes a. a must take its pair rather than
// refuse it as a crossing probe, or b's messages wait forever.
func TestRestartedPeerIsNotACrossing(t *testing.T) {
	const n = 8
	s, _, ms := netPair()
	ma, mb := ms["a"], ms["b"]
	link := listenerOn(ma, 80)
	s.Spawn("t", func(ctx exec.Context) {
		ctx.Sleep(100_000_000)
		cm := syn(1, 1)
		ma.mchanSend(ctx, "b", &cm, true) // a's probe builds the channel
		ctx.Sleep(1_000_000)
		if p := ma.peers["b"]; p.mc == nil || p.own == 0 {
			t.Fatalf("a holds %v, built by probe %d: not its own pair", p.mc, p.own)
		}
		b2 := Restart(mb.H)
		for i := uint64(0); i < n; i++ {
			cm := syn(3000+i, uint16(3000+i))
			b2.mchanSend(ctx, "a", &cm, true)
		}
	})
	s.Run()
	checkSyns(t, dispatched(link), 3000, n, "b")
}
