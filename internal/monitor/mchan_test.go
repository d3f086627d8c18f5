package monitor

import (
	"testing"

	"socksdirect/internal/core"
	"socksdirect/internal/ctlmsg"
	"socksdirect/internal/exec"
	"socksdirect/internal/host"
	"socksdirect/internal/telemetry"
)

// The monitor channel keeps its landing buffers in one slab, posts slot i
// under WRID recvWRID|i, and decodes every arrival into the one message it
// owns. These tests hold it to what that asks of it and of its callers.

// chanPair connects a fresh channel from a to b and one back, which no
// router polls: the test drains them itself.
func chanPair(t *testing.T, a, b *host.Host) (ab, ba *mchan) {
	t.Helper()
	ab, ba = newMchan(a, b.Name), newMchan(b, a.Name)
	if err := ab.connect(b.Name, ba.qp.QPN()); err != nil {
		t.Fatal(err)
	}
	if err := ba.connect(a.Name, ab.qp.QPN()); err != nil {
		t.Fatal(err)
	}
	return ab, ba
}

// listenerOn puts a process with one listener thread on port on m's host
// and returns its control link, where dispatched connections land.
func listenerOn(m *Monitor, port uint16) *core.ProcLink {
	p := m.H.NewProcess("srv", 0)
	link := m.RegisterProcess(p)
	m.shardOfPort(port).ports[port] = &portRec{refs: []listenerSlot{{listenerRef: listenerRef{pid: p.PID, tid: 1}}}}
	return link
}

// dispatched drains a link's control planes and returns the KNewConns found
// there, by ConnID.
func dispatched(link *core.ProcLink) map[uint64]ctlmsg.Msg {
	out := make(map[uint64]ctlmsg.Msg)
	drainNewConns(link, out)
	return out
}

// readAll reads a link's control planes as a process does until want
// KNewConns have arrived and a look finds nothing more: after each drain it
// rings the shards that queued messages behind a full ring.
func readAll(ctx exec.Context, link *core.ProcLink, want int) map[uint64]ctlmsg.Msg {
	out := make(map[uint64]ctlmsg.Msg)
	for range 1000 {
		got := drainNewConns(link, out)
		w := link.MonQueued.Swap(0)
		for s := range link.Ds {
			if w&(1<<s) != 0 {
				link.WakeMonitor(s)
			}
		}
		if got == 0 && w == 0 && len(out) >= want {
			break
		}
		ctx.Sleep(10_000)
	}
	return out
}

// drainNewConns empties a link's control planes into out, the KNewConns by
// ConnID, and returns how many messages it took.
func drainNewConns(link *core.ProcLink, out map[uint64]ctlmsg.Msg) (got int) {
	for _, d := range link.Ds {
		for rx := d.A().RX; ; got++ {
			msg, ok := rx.TryRecv()
			if !ok {
				break
			}
			if cm, ok := ctlmsg.Unmarshal(msg.Payload); ok && cm.Kind == ctlmsg.KNewConn {
				if _, dup := out[cm.ConnID]; dup {
					cm.Kind = 0 // dispatched twice: no KNewConn to match
				}
				out[cm.ConnID] = cm
			}
		}
	}
	return got
}

func syn(connID uint64, srcPort uint16) ctlmsg.Msg {
	return ctlmsg.Msg{Kind: ctlmsg.KMSyn, ConnID: connID, Port: 80, SrcPort: srcPort, PID: 7}
}

func gossip(dead string, epoch uint32) ctlmsg.Msg {
	m := ctlmsg.Msg{Kind: ctlmsg.KMHostDead, Aux: uint64(epoch)}
	m.SetHost(dead)
	return m
}

// checkSyns reports whether SYNs first..first+n-1, sent as syn(id, id) over
// the channel from peer, were each dispatched exactly once with their own
// fields.
func checkSyns(t *testing.T, got map[uint64]ctlmsg.Msg, first uint64, n int, peer string) {
	t.Helper()
	if len(got) != n {
		t.Errorf("%d connections dispatched, want %d", len(got), n)
	}
	for id := first; id < first+uint64(n); id++ {
		cm, ok := got[id]
		if !ok || cm.Kind != ctlmsg.KNewConn || cm.SrcPort != uint16(id) || cm.Port != 80 || !cm.HostIs(peer) {
			t.Errorf("SYN %d dispatched as %+v (found %v)", id, cm, ok)
		}
	}
}

// TestMchanMessagesKeepTheirFields: what the router hands on must be copied
// out of the channel's message before the next arrival is decoded into it.
// Four arrivals drained in one router pass — gossip that host c died, a SYN,
// gossip that d died, a SYN — are each routed with their own fields.
func TestMchanMessagesKeepTheirFields(t *testing.T) {
	s, ma, _, a, b := newHostPair()
	link := listenerOn(ma, 80)
	toA, fromB := chanPair(t, a, b)
	s.Spawn("t", func(ctx exec.Context) {
		for _, cm := range []ctlmsg.Msg{gossip("c", 7), syn(11, 11), gossip("d", 9), syn(12, 12)} {
			fromB.send(&cm)
		}
		ctx.Sleep(100_000)
		if n := toA.recvCQ.Len(); n != 4 {
			t.Fatalf("%d arrivals waiting, want all 4 for one pass", n)
		}
		if real := ma.drain(ctx, toA); !real || toA.recvCQ.Len() != 0 {
			t.Fatalf("drain: real %v, %d left", real, toA.recvCQ.Len())
		}
		ctx.Sleep(100_000) // the shards dispatch the SYNs
		for host, epoch := range map[string]uint32{"c": 7, "d": 9} {
			if p := ma.peers[host]; p == nil || p.live != MemberDead || p.deadEpoch != epoch {
				t.Errorf("gossip about %s: peer record %+v", host, p)
			}
		}
		checkSyns(t, dispatched(link), 11, 2, "b")
	})
	s.Run()
}

// TestMchanSlotsCycle: every landing slot is posted exactly once, and a
// drained slot goes back: with nothing drained, a slab's worth of messages
// lands and the next one finds no slot (RNR) until the receiver drains, in
// order, three times over. A fault that errors the QP flushes every posted
// slot, and the flushed completions hand out no message.
func TestMchanSlotsCycle(t *testing.T) {
	s, _, _, a, b := newHostPair()
	ab, ba := chanPair(t, a, b)
	rnr := telemetry.C(telemetry.RdmaRNR)
	s.Spawn("t", func(ctx exec.Context) {
		next := uint64(1) // the ConnID the receiver expects next
		recvAll := func(n int) {
			for i := 0; i < n; i++ {
				cm, ok := ba.recv()
				if !ok || cm.ConnID != next {
					t.Fatalf("message %d: %v, ConnID %d, want %d", i, ok, cm.ConnID, next)
				}
				next++
			}
		}
		sent := uint64(0)
		for round := 0; round < 3; round++ {
			for i := 0; i < mchanBufs; i++ {
				sent++
				ab.send(&ctlmsg.Msg{Kind: ctlmsg.KMSyn, ConnID: sent})
			}
			ctx.Sleep(100_000)
			if n := ba.recvCQ.Len(); n != mchanBufs {
				t.Fatalf("round %d: %d of %d messages landed: a slot is not posted", round, n, mchanBufs)
			}
			r0 := rnr.Load()
			sent++
			ab.send(&ctlmsg.Msg{Kind: ctlmsg.KMSyn, ConnID: sent})
			ctx.Sleep(100_000)
			if n := ba.recvCQ.Len(); n != mchanBufs || rnr.Load() == r0 {
				t.Fatalf("round %d: one past the slab: %d landed, RNR %d: a slot is posted twice", round, n, rnr.Load()-r0)
			}
			recvAll(mchanBufs)
			ctx.Sleep(2 * 500_000) // the RTO re-sends the refused one into a drained slot
			recvAll(1)
		}
		ba.qp.ForceError()
		if n := ba.recvCQ.Len(); n != mchanBufs {
			t.Fatalf("%d flushed completions, want one per slot (%d)", n, mchanBufs)
		}
		for i := 0; i < mchanBufs; i++ {
			if cm, ok := ba.recv(); ok {
				t.Fatalf("a flushed slot handed out %+v", cm)
			}
		}
		if ba.recvCQ.Len() != 0 {
			t.Fatal("a flushed slot was posted again")
		}
	})
	s.Run()
}

// TestMchanHealsAfterFlush: a NIC event on one host errors its end of the
// monitor channel and flushes every slot posted there. The next message
// toward the peer heals the channel (a probe builds a fresh pair), and the
// healed channel carries two slabs' worth of SYNs and one more, each
// dispatched exactly once with its own fields. The listener reads only at
// the end, so most of them wait in the monitor's queue behind its full ring.
func TestMchanHealsAfterFlush(t *testing.T) {
	s, ma, mb, a, _ := newHostPair()
	Peer(ma, mb)
	link := listenerOn(mb, 80)
	old := ma.peers["b"].mc
	s.Spawn("t", func(ctx exec.Context) {
		if a.NIC.FailAllQPs() == 0 || old.recvCQ.Len() == 0 {
			t.Fatal("the fault flushed nothing")
		}
		ctx.Sleep(100_000) // the router meets the flushed slots
		const n = 2*mchanBufs + 1
		for i := uint64(0); i < n; i++ {
			cm := syn(100+i, uint16(100+i))
			ma.mchanSend(ctx, "b", &cm, true) // the first launches the heal probe
		}
		ctx.Sleep(20_000_000)
		if mc := ma.peers["b"].mc; mc == nil || mc == old {
			t.Fatal("the channel was not healed")
		}
		checkSyns(t, readAll(ctx, link, n), 100, n, "a")
	})
	s.Run()
}
