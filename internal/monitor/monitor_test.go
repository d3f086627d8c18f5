package monitor

import (
	"testing"

	"socksdirect/internal/costmodel"
	"socksdirect/internal/ctlmsg"
	"socksdirect/internal/exec"
	"socksdirect/internal/host"
	"socksdirect/internal/ksocket"
)

func newHostPair() (*exec.Sim, *Monitor, *Monitor, *host.Host, *host.Host) {
	s := exec.NewSim(exec.SimConfig{})
	costs := costmodel.Default
	a := host.New("a", s, &costs, 1)
	b := host.New("b", s, &costs, 2)
	host.Connect(a, b, host.LinkConfig(&costs, 3))
	ma := Start(a, ksocket.New(a))
	mb := Start(b, ksocket.New(b))
	return s, ma, mb, a, b
}

func TestRegisterChildRejectsForgedSecret(t *testing.T) {
	s, ma, _, a, _ := newHostPair()
	parent := a.NewProcess("parent", 0)
	ma.RegisterProcess(parent)
	child := parent.Fork("child")
	// No secret was deposited: pairing must fail (a malicious process
	// cannot impersonate a forked child, §4.1.2 "Security").
	if link := ma.RegisterChild(child, 0xbad5ec); link != nil {
		t.Fatal("forged fork secret accepted")
	}
	// Deposit through the control path, then pairing works.
	s.Spawn("t", func(ctx exec.Context) {
		ma.mu.Lock()
		ma.secrets[42] = parent.PID
		ma.mu.Unlock()
		if link := ma.RegisterChild(child, 42); link == nil {
			t.Error("legitimate fork secret rejected")
		}
	})
	s.Run()
}

func TestRegisterChildRejectsWrongParent(t *testing.T) {
	_, ma, _, a, _ := newHostPair()
	parent := a.NewProcess("parent", 0)
	other := a.NewProcess("other", 0)
	ma.RegisterProcess(parent)
	ma.RegisterProcess(other)
	// Secret deposited by parent; an unrelated process (not a child of
	// parent) presents it.
	ma.mu.Lock()
	ma.secrets[7] = parent.PID
	ma.mu.Unlock()
	if link := ma.RegisterChild(other, 7); link != nil {
		t.Fatal("secret accepted from a process that is not the parent's child")
	}
}

func TestListenerRoundRobinOrder(t *testing.T) {
	_, ma, _, _, _ := newHostPair()
	ma.mu.Lock()
	ma.shardOfPort(80).ports[80] = &portRec{refs: []listenerSlot{
		{listenerRef: listenerRef{pid: 1, tid: 1}}, {listenerRef: listenerRef{pid: 2, tid: 1}}, {listenerRef: listenerRef{pid: 3, tid: 1}}}}
	ma.mu.Unlock()
	var order []int
	for i := 0; i < 6; i++ {
		ref, st := ma.pickListener(80)
		if st != ctlmsg.StatusOK {
			t.Fatal("no listener")
		}
		order = append(order, ref.pid)
	}
	want := []int{1, 2, 3, 1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("round robin order %v, want %v", order, want)
		}
	}
}

func TestMchanCarriesControlMessages(t *testing.T) {
	s, ma, mb, _, _ := newHostPair()
	Peer(ma, mb)
	s.Spawn("t", func(ctx exec.Context) {
		ma.mu.Lock()
		mc := ma.peers["b"].mc
		ma.mu.Unlock()
		if mc == nil {
			t.Error("peer channel missing")
			return
		}
		msg := &ctlmsg.Msg{Kind: ctlmsg.KMSyn, ConnID: 99, Port: 1234}
		msg.SetHost("a")
		mc.send(msg)
		ctx.Sleep(100_000)
		// The message lands at mb's daemon; since no listener exists it
		// must bounce a KMRefused back, which ma routes to the (absent)
		// client — the observable effect here is simply that both
		// daemons stayed live and the channel round-tripped.
		mb.mu.Lock()
		_, pending := mb.shardOf(99).conns[99]
		mb.mu.Unlock()
		if pending {
			t.Error("refused connection left pending state")
		}
	})
	s.Run()
}

// TestShardInboxShedsSYNsAtCap pins the routeRemote overload contract:
// with MonInboxCap set and a shard's inbox already at the cap, an
// arriving KMSyn is shed — counter bumped, KMRefused bounced, inbox NOT
// grown — while every other kind (an in-flight protocol step whose loss
// would wedge the peer) still appends past the cap. The overload drill
// exercises this path only probabilistically (the router usually drains
// faster than the fabric delivers), so the invariant is pinned here.
func TestShardInboxShedsSYNsAtCap(t *testing.T) {
	s, ma, mb, _, _ := newHostPair()
	Peer(ma, mb)
	defer SetMonInboxCap(SetMonInboxCap(1))
	s.Spawn("t", func(ctx exec.Context) {
		ma.mu.Lock()
		mc := ma.peers["b"].mc
		ma.mu.Unlock()
		if mc == nil {
			t.Error("peer channel missing")
			return
		}
		syn := &ctlmsg.Msg{Kind: ctlmsg.KMSyn, ConnID: 4242, Port: 80}
		sh := ma.shardFor(syn)
		// Pre-fill the shard's inbox to the cap with inert work (a
		// heartbeat drains as a no-op if the shard loop gets to it).
		ma.mu.Lock()
		sh.inbox = append(sh.inbox, shardEvent{cm: ctlmsg.Msg{Kind: ctlmsg.KMHeartbeat}, mc: mc})
		ma.mu.Unlock()
		shed0 := sh.cInboxShed.Load()

		ma.routeRemote(ctx, mc, syn)
		ma.mu.Lock()
		n := len(sh.inbox)
		ma.mu.Unlock()
		if got := sh.cInboxShed.Load() - shed0; got != 1 {
			t.Errorf("inbox shed counter: got %d, want 1", got)
		}
		if n != 1 {
			t.Errorf("SYN appended past the cap: inbox len %d, want 1", n)
		}

		// A non-SYN kind must still append — shedding it would wedge an
		// in-flight handshake instead of refusing a retryable dial.
		ack := &ctlmsg.Msg{Kind: ctlmsg.KMSynAck, ConnID: 4242, Port: 80}
		ma.routeRemote(ctx, mc, ack)
		ma.mu.Lock()
		n = len(sh.inbox)
		ma.mu.Unlock()
		if n != 2 {
			t.Errorf("non-SYN kind was shed at the cap: inbox len %d, want 2", n)
		}
	})
	s.Run()
}

func TestStopTerminatesDaemon(t *testing.T) {
	s, ma, mb, _, _ := newHostPair()
	ma.Stop()
	mb.Stop()
	end := s.Run() // must terminate promptly with both daemons stopped
	if end < 0 {
		t.Fatal("impossible")
	}
}

// TestRouterPollOrderFollowsNames: the router drains its monitor channels
// and kernel listeners from snapshots sorted by peer name and by port, kept
// in step with the maps on every insert and delete — the order must be a
// function of state, not of Go's map hash, or virtual timestamps downstream
// differ from run to run.
func TestRouterPollOrderFollowsNames(t *testing.T) {
	s := exec.NewSim(exec.SimConfig{})
	costs := costmodel.Default
	net := host.NewNet(s.Clock(), &costs, 1)
	start := func(name string) *Monitor {
		h := host.New(name, s, &costs, 1)
		net.Join(h)
		return Start(h, ksocket.New(h))
	}
	hub := start("hub")
	order := func() string {
		hub.mu.Lock()
		defer hub.mu.Unlock()
		if len(hub.peerList) != len(hub.peers) {
			t.Fatalf("%d peers listed, %d on record", len(hub.peerList), len(hub.peers))
		}
		out := ""
		for _, p := range hub.peerList {
			if hub.peers[p.name] != p {
				t.Fatalf("listed peer %s is not the one on record", p.name)
			}
			if p.mc == nil {
				continue // a record outlives its channel; the router polls channels
			}
			if p.mc.peer != p.name {
				t.Fatalf("peer %s holds the channel toward %s", p.name, p.mc.peer)
			}
			out += p.name + " "
		}
		return out
	}
	for _, name := range []string{"delta", "alpha", "echo", "charlie", "bravo"} {
		Peer(hub, start(name))
	}
	if got := order(); got != "alpha bravo charlie delta echo " {
		t.Fatalf("poll order after inserts: %s", got)
	}
	hub.mu.Lock()
	hub.peers["charlie"].mc = nil
	hub.mu.Unlock()
	if got := order(); got != "alpha bravo delta echo " {
		t.Fatalf("poll order after a delete: %s", got)
	}
	for _, port := range []uint16{9003, 9001, 9002} {
		hub.addListener(port, 1, 1)
	}
	hub.mu.Lock()
	var ports []uint16
	for _, k := range hub.kernLs {
		ports = append(ports, k.port)
	}
	hub.mu.Unlock()
	if len(ports) != 3 || ports[0] != 9001 || ports[1] != 9002 || ports[2] != 9003 {
		t.Fatalf("kernel listener poll order %v", ports)
	}
	hub.Stop()
	hub.mu.Lock()
	left := len(hub.kernLs)
	hub.mu.Unlock()
	if left != 0 {
		t.Fatalf("%d kernel listeners still polled after Stop", left)
	}
}
