package core_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"socksdirect/internal/core"
	"socksdirect/internal/costmodel"
	"socksdirect/internal/exec"
	"socksdirect/internal/host"
	"socksdirect/internal/ksocket"
	"socksdirect/internal/monitor"
	"socksdirect/internal/rdma"
	"socksdirect/internal/telemetry"
)

// Tests of the ordered inter-host open (ARCHITECTURE.md "Connection
// lifecycle", the open half): whichever side learns its peer's QPN first
// connects passive and holds its writes for the peer's RTU, so no packet of
// a new QP pair is ever sent at a QP that is not connected yet.

// wire is the set of counters an ordered open must leave alone.
type wire struct{ retransmits, notReady, fabricDrops, recoveries int64 }

func readWire() wire {
	return wire{
		retransmits: telemetry.C(telemetry.RdmaRetransmits).Load(),
		notReady:    telemetry.C(telemetry.RdmaNotReadyDrops).Load(),
		fabricDrops: telemetry.C(telemetry.FabricDrops).Load(),
		recoveries:  telemetry.C(telemetry.FaultRecoveries).Load(),
	}
}

func (w wire) since(b wire) wire {
	return wire{w.retransmits - b.retransmits, w.notReady - b.notReady,
		w.fabricDrops - b.fabricDrops, w.recoveries - b.recoveries}
}

// echoOnce dials, echoes 8 bytes and closes; it returns how long the dial
// and the echo took.
func echoOnce(t *testing.T, ctx exec.Context, th *host.Thread, l *core.Libsd, dst string, port uint16) (dial, echo int64) {
	t.Helper()
	req, reply := []byte("8 bytes!"), make([]byte, 8)
	t0 := ctx.Now()
	s, _, err := l.Connect(ctx, th, dst, port)
	dial = ctx.Now() - t0
	if err != nil {
		t.Errorf("connect %s: %v", dst, err)
		return dial, 0
	}
	t1 := ctx.Now()
	if _, err := s.Send(ctx, th, req); err != nil {
		t.Errorf("send: %v", err)
	}
	if m, err := s.Recv(ctx, th, reply); err != nil || !bytes.Equal(reply[:m], req) {
		t.Errorf("echo %q, %v", reply[:m], err)
	}
	echo = ctx.Now() - t1
	s.Close(ctx, th)
	return dial, echo
}

// TestCrossHostDialLoop: a sequential dial → echo → close loop across two
// hosts. With the server's MAck ordered behind the dialer's RTU no dial
// waits out an RTO (761 937 sim-ns each before). The first two dials are
// cold, two QP creations each; every later one goes out on the pair the
// first left parked and creates nothing (64 154 sim-ns each before).
func TestCrossHostDialLoop(t *testing.T) {
	w := newWorld(t)
	monitor.Peer(w.ma, w.mb)
	sp, sl := proc(t, w.b, "server", 0)
	cp, cl := proc(t, w.a, "client", 1000)
	sp.Spawn("srv", echoServer(t, sl, 7500))
	var lats []int64
	var d wire
	var p parkCounts
	cp.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
		ctx.Sleep(10_000)
		w0, p0 := readWire(), readPark()
		for i := 0; i < 20; i++ {
			dial, _ := echoOnce(t, ctx, th, cl, "hostB", 7500)
			lats = append(lats, dial)
		}
		d, p = readWire().since(w0), readPark().since(p0)
		sp.Signal(ctx, host.SIGKILL)
	})
	w.sim.Run()
	t.Logf("dial latencies %v", lats)
	// The first dial pins both sides' fresh pools. The second follows the
	// first one's Close at once: the client's only pool is still in the
	// close handshake, so it pins another, and its QP is parked only when
	// the server's MShut has arrived, ~4 µs later, so it has none to offer
	// and creates another. The third is the first hit; the server, its
	// first pools still in their close handshakes, pins one more for it: 128
	// page operations, ~100 µs.
	qps := 2 * costmodel.Default.RDMAQPCreate
	for i, lat := range lats {
		switch {
		case lat >= rdma.DefaultRTO:
			t.Errorf("dial %d took %d sim-ns: it sat out an RTO", i, lat)
		case i < 2 && lat < qps:
			t.Errorf("cold dial %d took %d sim-ns, less than its two QP creations", i, lat)
		case i == 2 && lat > 110_000:
			t.Errorf("first warm dial took %d sim-ns, want at most 110 000", lat)
		case i > 2 && lat > 8_000:
			t.Errorf("warm dial %d took %d sim-ns, want at most 8 000", i, lat)
		}
	}
	if d != (wire{}) {
		t.Errorf("a clean dial loop moved %+v", d)
	}
	if want := (parkCounts{hits: 18, created: 4}); p != want {
		t.Errorf("20 dials: %+v, want %+v: QPs are created by the two cold dials only", p, want)
	}
}

// mesh is n SocksDirect hosts on one routed fabric, every pair of monitors
// peered: the cluster the ledger's cluster_dial workload builds.
type mesh struct {
	sim   *exec.Sim
	hosts []*host.Host
}

func newMesh(n int) *mesh {
	s := exec.NewSim(exec.SimConfig{})
	costs := costmodel.Default
	net := host.NewNet(s.Clock(), host.LinkConfig(&costs, 1))
	m := &mesh{sim: s}
	var mons []*monitor.Monitor
	for i := 0; i < n; i++ {
		h := host.New(fmt.Sprintf("h%d", i), s, &costs, uint64(i+1))
		net.Join(h)
		mon := monitor.Start(h, ksocket.New(h))
		for _, other := range mons {
			monitor.Peer(other, mon)
		}
		m.hosts, mons = append(m.hosts, h), append(mons, mon)
	}
	return m
}

// clusterDial runs three client hosts against three server hosts, dial →
// echo → close, client c's k-th dial going to server pick(c, k). It returns
// every dial's latency per client and the virtual time the cluster went
// quiet at.
func clusterDial(t *testing.T, rounds int, pick func(c, k int) int) (lats [3][]int64, end int64) {
	t.Helper()
	m := newMesh(6)
	for s := 0; s < 3; s++ {
		sp, sl := proc(t, m.hosts[s], "server", 0)
		sp.Spawn("srv", echoServer(t, sl, 7501))
	}
	for c := 0; c < 3; c++ {
		c := c
		cp, cl := proc(t, m.hosts[3+c], "client", 1000)
		// A core of its own: every host numbers its cores from 1, so the
		// three clients' threads would otherwise take turns on one.
		cp.SpawnOn(exec.CoreID(100+c), "cli", func(ctx exec.Context, th *host.Thread) {
			ctx.Sleep(10_000)
			for k := 0; k < rounds; k++ {
				dial, _ := echoOnce(t, ctx, th, cl, fmt.Sprintf("h%d", pick(c, k)), 7501)
				lats[c] = append(lats[c], dial)
			}
		})
	}
	return lats, m.sim.Run()
}

func clusterRounds() int {
	if raceEnabled {
		return 6
	}
	return 12
}

// TestClusterDialOrdered: the ledger's cluster_dial shape — each client
// takes the servers in turn, one client per server at a time — drops
// nothing, retransmits nothing, and once the pools are warm no dial waits
// out an RTO.
func TestClusterDialOrdered(t *testing.T) {
	w0 := readWire()
	lats, _ := clusterDial(t, clusterRounds(), func(c, k int) int { return (c + k) % 3 })
	if d := readWire().since(w0); d != (wire{}) {
		t.Errorf("a clean 3×3 dial loop moved %+v", d)
	}
	t.Logf("dial latencies %v", lats)
	for c := range lats {
		// The first two dials of each client pin fresh pools, one after
		// another on the simulated core every host's k-th thread shares.
		for k, lat := range lats[c] {
			if k >= 2 && lat >= rdma.DefaultRTO {
				t.Errorf("client %d dial %d took %d sim-ns: it sat out an RTO", c, k, lat)
			}
		}
	}
}

// TestClusterDialRepeatable: all three clients dial the same server in the
// same round, so its monitor finds SYNs on three channels in one pass of
// its loop. It drains them in peer-name order, not Go's map order, so a
// second run in the same process repeats every latency and the virtual
// time the cluster went quiet at.
func TestClusterDialRepeatable(t *testing.T) {
	same := func(c, k int) int { return k % 3 }
	w0 := readWire()
	lats, end := clusterDial(t, clusterRounds(), same)
	lats2, end2 := clusterDial(t, clusterRounds(), same)
	if !reflect.DeepEqual(lats, lats2) || end != end2 {
		t.Errorf("two runs differ: ended at %d and %d\n%v\n%v", end, end2, lats, lats2)
	}
	if d := readWire().since(w0); d != (wire{}) {
		t.Errorf("clean dial loops moved %+v", d)
	}
}

// netCensus is a census with the idle zero-copy pools taken out: a
// recycled pool keeps its MR and its pins on purpose. (Parked QPs are a
// column of their own.)
func netCensus(w *world, libs ...*core.Libsd) census {
	c := takeCensus(w, libs...)
	for _, l := range libs {
		c.mrs -= l.IdleZCPools()
		c.pinned -= l.IdleZCPools() * core.ZCPoolPages
	}
	return c
}

// TestStolenAcceptInterHost: two listener processes on host B, one asleep;
// the dial dispatched to the sleeper is stolen by the other. The thief's
// endpoint is passive and knows the dialer's QPN, so the dialer re-targets
// its QP at the thief (second KConnectRes) instead of talking to the
// victim's destroyed QP until retry exhaustion repaired it (first echo at
// 10 262 µs before). The victim's endpoint leaves nothing behind.
func TestStolenAcceptInterHost(t *testing.T) {
	w := newWorld(t)
	monitor.Peer(w.ma, w.mb)
	p1, l1 := proc(t, w.b, "awake", 0)
	p2, l2 := proc(t, w.b, "asleep", 0)
	cp, cl := proc(t, w.a, "client", 1000)
	p1.Spawn("srv", echoServer(t, l1, 7502))
	p2.Spawn("srv", func(ctx exec.Context, th *host.Thread) {
		if _, err := l2.ListenOn(ctx, th, 7502); err != nil {
			t.Errorf("listen: %v", err)
		}
		ctx.Sleep(20_000_000) // never accepts what is dispatched to it
	})
	steals := telemetry.C(telemetry.MonWorkSteals)
	var base, end census
	var d wire
	var stolen int64
	var echoes [2]int64
	done, drained := 0, 0
	for i := 0; i < 2; i++ {
		i := i
		cp.Spawn(fmt.Sprintf("dialer%d", i), func(ctx exec.Context, th *host.Thread) {
			ctx.Sleep(10_000)
			_, echoes[i] = echoOnce(t, ctx, th, cl, "hostB", 7502)
			done++
		})
	}
	cp.Spawn("census", func(ctx exec.Context, th *host.Thread) {
		ctx.Sleep(5_000)
		base = netCensus(w, l1, l2, cl)
		w0, s0 := readWire(), steals.Load()
		for done < 2 {
			ctx.Sleep(100_000)
		}
		ctx.Sleep(5_000_000)
		end = netCensus(w, l1, l2, cl)
		d, stolen = readWire().since(w0), steals.Load()-s0
		for _, l := range []*core.Libsd{l1, l2, cl} {
			l.DrainParkedQPs()
		}
		drained = w.a.NIC.QPCount() + w.b.NIC.QPCount()
		p1.Signal(ctx, host.SIGKILL)
	})
	w.sim.Run()
	if stolen != 1 {
		t.Fatalf("%d steals, want the sleeper's one dial stolen", stolen)
	}
	for i, e := range echoes {
		if e <= 0 || e > 100_000 {
			t.Errorf("dialer %d: echo finished %d sim-ns after its dial, want within 100 000", i, e)
		}
	}
	if d != (wire{}) {
		t.Errorf("stolen accept moved %+v", d)
	}
	// Both connections ended at the thief: two pairs parked, the victim's
	// endpoint left nothing.
	base.parked += 4
	if end != base {
		t.Errorf("census after the stolen accept %+v, want %+v", end, base)
	}
	if drained != base.qps {
		t.Errorf("%d QPs on the NICs with the parked ones closed, want the %d from before", drained, base.qps)
	}
}

// stream is the byte-exact payload of the fork and recovery tests: message
// i is 1 KiB starting with i.
func streamMsg(buf []byte, i int) []byte {
	for j := range buf {
		buf[j] = byte(i + j)
	}
	binary.LittleEndian.PutUint64(buf, uint64(i))
	return buf
}

// recvExact reads msgs messages of stream order [from, from+msgs) off s.
func recvExact(t *testing.T, ctx exec.Context, th *host.Thread, s *core.Socket, from, msgs int) bool {
	t.Helper()
	got, want := make([]byte, 1024), make([]byte, 1024)
	for i := from; i < from+msgs; i++ {
		for n := 0; n < len(got); {
			m, err := s.Recv(ctx, th, got[n:])
			if err != nil {
				t.Errorf("recv message %d: %v", i, err)
				return false
			}
			n += m
		}
		if !bytes.Equal(got, streamMsg(want, i)) {
			t.Errorf("message %d corrupt", i)
			return false
		}
	}
	return true
}

// TestForkUnderStreamingPeer: the client forks while the server streams at
// it, and the child takes the stream over. The server's KReQPPeer handler
// learns the child's QPN first, so its new QP is passive: the stream it
// switches onto that QP waits for the child's RTU instead of being dropped
// at a QP the child has not connected yet.
func TestForkUnderStreamingPeer(t *testing.T) {
	w := newWorld(t)
	monitor.Peer(w.ma, w.mb)
	sp, sl := proc(t, w.b, "server", 0)
	cp, cl := proc(t, w.a, "client", 0)
	const msgs, parentReads = 200, 50
	sp.Spawn("srv", func(ctx exec.Context, th *host.Thread) {
		lst, _ := sl.ListenOn(ctx, th, 7503)
		s, _, err := lst.Accept(ctx)
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		// Paced well under the ring's size per fork (a fork is two control
		// round trips at 100 µs a wait step), so the server is mid-stream,
		// not blocked on a full ring, when the splice request arrives.
		buf := make([]byte, 1024)
		for i := 0; i < msgs; i++ {
			if _, err := s.Send(ctx, th, streamMsg(buf, i)); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
			ctx.Sleep(10_000)
		}
	})
	var d wire
	childOK := false
	cp.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
		ctx.Sleep(10_000)
		s, _, err := cl.Connect(ctx, th, "hostB", 7503)
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		w0 := readWire()
		if !recvExact(t, ctx, th, s, 0, parentReads) {
			return
		}
		child, childLib, err := cl.Fork(ctx, th, "child")
		if err != nil {
			t.Errorf("fork: %v", err)
			return
		}
		childDone := false
		child.Spawn("cmain", func(cctx exec.Context, cth *host.Thread) {
			defer func() { childDone = true }()
			cs, err := childLib.SocketByFD(s.FD())
			if err != nil {
				t.Errorf("child fd: %v", err)
				return
			}
			childOK = recvExact(t, cctx, cth, cs, parentReads, msgs-parentReads)
		})
		for !childDone {
			ctx.Sleep(10_000)
		}
		d = readWire().since(w0)
	})
	w.sim.Run()
	if !childOK {
		t.Fatal("the child did not read the rest of the stream")
	}
	if d != (wire{}) {
		t.Errorf("fork under a streaming peer moved %+v", d)
	}
}

// TestRecoveryOpensOrdered: a QP that dies mid-stream is replaced through
// KReQP. The peer's handler connects its replacement first and
// resyncs straight away; passive, those writes wait for the requester's
// RTU, so recovery itself drops nothing and the stream stays byte-exact.
func TestRecoveryOpensOrdered(t *testing.T) {
	w := newWorld(t)
	monitor.Peer(w.ma, w.mb)
	sp, sl := proc(t, w.b, "server", 0)
	cp, cl := proc(t, w.a, "client", 1000)
	const before, after = 20, 40
	sp.Spawn("srv", func(ctx exec.Context, th *host.Thread) {
		lst, _ := sl.ListenOn(ctx, th, 7504)
		s, _, err := lst.Accept(ctx)
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		// One byte back per phase, so the wire is quiet when the QP dies.
		if recvExact(t, ctx, th, s, 0, before) {
			s.Send(ctx, th, []byte{1})
		}
		if recvExact(t, ctx, th, s, before, after) {
			s.Send(ctx, th, []byte{2})
		}
	})
	var d wire
	var last byte
	cp.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
		ctx.Sleep(10_000)
		s, _, err := cl.Connect(ctx, th, "hostB", 7504)
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		buf, ack := make([]byte, 1024), make([]byte, 1)
		for i := 0; i < before; i++ {
			s.Send(ctx, th, streamMsg(buf, i))
		}
		if _, err := s.Recv(ctx, th, ack); err != nil || ack[0] != 1 {
			t.Errorf("first phase ack %v, %v", ack, err)
			return
		}
		// The server's ack came behind its last credit write: the wire is
		// quiet, so whatever a QP drops from here on is recovery's doing.
		w0 := readWire()
		s.FailQP()
		for i := before; i < before+after; i++ {
			s.Send(ctx, th, streamMsg(buf, i))
		}
		if _, err := s.Recv(ctx, th, ack); err != nil {
			t.Errorf("second phase ack: %v", err)
			return
		}
		last = ack[0]
		d = readWire().since(w0)
	})
	w.sim.Run()
	if last != 2 {
		t.Fatal("the stream did not finish byte-exact after the QP failure")
	}
	if d.recoveries != 1 {
		t.Errorf("%d recoveries, want 1", d.recoveries)
	}
	if d.notReady != 0 || d.retransmits != 0 || d.fabricDrops != 0 {
		t.Errorf("recovery moved %+v", d)
	}
}

// TestSilentQPErrorRecovers: a QP that errors while idle has no work
// request to complete in error, so no CQE reports it; the endpoint learns
// of it when its next post is refused. That refusal must fail the endpoint
// into recovery with the bytes still unflushed — never mark them flushed
// and go quiet. The stream after the error stays byte-exact.
func TestSilentQPErrorRecovers(t *testing.T) {
	w := newWorld(t)
	monitor.Peer(w.ma, w.mb)
	sp, sl := proc(t, w.b, "server", 0)
	cp, cl := proc(t, w.a, "client", 1000)
	const before, after = 20, 40
	sp.Spawn("srv", func(ctx exec.Context, th *host.Thread) {
		lst, _ := sl.ListenOn(ctx, th, 7506)
		s, _, err := lst.Accept(ctx)
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		if recvExact(t, ctx, th, s, 0, before) {
			s.Send(ctx, th, []byte{1})
		}
		if recvExact(t, ctx, th, s, before, after) {
			s.Send(ctx, th, []byte{2})
		}
	})
	var d wire
	var last byte
	cp.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
		ctx.Sleep(10_000)
		s, _, err := cl.Connect(ctx, th, "hostB", 7506)
		if err != nil {
			t.Errorf("connect: %v", err)
			return
		}
		buf, ack := make([]byte, 1024), make([]byte, 1)
		for i := 0; i < before; i++ {
			s.Send(ctx, th, streamMsg(buf, i))
		}
		if _, err := s.Recv(ctx, th, ack); err != nil || ack[0] != 1 {
			t.Errorf("first phase ack %v, %v", ack, err)
			return
		}
		w0 := readWire()
		s.ErrorQPSilently() // the wire is quiet: nothing completes in error
		for i := before; i < before+after; i++ {
			if _, err := s.Send(ctx, th, streamMsg(buf, i)); err != nil {
				t.Errorf("send %d after the silent error: %v", i, err)
				return
			}
		}
		if _, err := s.Recv(ctx, th, ack); err != nil {
			t.Errorf("second phase ack: %v", err)
			return
		}
		last = ack[0]
		d = readWire().since(w0)
	})
	w.sim.Run()
	if last != 2 {
		t.Fatal("sends after a silent QP error reported success and were never delivered")
	}
	if d.recoveries != 1 {
		t.Errorf("%d recoveries, want 1", d.recoveries)
	}
}

// TestAbandonedDialServerSideEnds: a dialer whose deadline beats the
// control round trip gives up before KConnectRes; its SYN is dispatched and
// accepted regardless. The accepted socket's MAck waits in a passive QP
// whose peer never shows up: the retry clock errors the QP, recovery finds
// nobody, and the socket ends with an errno — not a hang — leaving nothing
// behind on either host.
func TestAbandonedDialServerSideEnds(t *testing.T) {
	w := newWorld(t)
	monitor.Peer(w.ma, w.mb)
	sp, sl := proc(t, w.b, "server", 0)
	cp, cl := proc(t, w.a, "client", 1000)
	sl.SetRecoveryBudget(2)
	var srvErr error
	var srvEnd int64
	accepted := 0
	sp.Spawn("srv", func(ctx exec.Context, th *host.Thread) {
		lst, _ := sl.ListenOn(ctx, th, 7505)
		buf := make([]byte, 8)
		for {
			s, _, err := lst.Accept(ctx)
			if err != nil {
				return
			}
			accepted++
			if accepted == 2 { // the abandoned one
				_, srvErr = s.Recv(ctx, th, buf)
				srvEnd = ctx.Now()
				s.Close(ctx, th)
				continue
			}
			if _, err := s.Recv(ctx, th, buf); err == nil {
				if _, err := s.Send(ctx, th, buf); err == nil {
					s.Recv(ctx, th, buf)
				}
			}
			s.Close(ctx, th)
		}
	})
	var base, end census
	var abandonedAt int64
	cp.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
		ctx.Sleep(10_000)
		echoOnce(t, ctx, th, cl, "hostB", 7505) // warm: pools and rings exist
		ctx.Sleep(5_000_000)
		base = netCensus(w, sl, cl)
		abandonedAt = ctx.Now()
		if _, _, err := cl.ConnectDeadline(ctx, th, "hostB", 7505, ctx.Now()+1); !errors.Is(err, core.ETIMEDOUT) {
			t.Errorf("deadline dial: want ETIMEDOUT, got %v", err)
		}
		for srvEnd == 0 && ctx.Now() < abandonedAt+2_000_000_000 {
			ctx.Sleep(1_000_000)
		}
		ctx.Sleep(20_000_000)
		end = netCensus(w, sl, cl)
		sp.Signal(ctx, host.SIGKILL)
	})
	w.sim.Run()
	if accepted != 2 {
		t.Fatalf("%d accepts, want the warm-up's and the abandoned dial's", accepted)
	}
	if srvEnd == 0 {
		t.Fatal("the accepted socket of an abandoned dial hangs")
	}
	if !errors.Is(srvErr, core.ErrPeerDead) {
		t.Errorf("accepted socket of an abandoned dial: %v, want a reset", srvErr)
	}
	// The passive QP's retry clock alone is (MaxRetry+1) × RTO = 8.5 ms.
	t.Logf("server side ended with %v after %d sim-ns", srvErr, srvEnd-abandonedAt)
	if srvEnd-abandonedAt < (rdma.MaxRetry+1)*rdma.DefaultRTO {
		t.Errorf("ended after %d sim-ns, before the retry bound", srvEnd-abandonedAt)
	}
	// The abandoned dial went out on the pair the warm-up had parked: the
	// dialer closed its half when it gave up, the server adopted the twin
	// and that died of its retries.
	if base.parked != 2 {
		t.Errorf("%d QPs parked after the warm-up, want 2", base.parked)
	}
	base.parked = 0
	if end != base {
		t.Errorf("census after the abandoned dial %+v, want %+v", end, base)
	}
}
