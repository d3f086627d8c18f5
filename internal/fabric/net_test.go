package fabric

import (
	"testing"

	"socksdirect/internal/exec"
)

// arrival records one delivered frame at a port.
type arrival struct {
	src string
	val int
	at  int64
}

func collect(clk exec.Clock, p *Port) *[]arrival {
	out := new([]arrival)
	p.SetHandler(func(src string, f any, _ int) {
		*out = append(*out, arrival{src: src, val: f.(int), at: clk.Now()})
	})
	return out
}

func TestNetRoutesByDestination(t *testing.T) {
	s := exec.NewSim(exec.SimConfig{})
	clk := s.Clock()
	n := NewNet(clk, "test", Config{PropDelay: 500})
	pa := n.AddHost("a")
	pb := n.AddHost("b")
	pc := n.AddHost("c")
	gotB := collect(clk, pb)
	gotC := collect(clk, pc)

	s.Spawn("tx", func(ctx exec.Context) {
		pa.EdgeTo("b").Send(1, 64)
		pa.EdgeTo("c").Send(2, 64)
		pc.EdgeTo("b").Send(3, 64)
		if pa.EdgeTo("nowhere") != nil {
			t.Error("EdgeTo(nowhere) found an edge")
		}
		ctx.Sleep(5000)
	})
	s.Run()

	if len(*gotB) != 2 {
		t.Fatalf("b received %d frames, want 2: %+v", len(*gotB), *gotB)
	}
	if (*gotB)[0].src != "a" || (*gotB)[0].val != 1 {
		t.Errorf("b's first frame = %+v, want src=a val=1", (*gotB)[0])
	}
	if (*gotB)[1].src != "c" || (*gotB)[1].val != 3 {
		t.Errorf("b's second frame = %+v, want src=c val=3", (*gotB)[1])
	}
	if len(*gotC) != 1 || (*gotC)[0].src != "a" || (*gotC)[0].val != 2 {
		t.Fatalf("c received %+v, want one frame src=a val=2", *gotC)
	}
	if (*gotB)[0].at < 500 {
		t.Errorf("delivery at %d, want >= 500 (prop delay)", (*gotB)[0].at)
	}
}

// TestNetEdgeKnobsAreDirectional pins the property the asymmetric-fault
// work relies on: partitioning Edge(a,b) blackholes a's frames toward b
// while b's frames toward a — and a's frames toward c — still flow.
func TestNetEdgeKnobsAreDirectional(t *testing.T) {
	s := exec.NewSim(exec.SimConfig{})
	clk := s.Clock()
	n := NewNet(clk, "test", Config{PropDelay: 10})
	pa := n.AddHost("a")
	pb := n.AddHost("b")
	pc := n.AddHost("c")
	gotA := collect(clk, pa)
	gotB := collect(clk, pb)
	gotC := collect(clk, pc)

	if n.Edge("a", "b") == nil || n.Edge("b", "a") == nil {
		t.Fatal("missing directed edges")
	}
	if n.Edge("a", "b") == n.Edge("b", "a") {
		t.Fatal("both directions resolve to one endpoint")
	}
	n.Edge("a", "b").SetPartitioned(true)

	s.Spawn("tx", func(ctx exec.Context) {
		pa.EdgeTo("b").Send(1, 64) // dropped: a->b is cut
		pb.EdgeTo("a").Send(2, 64) // delivered: reverse direction intact
		pa.EdgeTo("c").Send(3, 64) // delivered: other edges untouched
		ctx.Sleep(1000)
	})
	s.Run()

	if len(*gotB) != 0 {
		t.Errorf("b received %+v across a partitioned a->b edge", *gotB)
	}
	if len(*gotA) != 1 || (*gotA)[0].val != 2 {
		t.Errorf("a received %+v, want the b->a frame", *gotA)
	}
	if len(*gotC) != 1 || (*gotC)[0].val != 3 {
		t.Errorf("c received %+v, want the a->c frame", *gotC)
	}
	if drops := n.Edge("a", "b").Stats().Drops; drops != 1 {
		t.Errorf("a->b drops = %d, want 1", drops)
	}
}

// TestNetSeedsIndependentOfJoinOrder pins the determinism contract: the
// per-edge rng streams derive from the unordered host pair, so two runs
// that attach hosts in different orders see identical loss decisions.
func TestNetSeedsIndependentOfJoinOrder(t *testing.T) {
	run := func(order []string) uint64 {
		s := exec.NewSim(exec.SimConfig{})
		n := NewNet(s.Clock(), "test", Config{PropDelay: 10, LossRate: 0.3, Seed: 77})
		for _, h := range order {
			n.AddHost(h)
		}
		pa := n.AddHost("a")
		n.AddHost("b").SetHandler(func(string, any, int) {})
		s.Spawn("tx", func(ctx exec.Context) {
			for i := 0; i < 200; i++ {
				pa.EdgeTo("b").Send(i, 64)
			}
			ctx.Sleep(1000)
		})
		s.Run()
		return n.Edge("a", "b").Stats().Drops
	}
	d1 := run([]string{"a", "b", "c"})
	d2 := run([]string{"c", "b", "a"})
	if d1 == 0 {
		t.Fatal("no drops at 30% loss over 200 frames — loss path dead")
	}
	if d1 != d2 {
		t.Fatalf("drop count depends on join order: %d vs %d", d1, d2)
	}
}

func TestNetAddHostIdempotentAndPeers(t *testing.T) {
	s := exec.NewSim(exec.SimConfig{})
	n := NewNet(s.Clock(), "test", Config{})
	pa := n.AddHost("a")
	n.AddHost("b")
	if again := n.AddHost("a"); again != pa {
		t.Fatal("re-adding a host returned a fresh port")
	}
	if pa.EdgeTo("b") == nil || pa.EdgeTo("b") != n.Edge("a", "b") || pa.EdgeTo("zzz") != nil {
		t.Fatal("EdgeTo is wrong")
	}
	if pa.EdgeTo("a") != nil {
		t.Fatal("a host has an edge toward itself")
	}
}

// releaseCount is a frame that counts the fabric's releases of it.
type releaseCount struct{ n int }

func (r *releaseCount) ReleaseFrame() { r.n++ }

// TestDeliveryCensus: every delivery an edge schedules is back on its Net's
// one free list once the wire drains, whether the frame landed, was lost or
// met a cut edge, and the fabric released each transmitted frame once. The
// Net starts with a known set of deliveries and may make no more.
func TestDeliveryCensus(t *testing.T) {
	const stock = 256
	s := exec.NewSim(exec.SimConfig{})
	n := NewNet(s.Clock(), "test", Config{PropDelay: 500, GbitPerSec: 10, LossRate: 0.2, Seed: 4})
	ports := []*Port{n.AddHost("a"), n.AddHost("b"), n.AddHost("c")}
	census := map[*delivery]bool{}
	for i := 0; i < stock; i++ {
		d := new(delivery)
		d.fn = d.run
		census[d] = true
		n.deliveries.Put(d)
	}
	n.Edge("c", "a").SetPartitioned(true)
	frames := make([]releaseCount, 300)
	s.Spawn("tx", func(ctx exec.Context) {
		for i := range frames {
			src := ports[i%3]
			src.EdgeTo(ports[(i+1+i/3%2)%3].host).Send(&frames[i], 1024)
			ctx.Charge(100)
		}
	})
	s.Run()
	for i := range frames {
		if frames[i].n != 1 {
			t.Fatalf("frame %d released %d times, want 1", i, frames[i].n)
		}
	}
	if st := n.Edge("a", "b").Stats(); st.Drops == 0 || st.RxFrames == 0 {
		t.Fatalf("edge a->b stats %+v: the census saw no loss or no delivery", st)
	}
	if len(n.deliveries) != stock {
		t.Fatalf("%d deliveries on the Net's list after the drain, want the %d it started with", len(n.deliveries), stock)
	}
	for _, d := range n.deliveries {
		if !census[d] {
			t.Fatal("a delivery the Net did not start with, or one twice, is on its list")
		}
		delete(census, d)
	}
}
