package fabric

import (
	"testing"

	"socksdirect/internal/exec"
)

func TestLinkDeliversInOrderWithPropDelay(t *testing.T) {
	s := exec.NewSim(exec.SimConfig{})
	clk := s.Clock()
	a, b := NewLink(clk, "a", "b", Config{PropDelay: 800})
	var got []int
	var times []int64
	b.SetHandler(func(f any, _ int) {
		got = append(got, f.(int))
		times = append(times, clk.Now())
	})
	s.Spawn("tx", func(ctx exec.Context) {
		for i := 0; i < 5; i++ {
			a.Send(i, 64)
			ctx.Charge(50)
		}
		ctx.Sleep(5000)
	})
	s.Run()
	if len(got) != 5 {
		t.Fatalf("delivered %d frames, want 5", len(got))
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("out of order: %v", got)
		}
	}
	if times[0] < 800 {
		t.Fatalf("first delivery at %d, want >= 800 (prop delay)", times[0])
	}
}

func TestBandwidthSerialization(t *testing.T) {
	s := exec.NewSim(exec.SimConfig{})
	clk := s.Clock()
	// 8 Gbps -> 1 byte per ns. 1000-byte frames serialize in 1000 ns each.
	a, b := NewLink(clk, "a", "b", Config{PropDelay: 0, GbitPerSec: 8})
	var last int64
	b.SetHandler(func(f any, _ int) { last = clk.Now() })
	s.Spawn("tx", func(ctx exec.Context) {
		for i := 0; i < 10; i++ {
			a.Send(i, 1000) // all enqueued at t~0
		}
		ctx.Sleep(20000)
	})
	s.Run()
	if last < 10000 {
		t.Fatalf("10 x 1000B at 8Gbps should take >= 10000 ns, last delivery %d", last)
	}
}

func TestLossInjectionDeterministic(t *testing.T) {
	run := func() uint64 {
		s := exec.NewSim(exec.SimConfig{})
		a, b := NewLink(s.Clock(), "a", "b", Config{LossRate: 0.3, Seed: 99})
		delivered := uint64(0)
		b.SetHandler(func(f any, _ int) { delivered++ })
		s.Spawn("tx", func(ctx exec.Context) {
			for i := 0; i < 1000; i++ {
				a.Send(i, 64)
			}
			ctx.Sleep(1000)
		})
		s.Run()
		return delivered
	}
	d1, d2 := run(), run()
	if d1 != d2 {
		t.Fatalf("same seed gave different delivery counts: %d vs %d", d1, d2)
	}
	if d1 > 900 || d1 < 500 {
		t.Fatalf("loss rate 0.3 delivered %d of 1000", d1)
	}
}

func TestLoopbackHairpin(t *testing.T) {
	s := exec.NewSim(exec.SimConfig{})
	clk := s.Clock()
	lo := NewLoopback(clk, "lo", Config{PropDelay: 475})
	var at int64
	lo.SetHandler(func(f any, _ int) { at = clk.Now() })
	s.Spawn("tx", func(ctx exec.Context) {
		lo.Send("x", 64)
		ctx.Sleep(10000)
	})
	s.Run()
	if at < 475 {
		t.Fatalf("hairpin delivery at %d, want >= 475", at)
	}
}

func TestStatsCounting(t *testing.T) {
	s := exec.NewSim(exec.SimConfig{})
	a, b := NewLink(s.Clock(), "a", "b", Config{})
	b.SetHandler(func(f any, _ int) {})
	s.Spawn("tx", func(ctx exec.Context) {
		for i := 0; i < 7; i++ {
			a.Send(i, 128)
		}
		ctx.Sleep(100)
	})
	s.Run()
	if st := a.Stats(); st.TxFrames != 7 || st.TxBytes != 7*128 {
		t.Fatalf("tx stats %+v", st)
	}
	if st := b.Stats(); st.RxFrames != 7 {
		t.Fatalf("rx stats %+v", st)
	}
}

func TestJitterReordersButDelivers(t *testing.T) {
	s := exec.NewSim(exec.SimConfig{})
	a, b := NewLink(s.Clock(), "a", "b", Config{PropDelay: 100, JitterNs: 5000, Seed: 3})
	n := 0
	reordered := false
	lastV := -1
	b.SetHandler(func(f any, _ int) {
		v := f.(int)
		if v < lastV {
			reordered = true
		}
		lastV = v
		n++
	})
	s.Spawn("tx", func(ctx exec.Context) {
		for i := 0; i < 200; i++ {
			a.Send(i, 64)
			ctx.Charge(20)
		}
		ctx.Sleep(50000)
	})
	s.Run()
	if n != 200 {
		t.Fatalf("delivered %d of 200", n)
	}
	if !reordered {
		t.Fatal("jitter produced no reordering (seed too tame?)")
	}
}

// TestRandomSourceBuiltOnFirstDraw: an endpoint with neither loss nor
// jitter never builds its random source; one whose loss is switched on
// later draws the same drops as one configured lossy from the start, the
// source seeded alike.
func TestRandomSourceBuiltOnFirstDraw(t *testing.T) {
	drops := func(lossLater bool) (uint64, bool) {
		s := exec.NewSim(exec.SimConfig{})
		cfg := Config{PropDelay: 10, LossRate: 0.3, Seed: 5}
		if lossLater {
			cfg.LossRate = 0
		}
		a, b := NewLink(s.Clock(), "a", "b", cfg)
		b.SetHandler(func(any, int) {})
		built := false
		s.Spawn("tx", func(ctx exec.Context) {
			if lossLater {
				for i := 0; i < 50; i++ {
					a.Send(i, 64)
				}
				built = a.rng != nil || b.rng != nil
				a.SetLossRate(0.3)
			}
			for i := 0; i < 200; i++ {
				a.Send(i, 64)
			}
			ctx.Sleep(1000)
		})
		s.Run()
		return a.Stats().Drops, built
	}
	want, _ := drops(false)
	got, built := drops(true)
	if built {
		t.Error("a lossless, jitter-free link built a random source")
	}
	if want == 0 || got != want {
		t.Errorf("%d drops with the loss switched on later, %d with it from the start", got, want)
	}
}
