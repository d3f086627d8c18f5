package exec

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

func TestSimChargeAdvancesTime(t *testing.T) {
	s := NewSim(SimConfig{})
	var end int64
	s.Spawn("a", func(ctx Context) {
		ctx.Charge(100)
		ctx.Charge(250)
		end = ctx.Now()
	})
	s.Run()
	if end != 350 {
		t.Fatalf("Now = %d, want 350", end)
	}
}

func TestSimSleepDoesNotOccupyCore(t *testing.T) {
	s := NewSim(SimConfig{})
	var aWake, bDone int64
	s.SpawnOn(0, "a", func(ctx Context) {
		ctx.Sleep(1000)
		aWake = ctx.Now()
	})
	s.SpawnOn(0, "b", func(ctx Context) {
		ctx.Charge(300)
		bDone = ctx.Now()
	})
	s.Run()
	if bDone != 300 {
		t.Fatalf("b finished at %d, want 300 (core free while a sleeps)", bDone)
	}
	if aWake != 1000 {
		t.Fatalf("a woke at %d, want 1000", aWake)
	}
}

func TestSimCoreExclusive(t *testing.T) {
	// Two threads charging on the same core must serialize; on separate
	// cores they overlap.
	run := func(sameCore bool) int64 {
		s := NewSim(SimConfig{})
		body := func(ctx Context) { ctx.Charge(1000) }
		if sameCore {
			s.SpawnOn(0, "a", body)
			s.SpawnOn(0, "b", body)
		} else {
			s.SpawnOn(0, "a", body)
			s.SpawnOn(1, "b", body)
		}
		return s.Run()
	}
	if got := run(true); got != 2000 {
		t.Errorf("same core: end=%d, want 2000", got)
	}
	if got := run(false); got != 1000 {
		t.Errorf("separate cores: end=%d, want 1000", got)
	}
}

func TestSimCausalMessagePassing(t *testing.T) {
	// A message stamped at the producer's virtual time must not be
	// observed by a polling consumer at an earlier time.
	s := NewSim(SimConfig{})
	var slot atomic.Int64 // 0 = empty, else timestamp+1
	var observedAt, sentAt int64
	s.Spawn("producer", func(ctx Context) {
		ctx.Charge(5000)
		sentAt = ctx.Now()
		slot.Store(sentAt + 1)
	})
	s.Spawn("consumer", func(ctx Context) {
		for slot.Load() == 0 {
			ctx.Charge(10)
			ctx.Yield()
		}
		observedAt = ctx.Now()
	})
	s.Run()
	if observedAt < sentAt {
		t.Fatalf("consumer observed at %d before producer sent at %d", observedAt, sentAt)
	}
	if observedAt > sentAt+1000 {
		t.Fatalf("consumer observed at %d, far after send at %d", observedAt, sentAt)
	}
}

func TestSimParkUnpark(t *testing.T) {
	s := NewSim(SimConfig{})
	var wokenAt int64
	var target Thread
	ready := false
	target = s.Spawn("sleeper", func(ctx Context) {
		ready = true
		ctx.Park()
		wokenAt = ctx.Now()
	})
	s.Spawn("waker", func(ctx Context) {
		for !ready {
			ctx.Yield()
		}
		ctx.Charge(700)
		target.Unpark()
	})
	s.Run()
	if wokenAt < 700 {
		t.Fatalf("woken at %d, want >= 700", wokenAt)
	}
}

func TestSimUnparkPermitBeforePark(t *testing.T) {
	s := NewSim(SimConfig{})
	done := false
	var target Thread
	target = s.Spawn("t", func(ctx Context) {
		ctx.Charge(100)
		ctx.Park() // must consume the early permit and not block forever
		done = true
	})
	s.Spawn("w", func(ctx Context) {
		target.Unpark() // fires at t=0, before t parks at t=100
	})
	s.Run()
	if !done {
		t.Fatal("thread never returned from Park despite pending permit")
	}
}

func TestSimAfterTimer(t *testing.T) {
	s := NewSim(SimConfig{})
	var fired int64
	s.Spawn("t", func(ctx Context) {
		ctx.After(12345, func() { fired = 12345 })
		ctx.Sleep(20000)
		if fired != 12345 {
			t.Errorf("timer had not fired by t=20000")
		}
	})
	s.Run()
}

func TestSimJoin(t *testing.T) {
	s := NewSim(SimConfig{})
	var childEnd, joinEnd int64
	s.Spawn("parent", func(ctx Context) {
		ch := ctx.Spawn("child", func(c Context) {
			c.Charge(4000)
			childEnd = c.Now()
		})
		ctx.Join(ch)
		joinEnd = ctx.Now()
	})
	s.Run()
	if joinEnd < childEnd || childEnd != 4000 {
		t.Fatalf("join ended at %d, child at %d", joinEnd, childEnd)
	}
}

func TestSimDeterminism(t *testing.T) {
	run := func() []int64 {
		var log []int64
		s := NewSim(SimConfig{})
		for i := 0; i < 4; i++ {
			d := int64(100 * (i + 1))
			s.SpawnOn(CoreID(i%2), "t", func(ctx Context) {
				for k := 0; k < 5; k++ {
					ctx.Charge(d)
					ctx.Yield()
					log = append(log, ctx.Now())
				}
			})
		}
		s.Run()
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run diverged at step %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestSimRoundRobinOnSharedCore(t *testing.T) {
	// Threads sharing a core with yield loops should interleave rather
	// than starve.
	s := NewSim(SimConfig{})
	counts := [2]int{}
	for i := 0; i < 2; i++ {
		i := i
		s.SpawnOn(0, "t", func(ctx Context) {
			for k := 0; k < 100; k++ {
				ctx.Charge(10)
				counts[i]++
				ctx.Yield()
			}
		})
	}
	s.Run()
	if counts[0] != 100 || counts[1] != 100 {
		t.Fatalf("starvation: counts=%v", counts)
	}
}

// parkForever is a daemon body: it starts, so it holds a carrier, and is
// still parked when Run ends.
func parkForever(ctx Context) {
	for {
		ctx.Park()
	}
}

func TestSimThreadAllocations(t *testing.T) {
	const threads = 100
	body := func(ctx Context) {
		ctx.Yield()
		ctx.Park()
	}
	perThread := func() {
		s := NewSim(SimConfig{})
		for i := 0; i < threads; i++ {
			s.Spawn("t", body)
		}
		s.Run()
	}
	perThread() // warm-up: leaves the carriers on the free list
	// A fresh iter.Pull per thread reads 15 here; the goroutine and two
	// channels per thread it replaced read 5.
	if got := testing.AllocsPerRun(20, perThread) / threads; got > 3 {
		t.Errorf("%.2f allocations per thread (spawn on a fresh core, yield, park, teardown), want <= 3", got)
	}

	yields := func(n int) func() {
		return func() {
			s := NewSim(SimConfig{})
			for i := 0; i < 2; i++ {
				s.SpawnOn(0, "y", func(ctx Context) {
					for k := 0; k < n; k++ {
						ctx.Yield()
					}
				})
			}
			s.Run()
		}
	}
	short, long := testing.AllocsPerRun(20, yields(10)), testing.AllocsPerRun(20, yields(5010))
	if long != short {
		t.Errorf("10 000 more yields cost %v more allocations, want 0", long-short)
	}
}

func TestSimFinishedThreadsAreDropped(t *testing.T) {
	s := NewSim(SimConfig{})
	most := 0
	s.Spawn("daemon", parkForever)
	s.Spawn("parent", func(ctx Context) {
		for i := 0; i < 10000; i++ {
			ctx.Join(ctx.Spawn("child", func(c Context) { c.Charge(10) }))
			most = max(most, len(s.threads))
		}
	})
	s.Run()
	// Three threads are live at most: daemon, parent and one child.
	if most > 2*3+1 {
		t.Fatalf("Sim.threads reached %d entries with 3 live threads", most)
	}
}

func TestSimPanicSurfacesFromRun(t *testing.T) {
	base := runtime.NumGoroutine() - len(idleCarriers.list)
	boom := errors.New("boom")
	s := NewSim(SimConfig{})
	unwound := false
	s.Spawn("daemon", parkForever)
	s.Spawn("bystander", func(ctx Context) {
		defer func() { unwound = true }()
		ctx.Sleep(1 << 40)
	})
	s.Spawn("p", func(ctx Context) {
		ctx.Yield()
		ctx.Spawn("never-started", func(Context) { t.Error("ran after the panic") })
		panic(boom)
	})
	var got any
	func() {
		defer func() { got = recover() }()
		s.Run()
	}()
	if got != boom {
		t.Fatalf("Run panicked with %v, want the thread's own value %v", got, boom)
	}
	if !unwound {
		t.Error("a thread stopped mid-body was not unwound when Run left on a panic")
	}
	if n := runtime.NumGoroutine() - len(idleCarriers.list); n != base {
		t.Errorf("%d goroutines besides the idle carriers after the panic, %d before", n, base)
	}
	TestSimJoin(t) // the next Sim in this process is unaffected
}

func TestSimGoexitEndsRun(t *testing.T) {
	s := NewSim(SimConfig{})
	s.Spawn("daemon", parkForever)
	s.Spawn("g", func(ctx Context) {
		ctx.Yield()
		runtime.Goexit() // what t.FailNow does in a thread body
	})
	returned := make(chan bool)
	go func() {
		ok := false
		defer func() { returned <- ok }()
		s.Run()
		ok = true
	}()
	if <-returned {
		t.Fatal("Run returned normally; Goexit in a thread must end the goroutine that called Run")
	}
	TestSimJoin(t)
}

func TestSimCarriersAreBounded(t *testing.T) {
	base := runtime.NumGoroutine() - len(idleCarriers.list)
	daemons := func(n int) {
		s := NewSim(SimConfig{})
		for i := 0; i < n; i++ {
			s.Spawn("daemon", parkForever)
		}
		s.Run()
	}
	for i := 0; i < 300; i++ {
		daemons(3)
	}
	daemons(maxIdleCarriers + 20) // more than the free list keeps
	if n := runtime.NumGoroutine(); n > base+maxIdleCarriers {
		t.Fatalf("%d goroutines, want at most %d + the %d idle carriers", n, base, maxIdleCarriers)
	}
	if n := len(idleCarriers.list); n != maxIdleCarriers {
		t.Fatalf("free list holds %d carriers, want it full at %d", n, maxIdleCarriers)
	}
}

func TestSimsRunConcurrently(t *testing.T) {
	// Two Sims on two goroutines share only the carrier free list; run
	// under -race this is the check that they share nothing else.
	var wg sync.WaitGroup
	var logs [2][]string
	for i := range logs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				logs[i] = goldenSchedule()
			}
		}()
	}
	wg.Wait()
	for i := range logs {
		if len(logs[i]) == 0 || len(logs[i]) != len(logs[0]) {
			t.Fatalf("sim %d logged %d steps, sim 0 %d", i, len(logs[i]), len(logs[0]))
		}
		for k := range logs[i] {
			if logs[i][k] != logs[0][k] {
				t.Fatalf("sim %d step %d: %q, sim 0 %q", i, k, logs[i][k], logs[0][k])
			}
		}
	}
}
