package exec

import (
	"fmt"
	"strings"
	"testing"
)

// goldenSchedule drives one fixed scenario through every scheduler entry
// point — four threads time-sharing two cores, two more a third, three on cores of
// their own,
// Charge (preempting and not), Yield, Sleep, Park with and without a
// pending permit, Unpark from a thread and from a timer, Join on a live
// and on a finished thread, After, AfterAt, spawn-from-thread, and a
// daemon still parked when the run ends — and logs (thread, step, Now())
// at every step and the end of the run; then goldenStops' runs.
func goldenSchedule() (log []string) {
	s := NewSim(SimConfig{})
	clk := s.Clock()
	step := func(ctx Context, what string) {
		log = append(log, fmt.Sprintf("%s %s %d", ctx.Self().Name(), what, ctx.Now()))
	}
	timer := func(what string) func() {
		return func() { log = append(log, fmt.Sprintf("timer %s %d", what, clk.Now())) }
	}

	var c, e, daemon Thread
	s.SpawnOn(0, "a", func(ctx Context) {
		for i := 0; i < 3; i++ {
			ctx.Charge(70)
			step(ctx, "charge")
			ctx.Yield()
			step(ctx, "yield")
		}
		ctx.Sleep(500)
		step(ctx, "sleep")
		c.Unpark() // c is ready, woken by d's timer: this leaves a permit
		step(ctx, "unpark-c")
		ctx.Charge(1000)
		step(ctx, "charge")
	})
	s.SpawnOn(0, "b", func(ctx Context) {
		ctx.After(130, timer("b+130"))
		for i := 0; i < 4; i++ {
			ctx.Charge(45)
			ctx.Yield()
			step(ctx, "poll")
		}
		child := ctx.SpawnOn(1, "b.child", func(cc Context) {
			cc.Charge(33)
			step(cc, "charge")
			cc.Sleep(10)
			step(cc, "sleep")
		})
		ctx.Join(child)
		step(ctx, "joined-child")
		ctx.Join(child) // already finished: returns at once
		step(ctx, "joined-again")
	})
	c = s.SpawnOn(1, "c", func(ctx Context) {
		ctx.Charge(5)
		step(ctx, "charge")
		ctx.Park()
		step(ctx, "woken")
		ctx.Park() // a's permit is pending
		step(ctx, "permit")
		fresh := ctx.Spawn("c.fresh", func(cc Context) {
			cc.Yield()
			step(cc, "yield")
			e.Unpark()
			daemon.Unpark()
		})
		ctx.Join(fresh)
		step(ctx, "joined-fresh")
	})
	s.SpawnOn(1, "d", func(ctx Context) {
		for i := 0; i < 5; i++ {
			ctx.Charge(20)
			ctx.Yield()
		}
		step(ctx, "polled")
		ctx.Sleep(0)
		step(ctx, "sleep0")
		ctx.After(400, func() {
			timer("d+400")()
			c.Unpark() // c is parked: this is its wake-up
		})
		ctx.Charge(2000)
		step(ctx, "charge")
	})
	e = s.Spawn("e", func(ctx Context) {
		ctx.Charge(90)
		step(ctx, "charge")
		ctx.Park()
		step(ctx, "woken")
	})
	daemon = s.Spawn("daemon", func(ctx Context) {
		for {
			ctx.Park()
			step(ctx, "woken")
		}
	})
	// Poll loops, on Spin: one time-sharing core 2 with a thread that
	// charges and yields, until a timer raises its flag; one on a core of
	// its own that charges after the yield and runs out of max.
	var flag, never untilIdler
	s.SpawnOn(2, "s.mate", func(ctx Context) {
		ctx.Sleep(260)
		for i := 0; i < 6; i++ {
			ctx.Charge(55)
			ctx.Yield()
		}
		step(ctx, "yielded")
	})
	s.SpawnOn(2, "s", func(ctx Context) {
		ctx.Sleep(260)
		ctx.Charge(35)
		n := ctx.Spin(35, 0, 1<<30, &flag)
		step(ctx, fmt.Sprintf("spun-%d", n))
	})
	s.Spawn("m", func(ctx Context) {
		ctx.Sleep(260)
		n := ctx.Spin(0, 61, 9, &never)
		step(ctx, fmt.Sprintf("spun-%d", n))
	})
	s.AfterAt(900, func() { flag.flag = true })
	s.AfterAt(250, timer("at250"))
	log = append(log, fmt.Sprintf("end %d", s.Run()))
	return append(log, goldenStops()...)
}

// goldenStops drives what happens between a thread's stop and the next
// resume, in three more runs. In the first, p's charges are preempted by
// an idle spinner and a timer only, and once by a spinner that finds work;
// meanwhile w1 and w2, which p spawns, come to wait for the hog's core, w1
// is planted stale (no entry point leaves a stale event) and is dropped as
// the hog sleeps, and w2 takes its place. In the second a timer panics while a thread is
// preempted, and the thread's deferred charge, due behind a canary timer,
// must not run the canary; in the third the clock passes MaxVirtualTime
// there.
func goldenStops() (log []string) {
	step := func(ctx Context, what string) {
		log = append(log, fmt.Sprintf("%s %s %d", ctx.Self().Name(), what, ctx.Now()))
	}
	s := NewSim(SimConfig{})
	idle, busy := untilIdler{deadline: 800}, untilIdler{}
	var w1 Thread
	s.Spawn("p", func(ctx Context) {
		ctx.Sleep(100)
		for i := 0; i < 4; i++ {
			ctx.Charge(150)
			step(ctx, "charge")
			if i == 0 {
				w1 = ctx.SpawnOn(7, "w1", func(ctx Context) { step(ctx, "unreachable") })
				ctx.SpawnOn(7, "w2", func(ctx Context) {
					ctx.Charge(50)
					step(ctx, "charge")
				})
			}
		}
	})
	s.Spawn("idle", func(ctx Context) {
		n := ctx.Spin(0, 40, 1<<30, &idle)
		step(ctx, fmt.Sprintf("spun-%d", n))
	})
	s.Spawn("busy", func(ctx Context) {
		n := ctx.Spin(0, 40, 1<<30, &busy)
		step(ctx, fmt.Sprintf("found-%d", n))
	})
	s.SpawnOn(7, "hog", func(ctx Context) {
		ctx.Charge(600)
		step(ctx, "charge")
		ctx.Sleep(1000)
		step(ctx, "sleep")
	})
	s.AfterAt(170, func() { log = append(log, fmt.Sprintf("timer %d", s.Now())) })
	s.AfterAt(350, func() { w1.t.state = stParked })
	s.AfterAt(420, func() { busy.flag = true })
	log = append(log, fmt.Sprintf("end %d", s.Run()))

	raised := func(cfg SimConfig, body func(Context), timers map[int64]func()) {
		s := NewSim(cfg)
		s.Spawn("v", body)
		for at, fn := range timers {
			s.AfterAt(at, fn)
		}
		defer func() { log = append(log, fmt.Sprintf("raised %v", recover())) }()
		s.Run()
	}
	raised(SimConfig{}, func(ctx Context) {
		defer func() {
			step(ctx, "unwinding")
			ctx.Charge(100)
			step(ctx, "unreachable")
		}()
		ctx.Charge(300)
		step(ctx, "unreachable")
	}, map[int64]func(){
		200: func() { panic("timer boom") },
		250: func() { log = append(log, "canary") },
	})
	raised(SimConfig{MaxVirtualTime: 1000}, func(ctx Context) {
		for {
			ctx.Charge(300)
			step(ctx, "charge")
		}
	}, map[int64]func(){1100: func() { log = append(log, "unreachable") }})
	return log
}

// goldenScheduleWant was recorded on the commit before the coroutine
// scheduler (goroutines handing a baton over two channels); the three lines
// of s, s.mate and m on the commit before Spin, with the loop of the Spin
// contract in its place, and they moved none of the others; goldenStops'
// lines, from "timer 600" on, on the commit before a stopping thread ran
// the scheduler's loop itself. The scheduler may change how control moves;
// it may not change one line of this.
const goldenScheduleWant = `
c charge 25
e charge 90
a charge 115
a yield 155
timer b+130 225
d polled 205
d sleep0 205
b poll 225
timer at250 2205
a charge 270
a yield 310
b poll 380
a charge 425
a yield 465
b poll 465
b poll 530
timer d+400 2205
a sleep 965
a unpark-c 965
s spun-4 965
s.mate yielded 985
m spun-9 1070
a charge 1965
d charge 2205
c woken 2238
c permit 2238
b.child charge 2238
b.child sleep 2248
c.fresh yield 2258
b joined-child 2258
b joined-again 2258
e woken 2258
daemon woken 2258
c joined-fresh 2258
end 2258
timer 600
p charge 250
p charge 400
busy found-6 420
p charge 550
hog charge 600
w2 charge 650
p charge 700
idle spun-13 840
hog sleep 1600
end 1600
v unwinding 300
raised timer boom
v charge 300
v charge 600
v charge 900
raised exec: virtual time 1200 exceeded bound 1000
`

func TestGoldenSchedule(t *testing.T) {
	got := strings.Join(goldenSchedule(), "\n")
	if got != strings.TrimSpace(goldenScheduleWant) {
		t.Fatalf("schedule moved; got:\n%s", got)
	}
}
