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
// at every step.
func goldenSchedule() (log []string, end int64) {
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
	end = s.Run()
	return log, end
}

// goldenScheduleWant was recorded on the commit before the coroutine
// scheduler (goroutines handing a baton over two channels); the three lines
// of s, s.mate and m on the commit before Spin, with the loop of the Spin
// contract in its place, and they moved none of the others. The scheduler
// may change how control moves; it may not change one line of this.
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
`

func TestGoldenSchedule(t *testing.T) {
	log, end := goldenSchedule()
	got := strings.Join(append(log, fmt.Sprintf("end %d", end)), "\n")
	if got != strings.TrimSpace(goldenScheduleWant) {
		t.Fatalf("schedule moved; got:\n%s", got)
	}
}
