package exec

import (
	"fmt"
	"hash/fnv"
	"strings"
	"testing"
)

// Tests of the per-core wait lists (simCore): threads waiting for a busy core
// are kept out of the heap, and the schedule has to be the one the heap alone
// gives. Every expectation below was recorded on the commit before the lists,
// where a displaced event is pushed back at busyUntil and popped again once
// per slot.

// waitWorld is a Sim whose threads log (name, step, clock). Core 0 is held
// over [0, 100] by a hog that then parks, leaving no event of its own in the
// heap; the threads that wait for it are spawned meanwhile from another core
// (a wake-up would be clamped to the global clock, which the hog has taken
// to 100).
type waitWorld struct {
	s   *Sim
	log []string
}

func newWaitWorld() *waitWorld { return &waitWorld{s: NewSim(SimConfig{})} }

func (w *waitWorld) step(ctx Context, what string) {
	w.log = append(w.log, fmt.Sprintf("%s %s %d", ctx.Self().Name(), what, ctx.Now()))
}

func (w *waitWorld) hog() {
	w.s.SpawnOn(0, "hog", func(ctx Context) {
		ctx.Charge(100)
		ctx.Park()
	})
}

// charges is a body of n charges of d, each logged when the thread runs on.
func (w *waitWorld) charges(n int, d int64) func(Context) {
	return func(ctx Context) {
		for i := 0; i < n; i++ {
			ctx.Charge(d)
			w.step(ctx, "charge")
		}
	}
}

func (w *waitWorld) run() string {
	end := w.s.Run()
	return strings.Join(append(w.log, fmt.Sprintf("end %d", end)), "\n")
}

// Rule (i), core-mates: when the hog's slot at 100 ends, a is the stand-in and
// b, c are in no heap; a's first charge must still give way to them (they are
// due: in the heap they would sit at 100), and then round-robin is ordinary.
func waitRoundRobin() string {
	w := newWaitWorld()
	w.hog()
	w.s.Spawn("spawner", func(ctx Context) {
		ctx.Sleep(5)
		for _, name := range []string{"a", "b", "c"} {
			ctx.SpawnOn(0, name, w.charges(3, 50))
		}
	})
	return w.run()
}

// Rule (ii): a sleeper's event keeps the seq of the Sleep call, so when it is
// displaced behind a stand-in that came to wait after that call, it runs first.
func waitOldSleeper() string {
	w := newWaitWorld()
	w.s.SpawnOn(0, "sleeper", func(ctx Context) {
		ctx.Sleep(60)
		w.step(ctx, "slept")
		w.charges(2, 50)(ctx)
	})
	w.hog()
	w.s.Spawn("spawner", func(ctx Context) {
		ctx.Sleep(5)
		ctx.SpawnOn(0, "a", w.charges(2, 50))
		ctx.SpawnOn(0, "b", w.charges(2, 50))
	})
	return w.run()
}

// Rule (i), other cores. With every waiter in the heap, b stays there at 100,
// where a's slot began, until the heap gets to it; t, whose event at 100 is
// ordered between a's and b's, is preempted by it at 140 and runs on behind
// e, which was due at 140 all along.
func waitOtherCore() string {
	w := newWaitWorld()
	w.hog()
	w.s.SpawnOn(1, "t", func(ctx Context) {
		ctx.Sleep(6)
		ctx.Sleep(94)
		w.charges(2, 40)(ctx)
	})
	w.s.SpawnOn(2, "e", func(ctx Context) {
		ctx.Sleep(140)
		w.step(ctx, "slept")
	})
	w.s.Spawn("spawner", func(ctx Context) {
		ctx.Sleep(5)
		ctx.SpawnOn(0, "a", w.charges(2, 50))
		ctx.Sleep(2)
		ctx.SpawnOn(0, "b", w.charges(2, 50))
	})
	return w.run()
}

func TestWaitListRules(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func() string
		want string
	}{
		{"round-robin", waitRoundRobin, `
a charge 250
b charge 300
c charge 350
a charge 400
b charge 450
c charge 500
a charge 550
b charge 550
c charge 550
end 550`},
		{"old-sleeper", waitOldSleeper, `
sleeper slept 100
sleeper charge 250
a charge 300
b charge 350
sleeper charge 400
a charge 400
b charge 400
end 400`},
		{"other-core", waitOtherCore, `
e slept 140
t charge 140
t charge 180
a charge 200
b charge 250
a charge 300
b charge 300
end 300`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.run(); got != strings.TrimSpace(tc.want) {
				t.Errorf("schedule moved; got:\n%s", got)
			}
		})
	}
}

// Rule (iii): an event popped for a thread that is not ready is dropped. No
// scheduler entry point leaves one behind today, so the test plants it: if
// the dropped event was its core's stand-in, the waiters behind it must not
// be stranded.
func TestWaitListStaleStandIn(t *testing.T) {
	w := newWaitWorld()
	w.hog()
	var a Thread
	w.s.Spawn("spawner", func(ctx Context) {
		ctx.Sleep(5)
		a = ctx.SpawnOn(0, "a", w.charges(1, 50))
		ctx.SpawnOn(0, "b", w.charges(1, 50))
		ctx.SpawnOn(0, "c", w.charges(1, 50))
	})
	// By 50 a is the stand-in at 100 and b, c wait behind it.
	w.s.AfterAt(50, func() { a.t.state = stParked })
	want := "b charge 200\nc charge 200\nend 200"
	if got := w.run(); got != want {
		t.Errorf("got:\n%s\nwant:\n%s", got, want)
	}
}

// waitSoup is a seeded mix of every way a thread stops — charges that are and
// are not preempted, yields, sleeps, parks with timers and threads waking
// them, spins — by 14 threads on 4 shared cores and 2 cores of their own.
// Every duration is a multiple of the yield cost, so events tie on time and
// the order among them decides what runs.
func waitSoup(seed uint64) (sum uint64, lines int, end int64) {
	s := NewSim(SimConfig{})
	h := fnv.New64a()
	rnd := func() uint64 { // xorshift64
		seed ^= seed << 13
		seed ^= seed >> 7
		seed ^= seed << 17
		return seed
	}
	var ths []Thread
	for i := 0; i < 14; i++ {
		name := fmt.Sprintf("t%d", i)
		body := func(ctx Context) {
			for k := 0; k < 60; k++ {
				switch r := rnd(); r % 8 {
				case 0, 1, 2:
					ctx.Charge(20 * int64(r>>8%4+1))
				case 3:
					ctx.Yield()
				case 4:
					ctx.Sleep(20 * int64(r>>8%12))
				case 5:
					ths[r>>8%uint64(len(ths))].Unpark()
				case 6:
					ctx.After(20*int64(r>>8%8), ctx.Self().Unpark)
					ctx.Park()
				case 7:
					ctx.Spin(20*int64(r>>8%2), 20*int64(r>>16%2), int(r>>24%12),
						&untilIdler{deadline: ctx.Now() + 20*int64(r>>32%20)})
				}
				fmt.Fprintf(h, "%s %d %d\n", name, k, ctx.Now())
				lines++
			}
		}
		if i < 12 {
			ths = append(ths, s.SpawnOn(CoreID(i%4), name, body))
		} else {
			ths = append(ths, s.Spawn(name, body))
		}
	}
	end = s.Run()
	return h.Sum64(), lines, end
}

func TestWaitListsKeepTheSchedule(t *testing.T) {
	want := []struct {
		sum   uint64
		lines int
		end   int64
	}{
		{0x6a19234c1064c775, 840, 6160},
		{0x13f485ca338ace4e, 840, 6880},
		{0x1489f43c7c4a19af, 840, 6620},
		{0x358264b4c4b81e0, 840, 6680},
		{0xb93cb8f7347d7a4d, 840, 6580},
		{0x85b069cf99a31fb, 840, 6640},
		{0x41a2958446cc3e47, 840, 6960},
		{0x6f2cc08a5297d15d, 840, 5860},
		{0xe799b04abb495f35, 840, 6500},
		{0x2955ead73260de0c, 840, 6540},
		{0x89746b14c76cd2e0, 840, 6200},
		{0xc57f08511ed1c003, 840, 6760},
	}
	for i, w := range want {
		sum, lines, end := waitSoup(uint64(i) + 1)
		if sum != w.sum || lines != w.lines || end != w.end {
			t.Errorf("seed %d: schedule moved: {%#x, %d, %d}, recorded {%#x, %d, %d}",
				i+1, sum, lines, end, w.sum, w.lines, w.end)
		}
	}
}
