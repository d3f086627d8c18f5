package exec

import (
	"fmt"
	"reflect"
	"testing"
)

// spinRef is the contract of Context.Spin written as the loop it stands
// for. The differential test runs one scenario on each and requires the two
// runs to be indistinguishable.
func spinRef(ctx Context, pre, post int64, max int, idle Idler) (n int) {
	for {
		ctx.Yield()
		ctx.Charge(post)
		if n == max || !idle.Idle(ctx.Now()) {
			return n
		}
		ctx.Charge(pre)
		n++
	}
}

// untilIdler is idle until its flag is raised or its deadline reached.
type untilIdler struct {
	flag     bool
	deadline int64 // 0 = none
}

func (u *untilIdler) Idle(now int64) bool {
	return !u.flag && (u.deadline == 0 || now < u.deadline)
}

// spinScenario: two spinners sharing core 0 (with a third thread that
// yields plainly between them), one on a core of its own with post > 0, one
// that runs out of max, one that waits on a deadline only, a worker whose
// charges of uneven length cross their poll instants (so spinners are
// preempted inside Charge(pre) and Charge(post), and displaced from the
// shared core), timers that flip each predicate, and one spinner still
// spinning when a panic tears Run down. Every return from a spin is logged
// with the thread's clock and the count.
func spinScenario(spinFn func(Context, int64, int64, int, Idler) int) (log []string, end int64, recovered any) {
	s := NewSim(SimConfig{})
	note := func(ctx Context, what string, n int) {
		log = append(log, fmt.Sprintf("%s %s n=%d at %d", ctx.Self().Name(), what, n, ctx.Now()))
	}
	var a, b, own, dl, forever untilIdler
	dl.deadline = 3333
	s.SpawnOn(0, "a", func(ctx Context) {
		for round := 0; round < 3; round++ {
			a.flag = false
			ctx.Charge(35)
			note(ctx, "spun", spinFn(ctx, 35, 0, 1<<30, &a))
		}
	})
	s.SpawnOn(0, "b", func(ctx Context) {
		ctx.Charge(7)
		note(ctx, "spun", spinFn(ctx, 13, 0, 1<<30, &b))
		note(ctx, "again", spinFn(ctx, 13, 0, 0, &b)) // max 0: one Yield
	})
	s.SpawnOn(0, "mate", func(ctx Context) {
		for i := 0; i < 40; i++ {
			ctx.Charge(50)
			ctx.Yield()
		}
		note(ctx, "done", 0)
	})
	s.Spawn("own", func(ctx Context) {
		note(ctx, "spun", spinFn(ctx, 0, 45, 1<<30, &own))
		own.flag = false
		note(ctx, "both", spinFn(ctx, 17, 29, 1<<30, &own))
	})
	s.Spawn("bounded", func(ctx Context) {
		for i := 0; i < 3; i++ {
			ctx.Charge(35)
			note(ctx, "bound", spinFn(ctx, 35, 0, 20, &forever))
			ctx.Sleep(400)
		}
	})
	s.Spawn("deadline", func(ctx Context) {
		ctx.Charge(35)
		note(ctx, "timed out", spinFn(ctx, 35, 0, 1<<30, &dl))
	})
	s.Spawn("worker", func(ctx Context) {
		for i := int64(0); i < 60; i++ {
			ctx.Charge(31 + 17*(i%5))
			if i%7 == 3 {
				ctx.Sleep(90)
			}
		}
		note(ctx, "done", 0)
	})
	s.Spawn("doomed", func(ctx Context) {
		ctx.Charge(35)
		note(ctx, "unreachable", spinFn(ctx, 35, 0, 1<<30, &forever))
	})
	for _, f := range []struct {
		at   int64
		flag *bool
	}{{500, &a.flag}, {1270, &b.flag}, {1801, &a.flag}, {2222, &own.flag}, {2950, &a.flag}, {4000, &own.flag}} {
		s.AfterAt(f.at, func() { *f.flag = true })
	}
	s.AfterAt(6000, func() { panic("boom") })
	defer func() {
		recovered = recover()
		end = s.Now()
		log = append(log, fmt.Sprintf("resumes+played %d", s.Resumes()+s.Played()))
	}()
	s.Run()
	return
}

func TestSpinMatchesReferenceLoop(t *testing.T) {
	wantLog, wantEnd, wantPanic := spinScenario(spinRef)
	gotLog, gotEnd, gotPanic := spinScenario(Context.Spin)
	if wantPanic != "boom" || gotPanic != "boom" {
		t.Fatalf("Run did not surface the timer's panic: ref %v, Spin %v", wantPanic, gotPanic)
	}
	if gotEnd != wantEnd {
		t.Errorf("final time %d, reference loop %d", gotEnd, wantEnd)
	}
	if !reflect.DeepEqual(gotLog, wantLog) {
		t.Errorf("Spin diverged from the reference loop\n got: %q\nwant: %q", gotLog, wantLog)
	}
	if len(wantLog) != 14 {
		t.Errorf("scenario logged %d lines, want 14 (every spin but the doomed one returns): %q", len(wantLog), wantLog)
	}
}

// TestSpinPlayedInRun pins what Spin is for: the empty iterations cost no
// switch to the thread and no allocation.
func TestSpinPlayedInRun(t *testing.T) {
	const iters = 10_000
	run := func() (resumes, played int64) {
		s := NewSim(SimConfig{})
		never := &untilIdler{}
		s.Spawn("spinner", func(ctx Context) {
			if n := ctx.Spin(35, 0, iters, never); n != iters {
				t.Errorf("Spin returned %d, want %d", n, iters)
			}
		})
		s.Run()
		return s.Resumes(), s.Played()
	}
	// Two resumes, the thread's first and the one Spin returns on; one
	// played stop, the Yield, per iteration.
	if resumes, played := run(); resumes != 2 || played != iters {
		t.Errorf("resumes %d played %d, want 2 and %d", resumes, played, iters)
	}
	run() // warm the carrier free list and the heap's backing array
	if avg := testing.AllocsPerRun(5, func() { run() }); avg > 40 {
		t.Errorf("%v allocations per run of %d played iterations: playing must not allocate", avg, iters)
	}
}
