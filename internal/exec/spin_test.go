package exec

import (
	"fmt"
	"math/rand"
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

// spinFunc is Context.Spin or spinRef.
type spinFunc func(Context, int64, int64, int, Idler) int

// A spinCase builds one scenario on s: its threads spin through spin and log
// every return from a spin with note.
type spinCase struct {
	name  string
	cfg   SimConfig
	build func(s *Sim, spin spinFunc, note func(Context, string, int))
}

// spinCases: the first mixes everything; the others are the edges of a run
// of idle stops with nothing else due (two spinners alternating on one core
// in 20 ns slots, as a ping-pong's two ends do): a timer landing in it, a
// deadline turning one predicate false in it, max running out in it, a
// third spinner and a plain thread coming to wait for the core, spinners on
// two cores interleaving, and MaxVirtualTime passed in it.
var spinCases = []spinCase{
	// Two spinners sharing core 0 (with a third thread that yields plainly
	// between them), one on a core of its own with post > 0, one that runs
	// out of max, one that waits on a deadline only, a worker whose charges
	// of uneven length cross their poll instants (so spinners are preempted
	// inside Charge(pre) and Charge(post), and displaced from the shared
	// core), timers that flip each predicate, and one spinner still spinning
	// when a panic tears Run down.
	{"mixed", SimConfig{}, func(s *Sim, spin spinFunc, note func(Context, string, int)) {
		var a, b, own, dl, forever untilIdler
		dl.deadline = 3333
		s.SpawnOn(0, "a", func(ctx Context) {
			for round := 0; round < 3; round++ {
				a.flag = false
				ctx.Charge(35)
				note(ctx, "spun", spin(ctx, 35, 0, 1<<30, &a))
			}
		})
		s.SpawnOn(0, "b", func(ctx Context) {
			ctx.Charge(7)
			note(ctx, "spun", spin(ctx, 13, 0, 1<<30, &b))
			note(ctx, "again", spin(ctx, 13, 0, 0, &b)) // max 0: one Yield
		})
		s.SpawnOn(0, "mate", func(ctx Context) {
			for i := 0; i < 40; i++ {
				ctx.Charge(50)
				ctx.Yield()
			}
			note(ctx, "done", 0)
		})
		s.Spawn("own", func(ctx Context) {
			note(ctx, "spun", spin(ctx, 0, 45, 1<<30, &own))
			own.flag = false
			note(ctx, "both", spin(ctx, 17, 29, 1<<30, &own))
		})
		s.Spawn("bounded", func(ctx Context) {
			for i := 0; i < 3; i++ {
				ctx.Charge(35)
				note(ctx, "bound", spin(ctx, 35, 0, 20, &forever))
				ctx.Sleep(400)
			}
		})
		s.Spawn("deadline", func(ctx Context) {
			ctx.Charge(35)
			note(ctx, "timed out", spin(ctx, 35, 0, 1<<30, &dl))
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
			note(ctx, "unreachable", spin(ctx, 35, 0, 1<<30, &forever))
		})
		raise(s, map[int64]*bool{500: &a.flag, 1270: &b.flag, 1801: &a.flag, 2222: &own.flag, 2950: &a.flag, 4000: &own.flag})
		s.AfterAt(6000, func() { panic("boom") })
	}},
	{"alternate", SimConfig{}, func(s *Sim, spin spinFunc, note func(Context, string, int)) {
		a, b := pair(s, spin, note, 0)
		raise(s, map[int64]*bool{1500: &a.flag, 1730: &b.flag})
	}},
	{"timer", SimConfig{}, func(s *Sim, spin spinFunc, note func(Context, string, int)) {
		a, b := pair(s, spin, note, 0)
		for _, at := range []int64{400, 401, 955, 955, 1177} {
			s.AfterAt(at, func() { note(Context{}, "tick", int(s.Now())) })
		}
		raise(s, map[int64]*bool{1500: &a.flag, 1730: &b.flag})
	}},
	{"deadline", SimConfig{}, func(s *Sim, spin spinFunc, note func(Context, string, int)) {
		a, b := pair(s, spin, note, 0)
		a.deadline = 1111
		raise(s, map[int64]*bool{1730: &b.flag})
	}},
	{"max", SimConfig{}, func(s *Sim, spin spinFunc, note func(Context, string, int)) {
		var a, b untilIdler
		s.SpawnOn(0, "a", func(ctx Context) {
			ctx.Charge(35)
			note(ctx, "bound", spin(ctx, 20, 0, 7, &a))
			note(ctx, "bound", spin(ctx, 20, 0, 11, &a))
			ctx.Charge(5)
			note(ctx, "spun", spin(ctx, 20, 0, 1<<30, &a))
		})
		s.SpawnOn(0, "b", func(ctx Context) {
			ctx.Charge(20)
			note(ctx, "bound", spin(ctx, 20, 0, 13, &b))
			note(ctx, "spun", spin(ctx, 20, 0, 1<<30, &b))
		})
		raise(s, map[int64]*bool{1500: &a.flag, 1730: &b.flag})
	}},
	{"third", SimConfig{}, func(s *Sim, spin spinFunc, note func(Context, string, int)) {
		a, b := pair(s, spin, note, 0)
		var c untilIdler
		s.SpawnOn(0, "c", func(ctx Context) {
			ctx.Sleep(600)
			ctx.Charge(10)
			note(ctx, "spun", spin(ctx, 20, 0, 1<<30, &c))
		})
		s.SpawnOn(0, "plain", func(ctx Context) {
			ctx.Sleep(1010)
			for i := 0; i < 5; i++ {
				ctx.Charge(30)
				ctx.Yield()
			}
			note(ctx, "done", 0)
		})
		raise(s, map[int64]*bool{1500: &a.flag, 1730: &b.flag, 1900: &c.flag})
	}},
	{"two cores", SimConfig{}, func(s *Sim, spin spinFunc, note func(Context, string, int)) {
		a, b := pair(s, spin, note, 0)
		var c, d untilIdler
		s.SpawnOn(1, "c", func(ctx Context) {
			ctx.Charge(3)
			note(ctx, "spun", spin(ctx, 0, 30, 1<<30, &c))
		})
		s.SpawnOn(1, "d", func(ctx Context) {
			ctx.Charge(11)
			note(ctx, "spun", spin(ctx, 15, 10, 1<<30, &d))
		})
		raise(s, map[int64]*bool{1500: &a.flag, 1730: &b.flag, 1333: &c.flag, 1820: &d.flag})
	}},
	{"MaxVirtualTime", SimConfig{MaxVirtualTime: 1000}, func(s *Sim, spin spinFunc, note func(Context, string, int)) {
		pair(s, spin, note, 0)
	}},
	// A spinner alone with a timer due past the bound, whose last check a
	// charge after the yield takes past the bound, and a deadline between the
	// two: the bound neither preempts its charges nor answers for that check.
	{"MaxVirtualTime, a timer after", SimConfig{MaxVirtualTime: 950}, func(s *Sim, spin spinFunc, note func(Context, string, int)) {
		a := untilIdler{deadline: 953}
		s.Spawn("a", func(ctx Context) {
			defer note(ctx, "ended", 0)
			ctx.Charge(35)
			note(ctx, "spun", spin(ctx, 20, 7, 1<<30, &a))
		})
		s.AfterAt(5000, func() { a.flag = true })
	}},
}

// pair spawns two spinners on core, a and b, each idle until its flag. Each
// notes its clock when its body ends, returning or torn down.
func pair(s *Sim, spin spinFunc, note func(Context, string, int), core CoreID) (a, b *untilIdler) {
	a, b = new(untilIdler), new(untilIdler)
	s.SpawnOn(core, "a", func(ctx Context) {
		defer note(ctx, "ended", 0)
		ctx.Charge(35)
		note(ctx, "spun", spin(ctx, 20, 0, 1<<30, a))
	})
	s.SpawnOn(core, "b", func(ctx Context) {
		defer note(ctx, "ended", 0)
		ctx.Charge(20)
		note(ctx, "spun", spin(ctx, 20, 0, 1<<30, b))
	})
	return a, b
}

// raise sets each flag by a timer at its time.
func raise(s *Sim, flags map[int64]*bool) {
	for at, f := range flags {
		s.AfterAt(at, func() { *f = true })
	}
}

// spinScenario runs c with spin, logging every return from a spin with the
// thread's clock and the count, the panic Run raised, and the final time and
// thread events.
func spinScenario(c spinCase, spin spinFunc) (log []string, s *Sim) {
	s = NewSim(c.cfg)
	note := func(ctx Context, what string, n int) {
		if ctx == (Context{}) {
			log = append(log, fmt.Sprintf("%s %d", what, n))
			return
		}
		log = append(log, fmt.Sprintf("%s %s n=%d at %d", ctx.Self().Name(), what, n, ctx.Now()))
	}
	c.build(s, spin, note)
	defer func() {
		log = append(log, fmt.Sprintf("raised %v, end %d, resumes+played %d", recover(), s.Now(), s.Resumes()+s.Played()))
	}()
	s.Run()
	return
}

// spinCasesWant is each case's last line, recorded with the reference loop.
var spinCasesWant = map[string]string{
	"mixed":                         "raised boom, end 6030, resumes+played 805",
	"alternate":                     "raised <nil>, end 1735, resumes+played 83",
	"timer":                         "raised <nil>, end 1735, resumes+played 83",
	"deadline":                      "raised <nil>, end 1735, resumes+played 73",
	"max":                           "raised <nil>, end 1760, resumes+played 88",
	"third":                         "raised <nil>, end 1935, resumes+played 98",
	"two cores":                     "raised <nil>, end 1839, resumes+played 180",
	"MaxVirtualTime":                "raised exec: virtual time 1015 exceeded bound 1000, end 1015, resumes+played 50",
	"MaxVirtualTime, a timer after": "raised exec: virtual time 5000 exceeded bound 950, end 5000, resumes+played 21",
}

func TestSpinMatchesReferenceLoop(t *testing.T) {
	for _, c := range spinCases {
		t.Run(c.name, func(t *testing.T) {
			want, ref := spinScenario(c, spinRef)
			got, s := spinScenario(c, Context.Spin)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("Spin diverged from the reference loop\n got: %q\nwant: %q", got, want)
			}
			if last := want[len(want)-1]; last != spinCasesWant[c.name] {
				t.Errorf("reference run ended with %q, recorded %q", last, spinCasesWant[c.name])
			}
			// The two make the same events; a window takes stops off the heap.
			if s.Pops() >= ref.Pops() {
				t.Errorf("%d heap pops, as many as the reference loop's %d: no window opened", s.Pops(), ref.Pops())
			}
			if c.name == "mixed" && len(want) != 14 {
				t.Errorf("logged %d lines, want 14 (every spin but the doomed one returns): %q", len(want), want)
			}
		})
	}
}

// TestSpinMatchesReferenceLoopRandom runs random worlds of one to six
// spinners on three cores (charges before and after the yield, some with a
// max, a deadline or rounds between sleeps; predicates flipped by timers),
// with or without a plain thread, ticks and a MaxVirtualTime, on Spin and
// on the loop it stands for: windows meet edges no named case lines up,
// such as a charge or a check that crosses the bound. No thread notes its
// end: when the bound is passed, the threads unwind in another order on
// Spin (the one whose carrier ran the loop first), which this test leaves aside.
func TestSpinMatchesReferenceLoopRandom(t *testing.T) {
	for seed := int64(0); seed < 2000; seed++ {
		var c spinCase
		if seed%3 == 0 {
			c.cfg.MaxVirtualTime = 500 + seed*7%1500
		}
		c.build = func(s *Sim, spin spinFunc, note func(Context, string, int)) {
			r := rand.New(rand.NewSource(seed))
			for i := r.Intn(6); i >= 0; i-- {
				u, pre, post, max := &untilIdler{}, r.Int63n(50)-5, r.Int63n(50)-5, 3000
				if r.Intn(3) == 0 {
					u.deadline = r.Int63n(2500)
				}
				if r.Intn(3) == 0 {
					max = r.Intn(60)
				}
				start, rounds, gap := r.Int63n(60), 1+r.Intn(3), r.Int63n(300)
				s.SpawnOn(CoreID(r.Intn(3)), "s", func(ctx Context) {
					ctx.Charge(start)
					for j := 0; j < rounds; j++ {
						u.flag = false
						note(ctx, "spun", spin(ctx, pre, post, max, u))
						ctx.Sleep(gap)
					}
				})
				for j := 0; j < 4; j++ {
					s.AfterAt(r.Int63n(2500), func() { u.flag = true })
				}
			}
			if r.Intn(2) == 0 {
				sleep, d := r.Int63n(800), 1+r.Int63n(50)
				s.SpawnOn(CoreID(r.Intn(3)), "plain", func(ctx Context) {
					ctx.Sleep(sleep)
					for i := 0; i < 5; i++ {
						ctx.Charge(d)
						ctx.Yield()
					}
					note(ctx, "done", 0)
				})
			}
			for j := r.Intn(4); j > 0; j-- {
				s.AfterAt(r.Int63n(2500), func() { note(Context{}, "tick", int(s.Now())) })
			}
		}
		want, _ := spinScenario(c, spinRef)
		if got, _ := spinScenario(c, Context.Spin); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: Spin diverged from the reference loop\n got: %q\nwant: %q", seed, got, want)
		}
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
