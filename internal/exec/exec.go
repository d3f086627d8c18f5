// Package exec provides the execution substrate that all simulated threads
// in this repository run on. The whole stack — ring buffers, the RDMA
// fabric, the monitor daemon, libsd itself — is written against
// exec.Context and runs on one scheduler, Sim: a deterministic
// discrete-event simulator. Threads run strictly one at a time, each on a
// coroutine that Sim.Run switches to and that switches back at every
// Yield, Sleep, Park, Join or preempting Charge; virtual time advances only
// through explicit Charge/Sleep/Yield calls; threads are pinned to
// simulated cores whose occupancy is enforced, so N-core scalability and
// core time-sharing experiments are reproducible on a single physical CPU.
// The blocking waits of the paper's §4.4 (poll, sched_yield, poll again)
// are Charge+Yield loops on this scheduler, which plays their empty
// iterations itself (Spin).
//
// Time is expressed in integer nanoseconds throughout.
package exec

// Thread is a handle to a simulated thread, returned by Spawn and Self.
// Handles compare equal when they name the same thread; the zero Thread
// names none.
type Thread struct{ t *thread }

// Name returns the debug name given at spawn time.
func (h Thread) Name() string { return h.t.name }

// Unpark wakes the thread if it is parked (or buffers one wakeup permit if
// it is not). Safe to call from any thread or timer callback of the same
// Sim; it must not be called from outside the simulation.
func (h Thread) Unpark() {
	s := h.t.sim
	s.wake(h.t, s.curTime())
}

// CoreID identifies a simulated CPU core.
type CoreID int

// Context is what a simulated thread uses to interact with time, the
// scheduler, and other threads. Each thread body receives its own; a
// Context is owned by exactly one thread and must not be shared across
// threads (spawn children instead).
//
// The zero Context belongs to no thread. Code that runs outside any thread
// passes it: a signal handler, the library exit's deferred work, a timer
// callback, a signal sent from a drill's harness. Charge on it does
// nothing; every other method panics, so a callee that would wait or read
// the time first checks for it.
type Context struct{ t *thread }

// Now returns the calling thread's virtual time in nanoseconds since the
// start of the run.
func (c Context) Now() int64 { return c.t.vt }

// Charge consumes d nanoseconds of CPU time on the calling thread's core:
// it advances the thread's virtual time and keeps the core busy. On the
// zero Context it does nothing.
func (c Context) Charge(d int64) {
	t := c.t
	if d <= 0 || t == nil {
		return
	}
	t.vt += d
	s := t.sim
	// Preempt if some other event is due before our local clock: requeue
	// ourselves so global time order stays causal.
	if s.hidden || s.pq.Len() > 0 && s.pq.peekTime() < t.vt {
		s.push(event{at: t.vt, th: t})
		t.stop(stReady)
	}
}

// Yield cooperatively gives up the core so other runnable threads (those
// pinned to the same core) may run.
func (c Context) Yield() {
	c.t.sim.yield(c.t)
	c.t.stop(stReady)
}

// Spin is the Yield that ends an empty iteration of a poll loop plus the
// empty iterations after it: at most max (what the loop may take before its
// own next transition: a sleep, a park), and only while idle says the body
// would find nothing to do. pre is what the loop charges between its check
// and its yield, post between the yield and the check. Spin returns the
// iterations it stood for, and is observably — every stop at the same
// virtual time, in the same order among all threads — this loop, which the
// scheduler plays without switching to the thread:
//
//	for n = 0; ; n++ {
//		ctx.Yield()
//		ctx.Charge(post)
//		if n == max || !idle.Idle(ctx.Now()) {
//			return n
//		}
//		ctx.Charge(pre)
//	}
func (c Context) Spin(pre, post int64, max int, idle Idler) int {
	t := c.t
	t.spin = spin{idle: idle, pre: pre, post: post, max: max}
	t.sim.yield(t)
	t.stop(stReady) // back when Run has played the spin to its end
	t.spin.idle = nil
	return t.spin.n
}

// Sleep blocks the calling thread for d nanoseconds without occupying the
// core.
func (c Context) Sleep(d int64) {
	if d < 0 {
		d = 0
	}
	t := c.t
	t.sim.push(event{at: t.vt + d, th: t})
	t.stop(stReady)
}

// Park blocks the calling thread until someone calls Unpark on its Thread
// handle. A pending permit (Unpark before Park) makes Park return
// immediately.
func (c Context) Park() {
	t := c.t
	if t.permit {
		t.permit = false
		return
	}
	t.stop(stParked)
}

// Self returns the calling thread's handle.
func (c Context) Self() Thread { return Thread{c.t} }

// Spawn starts fn on a new thread placed on a fresh core and returns its
// handle. The child receives its own Context.
func (c Context) Spawn(name string, fn func(Context)) Thread {
	return c.t.sim.Spawn(name, fn)
}

// SpawnOn starts fn on a new thread pinned to the given core. Threads
// sharing a core time-share it cooperatively (Yield).
func (c Context) SpawnOn(core CoreID, name string, fn func(Context)) Thread {
	return c.t.sim.spawn(core, name, fn)
}

// Join blocks until h's function has returned.
func (c Context) Join(h Thread) {
	if h.t.state == stDone {
		return
	}
	h.t.joiners = append(h.t.joiners, c.t)
	c.t.stop(stParked)
}

// After arranges for fn to run at time Now()+d without occupying any
// simulated core. fn must not block; it is intended for hardware timer
// events (packet arrival, retransmission timers).
func (c Context) After(d int64, fn func()) {
	if d < 0 {
		d = 0
	}
	c.t.sim.push(event{at: c.t.vt + d, fn: fn})
}

// Idler is a poll loop's "nothing to do" predicate: would an iteration at
// virtual time now come out empty — nothing received, no exit condition
// met, no deadline or periodic duty due? The scheduler calls it between
// threads, so it takes the time as an argument (a Clock read there is the
// global clock, not the thread's) and must leave no trace: no Charge,
// timer, Unpark, counter or lock-protected mutation; refreshing an
// idempotent cache, as shm.Ring.CanRecv does, is fine. A false "not idle"
// costs one real iteration. A false "idle" is a lost wake-up: the thread
// sleeps on until max runs out. Implement it on a pointer type converted
// from an object the loop already owns, so that Spin allocates nothing.
type Idler interface {
	Idle(now int64) bool
}
