package exec

import (
	"fmt"
	"iter"
	"sync"
)

// SimConfig tunes the discrete-event scheduler.
type SimConfig struct {
	// YieldCost is the virtual time charged by every Yield, modelling
	// the cost of a cooperative context switch / re-poll. Zero means
	// DefaultYieldCost.
	YieldCost int64
	// MaxVirtualTime aborts the run (panics) if the virtual clock passes
	// this bound; a guard against runaway polls. Zero means no bound.
	MaxVirtualTime int64
}

// DefaultYieldCost approximates one empty re-poll iteration (~20 ns).
const DefaultYieldCost = 20

// Sim is a deterministic discrete-event scheduler. Exactly one simulated
// thread executes at any instant; virtual time advances only through
// Charge, Sleep, Yield and After. Runs with the same spawn order and
// charges are bit-for-bit reproducible.
//
// A Sim is confined to the goroutine that calls Run: every thread body and
// timer callback executes inside that call, on a coroutine Run switches to
// and back from, so nothing in a Sim is locked. Two Sims share nothing but
// the free list of idle carriers and may run on two goroutines at once.
type Sim struct {
	cfg      SimConfig
	now      int64
	seq      uint64
	pq       eventHeap
	cores    map[CoreID]*simCore
	autoCore CoreID
	running  *simThread
	killed   bool
	// threads holds the unfinished threads in spawn order, which is the
	// order Run tears down those still parked at the end. spawn drops the
	// finished ones once they outnumber the rest.
	threads         []*simThread
	finished        int
	resumes, played int64 // see Resumes

	// What the heap no longer shows Charge's preemption test, now that most
	// threads waiting for a busy core are not in it (simCore). Were they, a
	// waiter would sit there at the time its core's latest slot began, due,
	// until the heap got to it and pushed it back to the slot's end. After a
	// slot begun at lagAt, that is every waiter with a seq up to lagSeq; it
	// matters to the events the heap orders before (lagAt, lagSeq) — the
	// stand-in's own among them, when the slot before its was empty — and
	// hidden says whether the thread event being handled is one of those.
	hidden bool
	lagAt  int64
	lagSeq uint64
}

// simCore is one simulated core. A thread whose event comes due while the
// core is busy waits for busyUntil. Of a core's waiters only the one that
// runs next, the one with the lowest seq, has its event in the heap: the
// stand-in. The others wait here in seq order, and the head is promoted
// when the stand-in has run. (All of them in the heap is the same schedule,
// with every waiter popped and pushed back once per slot.)
type simCore struct {
	busyUntil  int64
	standin    bool // a waiter's event is in the heap, with standinSeq
	standinSeq uint64
	waiters    []event // the others, by seq, all above standinSeq
}

// wait queues e, displaced by a busy core, behind the stand-in.
func (c *simCore) wait(e event) {
	i := len(c.waiters)
	c.waiters = append(c.waiters, e)
	for ; i > 0 && c.waiters[i-1].seq > e.seq; i-- {
		c.waiters[i] = c.waiters[i-1]
	}
	c.waiters[i] = e
}

// promote makes the first waiter of a core without a stand-in its stand-in.
func (s *Sim) promote(c *simCore) {
	if c.standin || len(c.waiters) == 0 {
		return
	}
	e := c.waiters[0]
	n := copy(c.waiters, c.waiters[1:])
	c.waiters[n] = event{}
	c.waiters = c.waiters[:n]
	e.at = c.busyUntil // where it waited for, or later: busyUntil only grows
	c.standin, c.standinSeq = true, e.seq
	s.pushKeepSeq(e)
}

const (
	stReady = iota
	stRunning
	stParked
	stDone
)

type simThread struct {
	sim     *Sim
	name    string
	core    *simCore
	vt      int64
	state   int
	permit  bool
	fn      func(Context) // the body, until it starts
	co      *carrier      // what the body runs on, from its first resume to its end
	joiners []*simThread
	spin    spin
}

// spin is a Spin call in progress: the poll loop a stopped thread has handed
// to Run. at is where in the loop of the Spin contract the thread stopped,
// named for what comes next.
type spin struct {
	idle      Idler // nil when the thread is not in Spin
	pre, post int64
	max, n    int
	at        uint8
}

const (
	spinPost  = iota // out of Yield: Charge(post)
	spinCheck        // out of Charge(post): the check, then Charge(pre)
	spinYield        // out of Charge(pre): count the iteration and Yield
)

type simKilled struct{}

type event struct {
	at  int64
	seq uint64
	th  *simThread
	fn  func()
}

// eventHeap is a hand-rolled binary min-heap ordered by (at, seq). It
// deliberately does not use container/heap: that interface boxes every
// pushed and popped event into an interface value, which costs two heap
// allocations per scheduled event — and every Yield, Sleep, After and
// wakeup schedules one. With the open-coded sift the steady-state data
// path schedules events allocation-free (the backing array is reused
// across pushes once grown).
type eventHeap []event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) peekTime() int64 { return h[0].at }

func (h eventHeap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			return
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (h eventHeap) siftDown(i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		m := l
		if r := l + 1; r < n && h.less(r, l) {
			m = r
		}
		if !h.less(m, i) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

// push assigns a fresh sequence number (FIFO tiebreak among same-time
// events) and inserts. pushKeepSeq preserves the event's existing number
// (a thread displaced by a busy core must stay ahead of later arrivals).
func (s *Sim) push(e event) {
	e.seq = s.seq
	s.seq++
	s.pushKeepSeq(e)
}

func (s *Sim) pushKeepSeq(e event) {
	s.pq = append(s.pq, e)
	s.pq.siftUp(len(s.pq) - 1)
}

func (s *Sim) pop() event {
	e := s.pq[0]
	n := len(s.pq) - 1
	s.pq[0] = s.pq[n]
	s.pq[n] = event{} // drop the fn reference so closures are collectable
	s.pq = s.pq[:n]
	if n > 0 {
		s.pq.siftDown(0)
	}
	return e
}

// NewSim creates a fresh simulator.
func NewSim(cfg SimConfig) *Sim {
	if cfg.YieldCost == 0 {
		cfg.YieldCost = DefaultYieldCost
	}
	return &Sim{
		cfg:      cfg,
		cores:    make(map[CoreID]*simCore),
		autoCore: 1 << 20,
	}
}

// Now returns the current virtual time. Only meaningful while Run is
// executing (or after it returns, as the final time).
func (s *Sim) Now() int64 { return s.now }

// Resumes is how many times Run has switched to a thread, Played how many
// stops of spinning threads it has handled itself (Context.Spin). Their sum
// is the run's thread events: without Spin, every one of them a resume.
func (s *Sim) Resumes() int64 { return s.resumes }
func (s *Sim) Played() int64  { return s.played }

func (s *Sim) core(id CoreID) *simCore {
	c, ok := s.cores[id]
	if !ok {
		c = &simCore{}
		s.cores[id] = c
	}
	return c
}

// curTime is the time at which a scheduler-visible action happens: the
// running thread's local clock, or the global clock from timer context.
func (s *Sim) curTime() int64 {
	if s.running != nil {
		return s.running.vt
	}
	return s.now
}

// Spawn registers a root thread before (or during) Run, on a fresh core.
func (s *Sim) Spawn(name string, fn func(Context)) Thread {
	s.autoCore++
	return s.spawn(s.autoCore, name, fn)
}

// SpawnOn registers a root thread pinned to the given core.
func (s *Sim) SpawnOn(core CoreID, name string, fn func(Context)) Thread {
	return s.spawn(core, name, fn)
}

func (s *Sim) spawn(core CoreID, name string, fn func(Context)) Thread {
	t := &simThread{
		sim:   s,
		name:  name,
		core:  s.core(core),
		vt:    s.curTime(),
		state: stReady,
		fn:    fn,
	}
	if s.finished > len(s.threads)/2 {
		live := s.threads[:0]
		for _, u := range s.threads {
			if u.state != stDone {
				live = append(live, u)
			}
		}
		clear(s.threads[len(live):])
		s.threads, s.finished = live, 0
	}
	s.threads = append(s.threads, t)
	s.push(event{at: t.vt, th: t})
	return t
}

// A carrier is a coroutine that runs thread bodies one after another: Run
// switches to it with next, and the body switches back with yield whenever
// the thread stops (iter.Pull's coroswitch: a direct hand-off between the
// two goroutines that never touches the run queue). Between bodies the
// carrier sits in yield with nothing on it.
type carrier struct {
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	t     *simThread // the body to run at the next switch from idle
}

// idleCarriers is the process-wide free list of carriers between bodies. It
// is shared across Sims because every repetition, drill and test builds a
// Sim of its own, and a thread on a fresh iter.Pull costs 15 allocations
// where one on a reused carrier costs 2. An idle carrier is a parked goroutine with an empty frame: the
// list holds no simulation state, so two Sims sharing it cannot see each
// other through it (unlike the registries of ROADMAP item 6(d)).
var idleCarriers struct {
	sync.Mutex
	list []*carrier
}

// maxIdleCarriers bounds the free list; a carrier that finishes a body
// while the list is full is ended instead. The largest drill (the 8-host
// cluster soak) peaks at 89 live threads.
const maxIdleCarriers = 256

func getCarrier() *carrier {
	idleCarriers.Lock()
	if n := len(idleCarriers.list); n > 0 {
		c := idleCarriers.list[n-1]
		idleCarriers.list[n-1] = nil
		idleCarriers.list = idleCarriers.list[:n-1]
		idleCarriers.Unlock()
		return c
	}
	idleCarriers.Unlock()
	c := &carrier{}
	c.next, c.stop = iter.Pull(c.loop)
	return c
}

func putCarrier(c *carrier) {
	idleCarriers.Lock()
	full := len(idleCarriers.list) >= maxIdleCarriers
	if !full {
		idleCarriers.list = append(idleCarriers.list, c)
	}
	idleCarriers.Unlock()
	if full {
		c.stop() // yield returns false and the carrier's goroutine ends
	}
}

func (c *carrier) loop(yield func(struct{}) bool) {
	c.yield = yield
	for {
		c.run(c.t)
		c.t = nil
		if !yield(struct{}{}) {
			return
		}
	}
}

// run executes one thread body. The unwind of a thread torn down at the end
// of Run stops here, so the carrier outlives it. Any other panic, and
// runtime.Goexit (t.FailNow in a thread body), end the carrier: iter.Pull
// re-raises them from next, on the goroutine that called Run.
func (c *carrier) run(t *simThread) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(simKilled); !ok {
				panic(r)
			}
			t.state = stDone
		}
	}()
	fn := t.fn
	t.fn = nil
	fn(simCtx{t})
	t.state = stDone
	for _, j := range t.joiners {
		t.sim.wake(j, t.vt)
	}
	t.joiners = nil
}

// stop hands control back to Run and blocks until resumed.
func (t *simThread) stop(state int) {
	t.state = state
	t.co.yield(struct{}{})
	if t.sim.killed {
		panic(simKilled{})
	}
}

// resume switches to t and returns when it stops or finishes. A thread
// gets its carrier here, at its first resume, and gives it back when its
// body has returned.
func (s *Sim) resume(t *simThread) {
	c := t.co
	if c == nil {
		c = getCarrier()
		c.t, t.co = t, c
	}
	t.state = stRunning
	s.running = t
	c.next()
	s.running = nil
	if t.state == stDone {
		t.co = nil
		s.finished++
		putCarrier(c)
	}
}

// wake moves a parked thread to ready at the given time.
func (s *Sim) wake(t *simThread, at int64) {
	if t.state != stParked {
		t.permit = true
		return
	}
	t.state = stReady
	if at < s.now {
		at = s.now
	}
	s.push(event{at: at, th: t})
}

// Run executes the simulation until no events remain, then tears down any
// threads that are still parked. It returns the final virtual time. A panic
// in a thread body or timer callback surfaces here with its original value.
func (s *Sim) Run() int64 {
	defer s.teardown()
	for s.pq.Len() > 0 {
		e := s.pop()
		s.advance(e.at)
		if e.fn != nil {
			e.fn()
			continue
		}
		t := e.th
		c := t.core
		if c.standin && e.seq == c.standinSeq {
			c.standin = false
		}
		if t.state != stReady {
			s.promote(c) // a stale stand-in hands over
			continue
		}
		if c.busyUntil > e.at {
			// Keep the original sequence number: a thread displaced by a
			// busy core stays ahead of threads queued after it, which is
			// what makes same-core scheduling round-robin rather than
			// letting the running thread starve its core-mates.
			e.at = c.busyUntil
			if c.standin && c.standinSeq < e.seq {
				c.wait(e)
				continue
			}
			// The core's first waiter, or one that runs before the stand-in
			// (a sleeper kept an old seq): the heap orders the two.
			if h := s.pq; len(h) > 0 && (h[0].at < e.at || h[0].at == e.at && h[0].seq < e.seq) {
				if !c.standin {
					c.standin, c.standinSeq = true, e.seq
				}
				s.pushKeepSeq(e)
				continue
			}
			// Still the earliest event: pushing it and popping it again
			// would be the identity, so carry on with it at its new time.
			s.advance(e.at)
		}
		if e.at > t.vt {
			t.vt = e.at
		}
		s.hidden = e.at == s.lagAt && e.seq < s.lagSeq
		if t.spin.idle != nil && s.playSpin(t) {
			s.played++
		} else {
			s.resumes++
			s.resume(t)
		}
		if c.busyUntil < t.vt {
			c.busyUntil = t.vt
		}
		if t.vt > s.now {
			s.now = t.vt
		}
		if n := len(c.waiters); n > 0 {
			// With every waiter in the heap, these would stay at the time
			// this slot began until the heap got to them, one by one.
			if e.at > s.lagAt {
				s.lagAt, s.lagSeq = e.at, 0
			}
			s.lagSeq = max(s.lagSeq, c.waiters[n-1].seq)
			s.promote(c)
		}
	}
	return s.now
}

// advance moves the global clock to the time of the event being handled.
func (s *Sim) advance(at int64) {
	s.now = max(s.now, at)
	if s.cfg.MaxVirtualTime > 0 && s.now > s.cfg.MaxVirtualTime {
		s.overrun()
	}
}

//go:noinline
func (s *Sim) overrun() {
	panic(fmt.Sprintf("exec: virtual time %d exceeded bound %d", s.now, s.cfg.MaxVirtualTime))
}

// charge is Charge (which is written out: it is the hottest call in the
// repository) up to the stop, reporting whether t has to stop.
func (s *Sim) charge(t *simThread, d int64) bool {
	if d <= 0 {
		return false
	}
	t.vt += d
	if s.hidden || s.pq.Len() > 0 && s.pq.peekTime() < t.vt {
		s.push(event{at: t.vt, th: t})
		return true
	}
	return false
}

// yield is Yield up to the stop.
func (s *Sim) yield(t *simThread) {
	t.vt += s.cfg.YieldCost
	s.push(event{at: t.vt, th: t})
}

// playSpin takes a spinning thread from the stop its event was popped for to
// its next one: the charges, preemption tests and pushes the loop of the Spin
// contract would make, made in Run. It reports false when the spin is over
// and the thread has to be resumed to return from it.
func (s *Sim) playSpin(t *simThread) bool {
	sp := &t.spin
	if sp.at == spinPost {
		sp.at = spinCheck
		if s.charge(t, sp.post) {
			return true
		}
	}
	if sp.at == spinCheck {
		if sp.n == sp.max || !sp.idle.Idle(t.vt) {
			return false
		}
		sp.at = spinYield
		if s.charge(t, sp.pre) {
			return true
		}
	}
	sp.n++
	sp.at = spinPost
	s.yield(t)
	return true
}

// teardown unwinds every thread that started and did not finish (daemons
// still parked at the end, and everything else when Run is leaving on a
// panic), so their carriers go back to the free list. A thread that never
// started holds no carrier and needs nothing.
func (s *Sim) teardown() {
	s.killed = true
	s.running = nil
	threads := s.threads
	s.threads = nil // an unwinding body may still spawn
	for _, t := range threads {
		if t.co != nil && (t.state == stParked || t.state == stReady) {
			s.resume(t)
		}
	}
}

// simCtx is the Context handed to each simulated thread.
type simCtx struct{ t *simThread }

func (c simCtx) Now() int64 { return c.t.vt }

func (c simCtx) Charge(d int64) {
	if d <= 0 {
		return
	}
	t := c.t
	t.vt += d
	s := t.sim
	// Preempt if some other event is due before our local clock: requeue
	// ourselves so global time order stays causal.
	if s.hidden || s.pq.Len() > 0 && s.pq.peekTime() < t.vt {
		s.push(event{at: t.vt, th: t})
		t.stop(stReady)
	}
}

func (c simCtx) Yield() {
	c.t.sim.yield(c.t)
	c.t.stop(stReady)
}

func (c simCtx) Spin(pre, post int64, max int, idle Idler) int {
	t := c.t
	t.spin = spin{idle: idle, pre: pre, post: post, max: max}
	t.sim.yield(t)
	t.stop(stReady) // back when Run has played the spin to its end
	t.spin.idle = nil
	return t.spin.n
}

func (c simCtx) Sleep(d int64) {
	if d < 0 {
		d = 0
	}
	t := c.t
	t.sim.push(event{at: t.vt + d, th: t})
	t.stop(stReady)
}

func (c simCtx) Park() {
	t := c.t
	if t.permit {
		t.permit = false
		return
	}
	t.stop(stParked)
}

func (c simCtx) Self() Thread { return c.t }

func (c simCtx) Spawn(name string, fn func(Context)) Thread {
	s := c.t.sim
	s.autoCore++
	return s.spawn(s.autoCore, name, fn)
}

func (c simCtx) SpawnOn(core CoreID, name string, fn func(Context)) Thread {
	return c.t.sim.spawn(core, name, fn)
}

func (c simCtx) Join(t Thread) {
	st := t.(*simThread)
	if st.state == stDone {
		return
	}
	st.joiners = append(st.joiners, c.t)
	c.t.stop(stParked)
}

func (c simCtx) After(d int64, fn func()) {
	if d < 0 {
		d = 0
	}
	c.t.sim.push(event{at: c.t.vt + d, fn: fn})
}

func (t *simThread) Name() string { return t.name }

// Unpark may be called from any simulated thread or timer callback within
// the same Sim. It must not be called from outside the simulation.
func (t *simThread) Unpark() {
	s := t.sim
	s.wake(t, s.curTime())
}

// AfterAt schedules a timer callback from non-thread context (e.g. a
// subsystem wiring events before Run starts).
func (s *Sim) AfterAt(at int64, fn func()) {
	if at < s.now {
		at = s.now
	}
	s.push(event{at: at, fn: fn})
}
