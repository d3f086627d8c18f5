package exec

import (
	"fmt"
	"iter"
	"math"
	"sync"
)

// SimConfig tunes the discrete-event scheduler.
type SimConfig struct {
	// MaxVirtualTime aborts the run (panics) if the virtual clock passes
	// this bound; a guard against runaway polls. Zero means no bound.
	MaxVirtualTime int64
}

// DefaultYieldCost is the virtual time charged by every Yield, modelling
// one empty re-poll iteration (~20 ns).
const DefaultYieldCost = 20

// Sim is a deterministic discrete-event scheduler. Exactly one simulated
// thread executes at any instant; virtual time advances only through
// Charge, Sleep, Yield and After. Runs with the same spawn order and
// charges are bit-for-bit reproducible.
//
// A Sim is confined to the goroutine that calls Run: every thread body and
// timer callback executes inside that call, on it or on a coroutine it
// switches to, so nothing in a Sim is locked. Two Sims share nothing but
// the free list of idle carriers and may run on two goroutines at once.
type Sim struct {
	cfg      SimConfig
	now      int64
	seq      uint64
	pq       eventHeap
	cores    map[CoreID]*simCore
	autoCore CoreID
	hosts    uint64 // see HostOrdinal
	running  *thread
	killed   bool
	// threads holds the unfinished threads in spawn order, which is the
	// order Run tears down those still parked at the end. spawn drops the
	// finished ones once they outnumber the rest.
	threads                         []*thread
	finished                        int
	resumes, played, switches, pops int64 // see Resumes
	open                            bool  // pq's root slot is empty: see pop
	fault                           any   // what a timer raised in a thread's stop

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

	cyc   cycle // see window
	short int64 // no window opens at a stop due before this
}

// A cycle is a mark where a window's stops may repeat (its k participants
// and seq) and once seen, how far one cycle moves them (dt > 0) and how many
// stops it makes (dq, each taking a seq).
type cycle struct {
	m       [4]mark
	k       int
	dt      int64
	seq, dq uint64
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

type thread struct {
	sim     *Sim
	name    string
	core    *simCore
	vt      int64
	state   int
	permit  bool
	fn      func(Context) // the body, until it starts
	co      *carrier      // what the body runs on, from its first resume to its end
	joiners []*thread
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
	th  *thread
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

func (h eventHeap) less(i, j int) bool { return h[i].before(h[j]) }

func (e event) before(f event) bool { return e.at < f.at || e.at == f.at && e.seq < f.seq }

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
	if s.open {
		s.open = false
		s.pq[0] = e
		s.pq.siftDown(0)
		return
	}
	s.pq = append(s.pq, e)
	s.pq.siftUp(len(s.pq) - 1)
}

// pop takes the earliest event and leaves its slot open while others are
// left: the next push sifts into it from the top, one sift where a pop and a
// push took two. A pop that finds the slot open closes it with the last one.
func (s *Sim) pop() event {
	s.pops++
	h := s.pq
	if s.open {
		n := len(h) - 1
		s.pq = h[:n]
		s.pushKeepSeq(h[n])
		h[n] = event{} // drop the fn reference so closures are collectable
	}
	e := s.pq[0]
	s.pq[0] = event{}
	if s.open = len(s.pq) > 1; !s.open {
		s.pq = s.pq[:0]
	}
	return e
}

// peek is the earliest event (the root, or while it is open, one of its
// children), or when there is none, one after every other.
func (s *Sim) peek() event {
	switch {
	case !s.open && len(s.pq) > 0:
		return s.pq[0]
	case !s.open:
		return never
	case len(s.pq) > 2 && s.pq.less(2, 1):
		return s.pq[2]
	}
	return s.pq[1]
}

// never is after every event.
var never = event{at: math.MaxInt64, seq: math.MaxUint64}

// NewSim creates a fresh simulator.
func NewSim(cfg SimConfig) *Sim {
	return &Sim{
		cfg:      cfg,
		cores:    make(map[CoreID]*simCore),
		autoCore: 1 << 20,
	}
}

// HostOrdinal numbers the hosts built on this Sim from 1, in the order
// they are built.
func (s *Sim) HostOrdinal() uint64 {
	s.hosts++
	return s.hosts
}

// Now returns the current virtual time. Only meaningful while Run is
// executing (or after it returns, as the final time).
func (s *Sim) Now() int64 { return s.now }

// Resumes is how many times Run has resumed a thread, Played how many
// stops of spinning threads it has handled itself (Context.Spin). Their sum
// is the run's thread events: without Spin, every one of them a resume.
// Switches is how many resumes switched carriers (thread.stop has the rest),
// Pops how many events were taken off the event heap.
func (s *Sim) Resumes() int64  { return s.resumes }
func (s *Sim) Played() int64   { return s.played }
func (s *Sim) Switches() int64 { return s.switches }
func (s *Sim) Pops() int64     { return s.pops }

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
	t := &thread{
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
	return Thread{t}
}

// A carrier is a coroutine that runs thread bodies one after another: Run
// switches to it with next, and the body switches back with yield, naming
// the thread to run next, when another thread is to run (iter.Pull's
// coroswitch: a direct hand-off between the two goroutines that never
// touches the run queue). Between bodies the carrier sits in yield(nil).
type carrier struct {
	next  func() (*thread, bool)
	stop  func()
	yield func(*thread) bool
	t     *thread // the body to run at the next switch from idle
}

// idleCarriers is the process-wide free list of carriers between bodies. It
// is shared across Sims because every repetition, drill and test builds a
// Sim of its own, and a thread on a fresh iter.Pull costs 15 allocations
// where one on a reused carrier costs 2. An idle carrier is a parked goroutine with an empty frame: the
// list holds no simulation state, so two Sims sharing it cannot see each
// other through it (ARCHITECTURE.md "A Sim owns its state").
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

func (c *carrier) loop(yield func(*thread) bool) {
	c.yield = yield
	for {
		c.run(c.t)
		c.t = nil
		if !yield(nil) {
			return
		}
	}
}

// run executes one thread body. The unwind of a thread torn down at the end
// of Run stops here, so the carrier outlives it. Any other panic, and
// runtime.Goexit (t.FailNow in a thread body), end the carrier: iter.Pull
// re-raises them from next, on the goroutine that called Run.
func (c *carrier) run(t *thread) {
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
	fn(Context{t})
	t.state = stDone
	for _, j := range t.joiners {
		t.sim.wake(j, t.vt)
	}
	t.joiners = nil
}

// stop ends t's slot and runs the loop on t's carrier: t goes on at once if
// the next resume is its own, or yields to Run naming the thread to resume.
func (t *thread) stop(state int) {
	s := t.sim
	if s.killed {
		panic(simKilled{}) // a deferred call of a thread being torn down
	}
	t.state = state
	s.running = nil
	s.settle(t)
	ok := false
	defer func() {
		if !ok { // a timer in next panicked, or called runtime.Goexit:
			s.killed = true // t unwinds as in a teardown, running no loop,
			if s.fault = recover(); s.fault != nil {
				panic(simKilled{}) // and Run raises the timer's value
			}
		}
	}()
	n := s.next()
	ok = true
	if n == t {
		t.state, s.running = stRunning, t
		return
	}
	t.co.yield(n)
	if s.killed {
		panic(simKilled{})
	}
}

// resume switches to t and returns when it stops, with the thread to resume
// next, or finishes. A thread gets its carrier here, at its first resume,
// and gives it back when its body has returned.
func (s *Sim) resume(t *thread) *thread {
	c := t.co
	if c == nil {
		c = getCarrier()
		c.t, t.co = t, c
	}
	t.state = stRunning
	s.running = t
	n, _ := c.next()
	s.running = nil
	if t.state == stDone {
		t.co = nil
		s.finished++
		putCarrier(c)
	}
	return n
}

// wake moves a parked thread to ready at the given time.
func (s *Sim) wake(t *thread, at int64) {
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
// A Sim may be Run again: threads spawned since run on the world as the
// last Run left it.
// The loop (next) runs here at the start and after a thread has finished,
// and after a stop on the stopped thread's carrier (thread.stop).
func (s *Sim) Run() int64 {
	s.killed, s.fault = false, nil
	defer s.teardown()
	for t := s.next(); t != nil; {
		s.switches++
		n := s.resume(t)
		if s.fault != nil {
			panic(s.fault)
		}
		if t.state == stDone {
			s.settle(t)
			n = s.next()
		}
		t = n
	}
	return s.now
}

// next handles events until one resumes a thread and returns that thread,
// or nil when no event is left.
func (s *Sim) next() *thread {
	for len(s.pq) > 0 {
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
			if s.peek().before(e) {
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
		t.vt = max(t.vt, e.at)
		s.hidden = e.at == s.lagAt && e.seq < s.lagSeq
		if n := len(c.waiters); n > 0 {
			// With every waiter in the heap, these would stay at the time
			// this slot began until the heap got to them, one by one. (No
			// waiter comes or goes during a slot.)
			if e.at > s.lagAt {
				s.lagAt, s.lagSeq = e.at, 0
			}
			s.lagSeq = max(s.lagSeq, c.waiters[n-1].seq)
		}
		if t.spin.idle == nil || !s.playSpin(t, s.peek().at, false) {
			s.resumes++
			return t
		}
		s.push(event{at: t.vt, th: t})
		s.played++
		s.settle(t)
		if f := s.peek(); f.idleStop() && f.at >= s.short {
			s.window()
		}
	}
	return nil
}

// window makes, off the heap, the stops of idle spinners due before the next
// other event E (a timer, a thread that is not spinning or will wait for its
// core) and not past MaxVirtualTime: next's steps on the participants' events
// held here in order. Their predicates are asked once, at E's time (Idler).
// Once the participants and their cores are as at a mark (s.cyc), dt later
// and dq further in seq, with no stop since run to E, whole cycles are added
// at once, here or in a later window that matches the mark. Anything else (a
// core waiter, a max, a false check) ends the window before that stop, which
// next makes. The events go back to their heap slots. next calls it after a
// push, so the heap's root is its earliest event.
func (s *Sim) window() {
	var ps [5]event   // the participants' events in order, then E
	var ix, cs [5]int // their heap slots; the slots below those, where the next is
	h, k, nc := s.pq, 0, 1
	for ; ; k++ {
		b := -1
		for i, c := range cs[:nc] {
			if c < len(h) && (b < 0 || h[c].before(h[cs[b]])) {
				b = i
			}
		}
		if ps[k] = never; b >= 0 {
			ps[k] = h[cs[b]]
		}
		if k == 4 || !ps[k].idleStop() {
			break
		}
		ix[k], cs[b], cs[nc] = cs[b], 2*cs[b]+1, 2*cs[b]+2
		nc++
	}
	end, idle := ps[k], true // E, or the first time past MaxVirtualTime
	if s.cfg.MaxVirtualTime > 0 && s.cfg.MaxVirtualTime < end.at {
		end = event{at: s.cfg.MaxVirtualTime + 1}
	}
	if end.at-ps[0].at < 4*DefaultYieldCost {
		s.short = end.at // nor can one open at a stop due before its end
		return           // too few stops before E to pay for the predicates
	}
	for _, e := range ps[:k] {
		idle = idle && e.th.spin.idle.Idle(ps[k].at) // a check may come past end, not past E
	}
	cy, left := &s.cyc, 0
	if cy.dt == 0 {
		cy.k = 0 // a mark is only learnt from in its own window
	} else if cy.k == k {
		left = 4 * k
	}
	for ; ps[0].before(end); left-- {
		s.advance(ps[0].at) // as next's pop does
		dt, dq, i, last := ps[0].at-cy.m[0].e.at, s.seq-cy.seq, 0, int64(0)
		for ; i < k && cy.k == k && idle && dt > 0 && cy.m[i].moved(ps[i], dt, dq, s.lagAt); i++ {
			last = max(last, ps[i].th.core.busyUntil) // no stop since the mark ran past it
		}
		if i == k && last < end.at { // the stops since the mark repeat, and E played no part
			if cy.dt == 0 { // the first time round
				cy.dt, cy.dq = dt, dq
				for i := range cy.m[:k] {
					cy.m[i].dn = ps[i].th.spin.n - cy.m[i].sp.n
				}
			}
			n := (end.at - 1 - last) / cy.dt // cycles that stay before E
			for i := range cy.m[:k] {
				sp := &ps[i].th.spin
				n = min(n, int64((sp.max-1-sp.n)/cy.m[i].dn)) // n < max at every check
			}
			for i := 0; i < k && n > 0; i++ {
				e, m := &ps[i], &cy.m[i]
				t, c := e.th, e.th.core
				t.vt, t.spin.n, e.at, e.seq = t.vt+n*cy.dt, t.spin.n+int(n)*m.dn, e.at+n*cy.dt, e.seq+uint64(n)*cy.dq
				c.busyUntil, c.standinSeq = m.c.busyUntil+dt+n*cy.dt, m.c.standinSeq+dq+uint64(n)*cy.dq
			}
			if n > 0 {
				s.now, s.seq, s.played, left = max(s.now, last+n*cy.dt), s.seq+uint64(n)*cy.dq, s.played+n*int64(cy.dq), 4*k+1
			}
		}
		if left == 0 {
			for i, e := range ps[:k] {
				m := &cy.m[i]
				m.e, m.vt, m.sp, m.c = e, e.th.vt, e.th.spin, *e.th.core
			}
			cy.k, cy.seq, cy.dt, left = k, s.seq, 0, 4*k+1
		}
		e, f, t := ps[0], &ps[1], ps[0].th
		if ps[k].before(*f) {
			f = &ps[k] // f: the earliest other event
		}
		c := t.core
		if c.standin && e.seq == c.standinSeq {
			c.standin = false
		}
		if c.busyUntil > e.at && c.standin && c.standinSeq < e.seq {
			break // it would wait in the core's list
		}
		if e.at = max(e.at, c.busyUntil); f.before(e) { // displaced behind another
			if !c.standin {
				c.standin, c.standinSeq = true, e.seq
			}
		} else {
			t.vt, s.hidden = max(t.vt, e.at), e.at == s.lagAt && e.seq < s.lagSeq
			if !s.playSpin(t, f.at, idle) {
				break
			}
			e.at, e.seq, s.seq, s.played = t.vt, s.seq, s.seq+1, s.played+1
			c.busyUntil, s.now = max(c.busyUntil, t.vt), max(s.now, t.vt) // settle: no waiter to promote
		}
		i = 0
		for ; i+1 < k && ps[i+1].before(e); i++ {
			ps[i] = ps[i+1]
		}
		ps[i].at, ps[i].seq, ps[i].th = e.at, e.seq, t
	}
	for j := k - 1; j >= 0; j-- { // a slot after those below it
		for _, e := range ps[:k] {
			if e.th == s.pq[ix[j]].th {
				s.pq[ix[j]] = e
			}
		}
		s.pq.siftDown(ix[j])
	}
}

// idleStop reports whether e is a stop a window can make: a spinner's, on a
// core with no waiter list, that will not wait behind the core's stand-in.
func (e event) idleStop() bool {
	t := e.th
	return t != nil && t.spin.idle != nil && len(t.core.waiters) == 0 &&
		!(t.core.busyUntil > e.at && t.core.standin && t.core.standinSeq < e.seq)
}

// A mark is a participant of a window as it was where a cycle may begin: its
// event, clock, spin and core, and how many iterations a cycle adds.
type mark struct {
	e  event
	vt int64
	sp spin
	c  simCore
	dn int
}

// moved reports whether e, its thread and its core are m's, dt later and dq
// further in seq, with m past the lag watermark (so no stop since was hidden).
func (m *mark) moved(e event, dt int64, dq uint64, lagAt int64) bool {
	t, c := e.th, e.th.core
	return t == m.e.th && e.at-m.e.at == dt && e.seq-m.e.seq == dq && t.vt-m.vt == dt && t.spin.at == m.sp.at &&
		t.spin.pre == m.sp.pre && t.spin.post == m.sp.post && m.e.at > lagAt && c.busyUntil-m.c.busyUntil == dt &&
		c.standin == m.c.standin && (!c.standin || c.standinSeq-m.c.standinSeq == dq)
}

// settle ends a slot of t's: its core and the clock move up to its time.
func (s *Sim) settle(t *thread) {
	c := t.core
	c.busyUntil = max(c.busyUntil, t.vt)
	s.now = max(s.now, t.vt)
	s.promote(c)
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

// yield is Yield up to the stop.
func (s *Sim) yield(t *thread) {
	t.vt += DefaultYieldCost
	s.push(event{at: t.vt, th: t})
}

// playSpin takes a spinning thread from the stop its event was popped for to
// its next one, the earliest other event being due at f: the charges and
// preemption tests of the loop of the Spin contract, and its Yield. It
// reports false when the spin is over and the thread has to be resumed to
// return from it; idle: its check is known to find it idle.
func (s *Sim) playSpin(t *thread, f int64, idle bool) bool {
	sp := &t.spin
	if sp.at == spinPost {
		if sp.at, t.vt = spinCheck, t.vt+max(sp.post, 0); sp.post > 0 && (s.hidden || f < t.vt) {
			return true
		}
	}
	if sp.at == spinCheck {
		if sp.n == sp.max || !idle && !sp.idle.Idle(t.vt) {
			return false
		}
		if sp.at, t.vt = spinYield, t.vt+max(sp.pre, 0); sp.pre > 0 && (s.hidden || f < t.vt) {
			return true
		}
	}
	sp.n++
	sp.at, t.vt = spinPost, t.vt+DefaultYieldCost
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

// AfterAt schedules a timer callback from non-thread context (e.g. a
// subsystem wiring events before Run starts).
func (s *Sim) AfterAt(at int64, fn func()) {
	if at < s.now {
		at = s.now
	}
	s.push(event{at: at, fn: fn})
}
