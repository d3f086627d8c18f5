package exec

// Clock is the simulator's time/timer facility, usable from a simulated
// thread or a timer callback alike. Hardware-ish subsystems (the fabric,
// NIC retransmission timers, the fault injector) capture a Clock at
// construction instead of borrowing a thread's Context; it is all of the
// Sim they can reach, so they cannot spawn or block.
type Clock interface {
	// Now returns the current time in ns: the acting thread's local
	// virtual time when called from a thread, the global clock otherwise.
	Now() int64
	// After schedules fn at Now()+d. fn runs in timer context and must
	// not block.
	After(d int64, fn func())
}

type simClock struct{ s *Sim }

// Clock returns the simulator's global clock.
func (s *Sim) Clock() Clock { return simClock{s} }

func (c simClock) Now() int64 { return c.s.curTime() }

func (c simClock) After(d int64, fn func()) {
	if d < 0 {
		d = 0
	}
	c.s.push(event{at: c.s.curTime() + d, fn: fn})
}
