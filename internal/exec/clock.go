package exec

// Clock is the simulator's time/timer facility, usable from a simulated
// thread or a timer callback alike. Hardware-ish subsystems (the fabric,
// NIC retransmission timers, the fault injector) capture a Clock at
// construction instead of borrowing a thread's Context; it is all of the
// Sim they can reach, so they cannot spawn or block.
type Clock struct{ s *Sim }

// Clock returns the simulator's global clock.
func (s *Sim) Clock() Clock { return Clock{s} }

// Now returns the current time in ns: the acting thread's local virtual
// time when called from a thread, the global clock otherwise.
func (c Clock) Now() int64 { return c.s.curTime() }

// After schedules fn at Now()+d. fn runs in timer context and must not
// block.
func (c Clock) After(d int64, fn func()) {
	if d < 0 {
		d = 0
	}
	c.s.push(event{at: c.s.curTime() + d, fn: fn})
}
