package host

import "socksdirect/internal/exec"

// SimLock models a contended spinlock in virtual time. Go mutexes cannot
// express contention under the discrete-event scheduler (threads run one
// at a time, so they never collide); SimLock instead serializes critical
// sections on the virtual timeline: each Acquire waits until the lock's
// busy period ends, then occupies it for holdNs. Under N cores hammering
// the lock, aggregate throughput caps at 1/holdNs — which is exactly how
// the kernel's global TCB lock flattens the Linux curve in Figure 9.
type SimLock struct {
	busyUntil int64
	// ContentionPenalty is extra time charged whenever an Acquire finds
	// the lock busy, modelling the cache-line ping-pong of a contended
	// spinlock (the paper measures contended locks at 2x the uncontended
	// cost before even counting the wait, Table 2). LibVMA's shared NIC
	// queue lock uses a large penalty to reproduce its throughput
	// collapse beyond one thread (Figure 9).
	ContentionPenalty int64
}

// Acquire blocks (in virtual time) until the lock is free, then holds it
// for holdNs. It returns immediately in real time.
func (l *SimLock) Acquire(ctx exec.Context, holdNs int64) {
	now := ctx.Now()
	wait := l.busyUntil - now
	if wait < 0 {
		wait = 0
	} else if wait > 0 {
		wait += l.ContentionPenalty
	}
	l.busyUntil = now + wait + holdNs
	ctx.Charge(wait + holdNs)
}
