package host

import "socksdirect/internal/exec"

// WaitQ is the kernel wait-queue primitive. Simulated threads must never
// block on Go channels or condition variables directly — the DES scheduler
// only understands Park/Unpark — so every blocking kernel object (pipes,
// sockets, epoll) sleeps through a WaitQ.
//
// The protocol is the classic prepare/check/park loop: spurious wakeups
// are possible and callers must re-check their condition.
type WaitQ struct {
	waiters []exec.Thread
}

// Wait blocks the calling thread until cond() holds. wakeCost, when
// non-zero, is charged to the *waking* path as scheduling latency (the
// paper's 3–5 us process wakeup is modelled at the Wake call).
func (w *WaitQ) Wait(ctx exec.Context, cond func() bool) {
	for {
		if cond() {
			return
		}
		self := ctx.Self()
		w.waiters = append(w.waiters, self)
		if cond() {
			// Lost race: a wake may already have granted us a permit; by
			// parking once we either consume it or return instantly on
			// the next wake. Either way the loop re-checks.
			w.remove(self)
			return
		}
		ctx.Park()
	}
}

func (w *WaitQ) remove(t exec.Thread) {
	for i, x := range w.waiters {
		if x == t {
			w.waiters = append(w.waiters[:i], w.waiters[i+1:]...)
			break
		}
	}
}

// Wake unparks all waiters after delay nanoseconds (0 = immediately).
// Passing the kernel's ProcessWakeup cost as delay reproduces the wakeup
// latency every kernel-mediated round trip pays (§2.1.2).
func (w *WaitQ) Wake(clk exec.Clock, delay int64) {
	ws := w.waiters
	w.waiters = nil
	if len(ws) == 0 {
		return
	}
	if delay <= 0 {
		for _, t := range ws {
			t.Unpark()
		}
		return
	}
	// A delayed wake models the kernel scheduler's process-wakeup latency —
	// the Table 4 "process wakeup" row counts these.
	mWakeups.Add(int64(len(ws)))
	clk.After(delay, func() {
		for _, t := range ws {
			t.Unpark()
		}
	})
}
