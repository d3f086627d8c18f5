package core

import (
	"socksdirect/internal/exec"
	"socksdirect/internal/host"
)

// Event flags.
const (
	EPOLLIN  = 1 << 0
	EPOLLOUT = 1 << 1
	EPOLLHUP = 1 << 2
)

// Event is one readiness report.
type Event struct {
	FD     int
	Events uint32
}

// Epoll multiplexes readiness across libsd sockets and kernel FDs (§4.4
// challenge 1): user-space sockets are polled inline; kernel FDs are
// watched by a single per-process epoll thread that forwards readiness, so
// the hot path never crosses the kernel.
type Epoll struct {
	lib *Libsd
	ifd map[int]uint32 // fd -> interest mask

	kernelReady map[int]uint32 // readiness reported by the epoll thread
	fd          int
}

// NewEpoll creates an epoll instance (epoll_create).
func (l *Libsd) NewEpoll() *Epoll {
	ep := &Epoll{
		lib:         l,
		ifd:         make(map[int]uint32),
		kernelReady: make(map[int]uint32),
	}
	ep.fd = l.installFD(fdEntry{kind: fdKernel}) // placeholder entry holds the number
	l.epolls[ep] = struct{}{}
	l.startEpollThread()
	return ep
}

// FD returns the epoll descriptor.
func (ep *Epoll) FD() int { return ep.fd }

// Add registers interest in fd (epoll_ctl ADD).
func (ep *Epoll) Add(fd int, events uint32) error {
	if _, err := ep.lib.lookupFD(fd); err != nil {
		return err
	}
	ep.ifd[fd] = events
	return nil
}

// Del removes interest (epoll_ctl DEL).
func (ep *Epoll) Del(fd int) {
	delete(ep.ifd, fd)
	delete(ep.kernelReady, fd)
}

// Wait polls until at least one event is ready (level-triggered), yielding
// the core between polls; when nothing shows up for long, the thread
// sleeps and relies on the epoll thread / queue wakes.
func (ep *Epoll) Wait(ctx exec.Context, events []Event) (int, error) {
	l := ep.lib
	l.enter()
	defer l.leave()
	mEpollWaits.Inc()
	l.epollWaiters++
	defer func() { l.epollWaiters-- }()
	if l.epollThread != nil {
		l.epollThread.H.Unpark()
	}
	w := wait{l: l, idle: (*epollWaiter)(ep), pre: l.H.Costs.RingOp} // Wait polls as part of looking
	for {
		l.pollCtl(ctx)
		l.pump(ctx)
		if n := ep.poll(events); n > 0 {
			return n, nil
		}
		if err := w.block(ctx); err != nil {
			return 0, err
		}
	}
}

func (ep *Epoll) poll(events []Event) int {
	n := 0
	for fd, mask := range ep.ifd {
		if n == len(events) {
			break
		}
		got, kernel := ep.ready(fd, mask)
		if kernel {
			delete(ep.kernelReady, fd) // reported: the next sweep starts afresh
		}
		if got != 0 {
			events[n] = Event{FD: fd, Events: got}
			n++
		}
	}
	return n
}

// ready is one watched descriptor's readiness under its interest mask, and
// whether it is a kernel file (whose swept readiness poll consumes). It
// changes nothing while the CQs are empty.
func (ep *Epoll) ready(fd int, mask uint32) (got uint32, kernel bool) {
	e, err := ep.lib.lookupFD(fd)
	if err != nil {
		return 0, false
	}
	switch e.kind {
	case fdSocket:
		if mask&EPOLLIN != 0 && e.sock.Readable() {
			got |= EPOLLIN
		}
		if mask&EPOLLOUT != 0 && e.sock.Writable() {
			got |= EPOLLOUT
		}
		if e.sock.peerGone() {
			got |= EPOLLHUP
		}
	case fdListener:
		if mask&EPOLLIN != 0 && e.lst.Pending() > 0 {
			got |= EPOLLIN
		}
	case fdKernel:
		if e.kf == nil {
			return 0, false
		}
		// Level-triggered direct check plus whatever the epoll thread
		// reported (kernel events are multiplexed into user space).
		if mask&EPOLLIN != 0 && e.kf.Readable() {
			got |= EPOLLIN
		}
		if mask&EPOLLOUT != 0 && e.kf.Writable() {
			got |= EPOLLOUT
		}
		return got | ep.kernelReady[fd]&mask, true
	}
	return got, false
}

// startEpollThread launches the per-process kernel-event thread (§4.4:
// "libsd creates a per-process epoll thread which invokes epoll_wait
// syscall to poll kernel events"). It wakes periodically, pays the
// syscall, and posts readiness into every epoll instance.
func (l *Libsd) startEpollThread() {
	if l.epollThread != nil {
		return
	}
	l.epollThread = l.P.Spawn("libsd-epoll", func(ctx exec.Context, t *host.Thread) {
		for !l.P.Dead() {
			if l.epollWaiters == 0 {
				// Nobody is waiting: park until the next Wait call
				// (keeps the simulation's event queue finite, and a
				// real epoll thread would block in epoll_wait too).
				ctx.Park()
				continue
			}
			mEpollSweeps.Inc()
			l.H.Kern.Syscall(ctx) // the epoll_wait crossing, once per sweep
			eps := make([]*Epoll, 0, len(l.epolls))
			for ep := range l.epolls {
				eps = append(eps, ep)
			}
			for _, ep := range eps {
				ep.sweepKernel()
			}
			ctx.Sleep(50_000) // 50 us sweep period
		}
	})
}

func (ep *Epoll) sweepKernel() {
	for fd, mask := range ep.ifd {
		e, err := ep.lib.lookupFD(fd)
		if err != nil || e.kind != fdKernel || e.kf == nil {
			continue
		}
		var got uint32
		if mask&EPOLLIN != 0 && e.kf.Readable() {
			got |= EPOLLIN
		}
		if mask&EPOLLOUT != 0 && e.kf.Writable() {
			got |= EPOLLOUT
		}
		if got != 0 {
			ep.kernelReady[fd] |= got
		}
	}
}
