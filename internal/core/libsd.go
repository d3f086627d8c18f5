package core

import (
	"errors"
	"fmt"
	"sync/atomic"

	"socksdirect/internal/ctlmsg"
	"socksdirect/internal/exec"
	"socksdirect/internal/host"
	"socksdirect/internal/monitor/shard"
	"socksdirect/internal/obs"
	"socksdirect/internal/rdma"
	"socksdirect/internal/shm"
)

// Errors returned by the libsd API.
var (
	ErrBadFD       = errors.New("libsd: bad file descriptor")
	ErrNotSocket   = errors.New("libsd: not a socket")
	ErrDenied      = errors.New("libsd: permission denied by monitor policy")
	ErrNoListener  = errors.New("libsd: connection refused")
	ErrPortInUse   = errors.New("libsd: address already in use")
	ErrPeerDead    = errors.New("libsd: peer process failed (SIGHUP)")
	ErrShutdown    = errors.New("libsd: socket is shut down")
	ErrNoMonitor   = errors.New("libsd: no monitor daemon on this host")
	ErrConnTimeout = errors.New("libsd: connection setup failed")
)

// registrar is the structural interface the monitor satisfies; keeping it
// structural avoids an import cycle.
type registrar interface {
	RegisterProcess(p *host.Process) *ProcLink
	RegisterChild(p *host.Process, secret uint64) *ProcLink
}

// fdKind discriminates FD remapping table entries (§4.5.1): libsd owns the
// descriptor namespace and forwards non-socket FDs to the kernel.
type fdKind uint8

const (
	fdFree fdKind = iota
	fdSocket
	fdKernel
	fdListener
)

type fdEntry struct {
	kind fdKind
	sock *Socket
	kf   host.KFile
	lst  *Listener
}

// Libsd is the per-process user-space socket library.
type Libsd struct {
	P *host.Process
	H *host.Host

	link *ProcLink  // the monitor's: control duplexes, doorbell, in-library count and pending mark
	ctl  []shm.Side // app side of link's duplexes, one per shard

	// monEpoch is the monitor incarnation this process believes it is
	// talking to: stamped on every outgoing control message, bumped when a
	// higher-epoch message (a restarted daemon's KReRegister) arrives.
	monEpoch atomic.Uint32
	// lastCtlRecv is, per monitor shard, the virtual time any control
	// message was last received on that shard's plane; bounded waits
	// measure the silence of the one shard loop serving their request,
	// so a live sibling shard cannot mask a wedged one.
	lastCtlRecv []atomic.Int64
	// ctlSeen counts the control messages pollCtl has dispatched, on any
	// thread or from the signal handler: a control wait that finds it
	// unchanged knows no handler has touched what it waits for.
	ctlSeen atomic.Uint32

	// sleepNotes holds the TIDs of the receivers parked in interrupt mode,
	// for wakeParked.
	sleepNotes map[int]struct{}

	fds     map[int]fdEntry // by value: an entry is no allocation of its own
	nextFD  int
	freeFDs []int

	// connection setup state, and the free lists of its per-dial records
	// (grown on demand, never pre-filled)
	nextConnID uint64
	pending    map[uint64]*pendingConn
	backlogs   map[backlogKey]*backlog
	dialFree   freeList[pendingConn]
	acceptFree freeList[pendingAccept]

	// sockets by QID for control routing (token messages): the first one
	// tracked, the rest (both ends of an intra-host connection in one
	// process, fork siblings) chained through Socket.sib
	socks map[uint64]*Socket

	// RDMA plumbing: one shared CQ pair per process (the paper shares one
	// CQ per thread; a per-process CQ preserves the single-poll property).
	pd      *rdma.PD
	sendCQ  *rdma.CQ
	recvCQ  *rdma.CQ
	eps     map[uint32]*rdmaEP // QPN -> endpoint, for CQ dispatch
	pumping bool               // pump is draining the CQs (a handler can re-enter it)

	// closing holds inter-host sides whose last FD closed here but whose
	// peer has not finished closing (by QID, so a death notice can still
	// find them); zcIdle is the recycle list of pinned zero-copy pools and
	// parked the QPs of finished connections, oldest first; see
	// lifecycle.go.
	closing map[uint64]*SideState
	zcIdle  []*zcPool
	parked  []parkedQP

	// pendingRevokes are token-return requests deferred because a thread
	// was inside the library; processed on library exit ("libsd will
	// process the event before returning control to the application").
	pendingRevokes []revokeReq
	hasRevokes     atomic.Bool

	// batching toggles §4.2 adaptive batching (off = the "SD (unopt)"
	// series in Figures 7-9).
	batching bool

	// reqp tracks in-flight QP splices (recover.go), matched by nonce.
	reqp      []pendingReQP
	reqpNonce uint64 // last nonce issued

	// recoveryBudget is how many failed QP re-establishment attempts a
	// socket spends before degrading to kernel TCP (§4.5.3).
	recoveryBudget int

	// forkAcks records monitor-acknowledged fork secrets.
	forkAcks map[uint64]bool

	epolls       map[*Epoll]struct{}
	epollWaiters atomic.Int32
	epollThread  *host.Thread
}

// SetBatching toggles adaptive batching for endpoints created afterwards.
func (l *Libsd) SetBatching(on bool) { l.batching = on }

type backlogKey struct {
	port uint16
	tid  int
}

type backlog struct {
	conns      []*pendingAccept
	bindStatus atomic.Int32 // 0 unknown, 1 ok, else ctlmsg status+1
	asleep     exec.Thread  // the listener thread parked in Accept, for the KNewConn handler to wake
}

// pendingConn is one dial in flight: what the KConnectRes handler fills
// in, the SYN and the wait for its answer. ConnectDeadline takes it from
// dialFree and gives it back once it has deleted the l.pending entry, the
// record's only other holder, so a dial allocates none.
type pendingConn struct {
	status   atomic.Int32 // 0 pending, 1 ok, 2 failed
	errCode  uint8
	sock     *Socket
	inter    *interSide // a remote dial's side, built before the SYN goes out
	host     string     // the dialed host
	kernelFD int

	syn ctlmsg.Msg // the request, which ctl re-sends
	ctl ctlWait
}

// freeList keeps blank records of one kind for reuse, last in first out.
type freeList[T any] []*T

// get returns a blank record, a kept one if there is one.
func (f *freeList[T]) get() *T {
	n := len(*f)
	if n == 0 {
		return new(T)
	}
	r := (*f)[n-1]
	*f = (*f)[:n-1]
	return r
}

// put blanks r, which nothing else may hold any more, and keeps it.
func (f *freeList[T]) put(r *T) {
	*r = *new(T)
	*f = append(*f, r)
}

// Init loads libsd into a process: it registers with the host's monitor
// over a fresh SHM queue and installs the signal handler used to interrupt
// busy threads.
func Init(p *host.Process) (*Libsd, error) {
	reg, ok := p.Host.Mon.(registrar)
	if !ok || reg == nil {
		return nil, ErrNoMonitor
	}
	return initWith(p, reg.RegisterProcess(p))
}

func initWith(p *host.Process, link *ProcLink) (*Libsd, error) {
	if link == nil {
		return nil, ErrNoMonitor
	}
	ctl := make([]shm.Side, len(link.Ds))
	for i, d := range link.Ds {
		ctl[i] = d.A()
	}
	l := &Libsd{
		P:          p,
		H:          p.Host,
		link:       link,
		ctl:        ctl,
		fds:        make(map[int]fdEntry),
		pending:    make(map[uint64]*pendingConn),
		backlogs:   make(map[backlogKey]*backlog),
		socks:      make(map[uint64]*Socket),
		eps:        make(map[uint32]*rdmaEP),
		closing:    make(map[uint64]*SideState),
		sendCQ:     rdma.NewCQ(),
		recvCQ:     rdma.NewCQ(),
		epolls:     make(map[*Epoll]struct{}),
		forkAcks:   make(map[uint64]bool),
		sleepNotes: make(map[int]struct{}),
		batching:   true,

		recoveryBudget: DefaultRecoveryBudget,
	}
	l.lastCtlRecv = make([]atomic.Int64, len(ctl))
	l.monEpoch.Store(link.Epoch)
	l.pd = p.Host.NIC.AllocPD()
	l.armAutoPump()
	p.Libsd = l
	// The signal handler processes control messages when the monitor needs
	// the attention of a process that is outside libsd (a SYN, a token
	// revocation, a wake request). The monitor signals only such a process;
	// one that entered since leaves the work to its library exit (leave).
	p.RegisterHandler(host.SIGUSR1, func(host.Signal) {
		if l.inside() {
			return
		}
		l.pollCtl(exec.Context{})
	})
	return l, nil
}

type revokeReq struct {
	qid  uint64
	dir  uint8
	side uint16
}

// enter/leave bracket every libsd entry point for the monitor's interrupt
// (§4.4 challenge 2): a process with a thread inside is not signalled.
func (l *Libsd) enter() { l.link.InLibsd.Add(1) }

// leave is the library exit: the last thread out runs what the signal
// handler would have ("libsd will process the event before returning
// control to the application") — the control messages the monitor marked
// pending instead of signalling, and deferred revocations. Without it a
// sibling that leaves without polling strands a SYN for a parked listener.
func (l *Libsd) leave() {
	if l.link.InLibsd.Add(-1) != 0 {
		return
	}
	if l.link.Pending.Load() {
		l.pollCtl(exec.Context{})
	}
	if l.hasRevokes.Load() {
		l.processRevokes(exec.Context{})
	}
}

// inside reports whether a thread of the process is inside libsd.
func (l *Libsd) inside() bool { return l.link.InLibsd.Load() > 0 }

// processRevokes hands back every token the monitor asked for whose socket
// is not mid-operation.
func (l *Libsd) processRevokes(ctx exec.Context) {
	pend := l.pendingRevokes
	l.pendingRevokes = nil
	l.hasRevokes.Store(false)
	var requeue []revokeReq
	for _, rv := range pend {
		any := l.socks[rv.qid]
		if any == nil {
			r := ctlmsg.Msg{Kind: ctlmsg.KTokenReturn, QID: rv.qid, Dir: rv.dir,
				SrcPort: rv.side, PID: int64(l.P.PID)}
			l.sendCtl(ctx, &r)
			continue
		}
		dir := min(rv.dir, DirRecv) // a direction off the wire: anything but DirSend is the receive side
		if any.side.Busy[dir].Load() > 0 {
			// A thread is mid-operation with this token; it hands back at
			// its own boundary (the flag stays set). Keep the request so
			// a later pass retries if the boundary path lost the race.
			requeue = append(requeue, rv)
			continue
		}
		if any.side.ReturnReq[dir].CompareAndSwap(true, false) {
			any.side.Holder[dir].Store(0)
			r := ctlmsg.Msg{Kind: ctlmsg.KTokenReturn, QID: rv.qid, Dir: rv.dir,
				SrcPort: any.sideIdx, PID: int64(l.P.PID)}
			l.sendCtl(ctx, &r)
		}
	}
	if len(requeue) > 0 {
		l.pendingRevokes = append(l.pendingRevokes, requeue...)
		l.hasRevokes.Store(true)
	}
}

// --- control plane ---

// ctlShard returns the monitor shard (control plane index) a message
// travels on. Both request and reply derive it from the same key, so the
// pair stays on one plane (see internal/monitor/shard).
func (l *Libsd) ctlShard(m *ctlmsg.Msg) int { return shard.ForMsg(m, len(l.ctl)) }

// sendCtl enqueues a message on its shard's monitor queue (blocking on a
// full ring, which in practice never happens on the control plane). Every
// message is stamped with the monitor epoch this process last heard from;
// a successor incarnation drops older stamps, and the sender's bounded
// wait re-sends under the new epoch.
func (l *Libsd) sendCtl(ctx exec.Context, m *ctlmsg.Msg) {
	m.Epoch = l.monEpoch.Load()
	s := l.ctlShard(m)
	m.Shard = uint8(s)
	if m.TraceID != 0 {
		// Queue-hop start for the monitor's span. Clock, not ctx: the
		// signal-handler path calls through here with the zero Context.
		m.TS = l.H.Clk.Now()
	}
	var buf [ctlmsg.Size]byte
	b := m.Marshal(buf[:])
	for !l.ctl[s].TX.TrySend(0, 0, b) {
		if l.P.Dead() {
			return // corpse control traffic is droppable; don't spin
		}
		if ctx != (exec.Context{}) {
			ctx.Yield()
		}
	}
	if l.link.WakeMonitor != nil {
		l.link.WakeMonitor(s)
	}
}

// pollCtl drains every shard's monitor->process queue, dispatching each
// message. It is safe from any thread of the process and from the signal
// handler. Every blocking wait polls it, nearly always finding nothing. It
// clears the monitor's pending mark first: what was marked is drained here.
func (l *Libsd) pollCtl(ctx exec.Context) bool {
	l.link.Pending.Store(false)
	progress := false
	for s := 0; s < len(l.ctl); {
		msg, ok := l.ctl[s].RX.TryRecv()
		for !ok && s+1 < len(l.ctl) {
			s++
			msg, ok = l.ctl[s].RX.TryRecv()
		}
		var m ctlmsg.Msg
		if ok {
			m, ok = ctlmsg.Unmarshal(msg.Payload)
		}
		if !ok {
			s++ // the last shard is empty, or this one held garbage
			continue
		}
		progress = true
		l.ctlSeen.Add(1)
		now := l.H.Clk.Now()
		l.lastCtlRecv[s].Store(now)
		if m.Epoch != 0 && !l.noteMonEpoch(m.Epoch) {
			continue // a dead incarnation's leftover: drop it
		}
		// Queue hop: monitor enqueue (m.TS) to this process's dequeue.
		m.SpanID = obs.RecordHop(l.H.Name, int64(l.P.PID), obs.HopProcRing,
			uint8(m.Kind), m.TraceID, m.SpanID, m.TS, now)
		l.handleCtl(ctx, &m)
	}
	return progress
}

// ctlIdle reports whether pollCtl would find every shard's queue empty and
// leave it untouched (idle predicates).
func (l *Libsd) ctlIdle() bool {
	for i := range l.ctl {
		if !l.ctl[i].RX.RecvIdle() {
			return false
		}
	}
	return true
}

// noteMonEpoch folds an incoming message's epoch into monEpoch. A higher
// epoch means the monitor restarted (its KReRegister is how we normally
// learn); an older one marks a message written by an incarnation that no
// longer exists, which the caller must drop. The monitor ring is FIFO so
// older stamps are rare — they require the process to have learned the
// new epoch through another thread mid-drain — but dropping them is what
// keeps a late grant or dispatch from resurrecting retired state.
func (l *Libsd) noteMonEpoch(e uint32) bool {
	for {
		cur := l.monEpoch.Load()
		if e == cur {
			return true
		}
		if e < cur {
			mCtlStale.Inc()
			return false
		}
		if l.monEpoch.CompareAndSwap(cur, e) {
			return true
		}
	}
}

// --- FD remapping table (§4.5.1): lowest available FD, recycle pool ---

func (l *Libsd) installFD(e fdEntry) int {
	var fd int
	if n := len(l.freeFDs); n > 0 {
		fd = l.freeFDs[n-1]
		l.freeFDs = l.freeFDs[:n-1]
	} else {
		fd = l.nextFD
		l.nextFD++
	}
	l.fds[fd] = e
	return fd
}

func (l *Libsd) lookupFD(fd int) (fdEntry, error) {
	e, ok := l.fds[fd]
	if !ok {
		return fdEntry{}, fmt.Errorf("%w: %d", ErrBadFD, fd)
	}
	return e, nil
}

func (l *Libsd) releaseFD(fd int) {
	if _, ok := l.fds[fd]; !ok {
		return
	}
	delete(l.fds, fd)
	l.freeFDs = append(l.freeFDs, fd)
	for i := len(l.freeFDs) - 1; i > 0 && l.freeFDs[i] > l.freeFDs[i-1]; i-- {
		l.freeFDs[i], l.freeFDs[i-1] = l.freeFDs[i-1], l.freeFDs[i]
	}
}

// InstallKernelFD remaps a kernel file into the libsd FD space (open(),
// pipes, and the TCP-fallback sockets the monitor hands over).
func (l *Libsd) InstallKernelFD(kf host.KFile) int {
	l.enter()
	defer l.leave()
	return l.installFD(fdEntry{kind: fdKernel, kf: kf})
}

// KernelFile returns the kernel object behind a remapped FD.
func (l *Libsd) KernelFile(fd int) (host.KFile, error) {
	e, err := l.lookupFD(fd)
	if err != nil {
		return nil, err
	}
	if e.kind != fdKernel {
		return nil, ErrNotSocket
	}
	return e.kf, nil
}

// SocketByFD resolves an FD to a user-space socket.
func (l *Libsd) SocketByFD(fd int) (*Socket, error) {
	e, err := l.lookupFD(fd)
	if err != nil {
		return nil, err
	}
	switch e.kind {
	case fdSocket:
		return e.sock, nil
	default:
		return nil, ErrNotSocket
	}
}

// trackSock appends s to its queue's sockets (Libsd.socks), chained
// through Socket.sib, so tracking allocates nothing.
func (l *Libsd) trackSock(s *Socket) {
	last := l.socks[s.side.QID]
	if last == nil {
		l.socks[s.side.QID] = s
		return
	}
	for last.sib != nil {
		last = last.sib
	}
	last.sib = s
}

func (l *Libsd) untrackSock(s *Socket) {
	if first := l.socks[s.side.QID]; first == s {
		if s.sib == nil {
			delete(l.socks, s.side.QID)
		} else {
			l.socks[s.side.QID] = s.sib
		}
	} else {
		for p := first; p != nil; p = p.sib {
			if p.sib == s {
				p.sib = s.sib
				break
			}
		}
	}
	s.sib = nil
}

// --- RDMA completion pump: one shared CQ pair serves every socket in the
// process (§4.2 "each thread uses a shared completion queue for all RDMA
// QPs, so it only needs to poll one queue"). ---

// registerEP makes ep the target of its QP's completions and records it
// with the side, which closes every QP it was ever given on release.
func (l *Libsd) registerEP(ep *rdmaEP) {
	l.eps[ep.qp.QPN()] = ep
	ep.side.eps = append(ep.side.eps, ep)
}

func (l *Libsd) unregisterEP(ep *rdmaEP) {
	delete(l.eps, ep.qp.QPN())
}

// switchEP points every socket of this process on queue qid at ep — a
// splice's new QP, or the rescue TCP connection — and returns the
// inter-host endpoints they leave.
func (l *Libsd) switchEP(qid uint64, ep endpoint) (olds []*rdmaEP) {
	for s := l.socks[qid]; s != nil; s = s.sib {
		if oe, ok := s.ep.(*rdmaEP); ok && oe != ep {
			olds = append(olds, oe)
		}
		s.ep = ep
	}
	return olds
}

// closeQPs retires the QPs of eps (closing one twice is harmless); an
// inherited endpoint that never spliced has none.
func closeQPs(eps []*rdmaEP) {
	for _, ep := range eps {
		if ep.qp != nil {
			ep.qp.Close()
		}
	}
}

// pump drains both CQs, advancing receive rings and releasing batched
// sends. Returns true if anything happened. A call from inside a handler
// (a closed side's release closes its QP, and the flush completions it
// pushes fire the CQ arms) finds pumping set and returns: the drain already
// running takes those completions in order. No virtual time is charged
// while pumping is set, so no other thread can find it set; the accumulated
// cost is applied afterwards.
func (l *Libsd) pump(ctx exec.Context) bool {
	if l.pumping {
		return false
	}
	l.pumping = true
	progress := false
	var charge int64
	for {
		e, ok := l.recvCQ.PollOne()
		if !ok {
			break
		}
		progress = true
		charge += l.H.Costs.RDMAPost
		ep := l.eps[e.QPN]
		if ep != nil {
			ep.onRecvCQE(e)
		}
	}
	for {
		e, ok := l.sendCQ.PollOne()
		if !ok {
			break
		}
		progress = true
		ep := l.eps[e.QPN]
		if ep != nil {
			ep.onSendCQE(exec.Context{}, e)
		}
	}
	l.pumping = false
	ctx.Charge(charge)
	return progress
}

// cqsEmpty reports whether pump would find nothing to do.
func (l *Libsd) cqsEmpty() bool { return l.recvCQ.Len() == 0 && l.sendCQ.Len() == 0 }

// armAutoPump keeps the shared CQs self-draining: a completion that lands
// while no application thread is polling still flushes coalesced sends and
// publishes receive tails. Without it, a sender whose threads all block
// (or exit) after a burst would strand its batched tail forever. The
// re-arm path never recurses synchronously: if a drain is already running
// (the arm fired from inside one), the retry goes through a short timer.
func (l *Libsd) armAutoPump() {
	var rearmS, rearmR func()
	rearmS = func() {
		if !l.pump(exec.Context{}) && l.sendCQ.Len() > 0 {
			l.H.Clk.After(l.H.Costs.RDMAPost, rearmS)
			return
		}
		l.sendCQ.Arm(rearmS)
	}
	rearmR = func() {
		if !l.pump(exec.Context{}) && l.recvCQ.Len() > 0 {
			l.H.Clk.After(l.H.Costs.RDMAPost, rearmR)
			return
		}
		l.recvCQ.Arm(rearmR)
	}
	l.sendCQ.Arm(rearmS)
	l.recvCQ.Arm(rearmR)
}

// GTIDOf returns the token identity for a thread.
func (l *Libsd) GTIDOf(t *host.Thread) GTID { return MakeGTID(l.P.PID, t.TID) }

// OnProcessDeath is the kernel-teardown hook (host.Process.terminate
// asserts for it): it runs exactly once when this process is killed,
// before the FD table is reaped. Closing every QP flushes outstanding
// work requests so their staged packet buffers return to the global pool
// (bufpool.Outstanding must converge after a crash), and retires the
// QPNs so late fabric frames are dropped instead of landing in rings the
// monitor is about to reclaim. Ring memory itself stays mapped — the
// surviving peer still drains in-flight bytes before seeing the reset.
// A splice attempt's QP is closed too, found through the sockets (an
// inherited endpoint is registered only once spliced), and stays recorded,
// so the dying thread starts no new attempt.
func (l *Libsd) OnProcessDeath() {
	eps := make([]*rdmaEP, 0, len(l.eps))
	for _, ep := range l.eps {
		eps = append(eps, ep)
	}
	l.eps = make(map[uint32]*rdmaEP)
	closeQPs(eps)
	for _, s := range l.socks {
		for ; s != nil; s = s.sib {
			if ep, ok := s.ep.(*rdmaEP); ok && ep.rec.qp != nil {
				ep.rec.qp.Close()
			}
		}
	}
	l.closeParked("", 0)
}
