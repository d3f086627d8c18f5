package core

import (
	"errors"
	"fmt"
	"sync"
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

	ctlMu   sync.Mutex // guards ctl rings (control plane only)
	ctl     []shm.Side // app side of the monitor duplexes, one per shard
	wakeMon func(shard int)

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

	// sleepNotes tracks threads that published a KSleepNote and parked;
	// a restarted monitor learns them from the re-registration report.
	sleepMu    sync.Mutex
	sleepNotes map[int]struct{}

	mu      sync.Mutex
	fds     map[int]*fdEntry
	nextFD  int
	freeFDs []int

	// connection setup state
	nextConnID uint64
	pending    map[uint64]*pendingConn
	backlogs   map[backlogKey]*backlog

	// sockets by QID for control routing (token messages)
	socks map[uint64]map[*Socket]struct{}

	// RDMA plumbing: one shared CQ pair per process (the paper shares one
	// CQ per thread; a per-process CQ preserves the single-poll property).
	pd     *rdma.PD
	sendCQ *rdma.CQ
	recvCQ *rdma.CQ
	eps    map[uint32]*rdmaEP // QPN -> endpoint, for CQ dispatch
	cqPump sync.Mutex

	// closing holds inter-host sides whose last FD closed here but whose
	// peer has not finished closing (by QID, so a death notice can still
	// find them); zcIdle is the recycle list of pinned zero-copy pools and
	// parked the QPs of finished connections, oldest first. All under mu;
	// see lifecycle.go.
	closing map[uint64]*SideState
	zcIdle  []*zcPool
	parked  []parkedQP

	inLibsd atomic.Int32 // signal handler guard (§4.4 challenge 2)

	// pendingRevokes are token-return requests deferred because a thread
	// was inside the library; processed on library exit ("libsd will
	// process the event before returning control to the application").
	revMu          sync.Mutex
	pendingRevokes []revokeReq
	hasRevokes     atomic.Bool

	// batching toggles §4.2 adaptive batching (off = the "SD (unopt)"
	// series in Figures 7-9).
	batching bool

	// reqp tracks in-flight QP re-establishments (post-fork, nonce 0, and
	// failure recovery, matched by nonce).
	reqp      []pendingReQP
	reqpNonce uint64 // last recovery-attempt nonce issued (under mu)

	// recoveryBudget is how many failed QP re-establishment attempts a
	// socket spends before degrading to kernel TCP (§4.5.3).
	recoveryBudget int

	// forkAcks records monitor-acknowledged fork secrets.
	forkAcks map[uint64]bool

	epollThreadOnce sync.Once
	epolls          map[*Epoll]struct{}
	epollWaiters    atomic.Int32
	epollThread     *host.Thread
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

type pendingConn struct {
	status   atomic.Int32 // 0 pending, 1 ok, 2 failed
	errCode  uint8
	sock     *Socket
	rl       *rdmaLocal
	kernelFD int
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
		ctl:        ctl,
		wakeMon:    link.WakeMonitor,
		fds:        make(map[int]*fdEntry),
		pending:    make(map[uint64]*pendingConn),
		backlogs:   make(map[backlogKey]*backlog),
		socks:      make(map[uint64]map[*Socket]struct{}),
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
	// a busy process's attention (token revocation, wake requests). If the
	// process is executing inside libsd, the flag defers work to the
	// library exit path — here, simply to the next control poll.
	p.RegisterHandler(host.SIGUSR1, func(host.Signal) {
		if l.inLibsd.Load() > 0 {
			return
		}
		l.pollCtl(nil)
	})
	return l, nil
}

type revokeReq struct {
	qid  uint64
	dir  uint8
	side uint16
}

// enter/leave bracket every libsd entry point for the signal-handler flag.
func (l *Libsd) enter() { l.inLibsd.Add(1) }

func (l *Libsd) leave() {
	if l.inLibsd.Add(-1) == 0 && l.hasRevokes.Load() {
		l.processRevokes(nil)
	}
}

// processRevokes hands back every token the monitor asked for whose socket
// is not mid-operation.
func (l *Libsd) processRevokes(ctx exec.Context) {
	l.revMu.Lock()
	pend := l.pendingRevokes
	l.pendingRevokes = nil
	l.hasRevokes.Store(false)
	l.revMu.Unlock()
	var requeue []revokeReq
	for _, rv := range pend {
		l.mu.Lock()
		set := l.socks[rv.qid]
		var any *Socket
		for s := range set {
			any = s
			break
		}
		l.mu.Unlock()
		if any == nil {
			r := ctlmsg.Msg{Kind: ctlmsg.KTokenReturn, QID: rv.qid, Dir: rv.dir,
				SrcPort: rv.side, PID: int64(l.P.PID)}
			l.sendCtl(ctx, &r)
			continue
		}
		if any.busyVar(int(rv.dir)).Load() > 0 {
			// A thread is mid-operation with this token; it hands back at
			// its own boundary (the flag stays set). Keep the request so
			// a later pass retries if the boundary path lost the race.
			requeue = append(requeue, rv)
			continue
		}
		holder, ret := any.tokenVars(int(rv.dir))
		if ret.CompareAndSwap(true, false) {
			holder.Store(0)
			r := ctlmsg.Msg{Kind: ctlmsg.KTokenReturn, QID: rv.qid, Dir: rv.dir,
				SrcPort: any.sideIdx, PID: int64(l.P.PID)}
			l.sendCtl(ctx, &r)
		}
	}
	if len(requeue) > 0 {
		l.revMu.Lock()
		l.pendingRevokes = append(l.pendingRevokes, requeue...)
		l.hasRevokes.Store(true)
		l.revMu.Unlock()
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
		// signal-handler path calls through here with a nil context.
		m.TS = l.H.Clk.Now()
	}
	var buf [ctlmsg.Size]byte
	b := m.Marshal(buf[:])
	l.ctlMu.Lock()
	for !l.ctl[s].TX.TrySend(0, 0, b) {
		l.ctlMu.Unlock()
		if l.P.Dead() {
			return // corpse control traffic is droppable; don't spin
		}
		if ctx != nil {
			ctx.Yield()
		}
		l.ctlMu.Lock()
	}
	l.ctlMu.Unlock()
	if l.wakeMon != nil {
		l.wakeMon(s)
	}
}

// pollCtl drains every shard's monitor->process queue, dispatching each
// message. It is safe from any thread (control plane is mutex-protected).
// Every blocking wait polls it, nearly always finding nothing, so one hold
// of ctlMu covers all the empty shards up to the next message.
func (l *Libsd) pollCtl(ctx exec.Context) bool {
	progress := false
	for s := 0; s < len(l.ctl); {
		l.ctlMu.Lock()
		msg, ok := l.ctl[s].RX.TryRecv()
		for !ok && s+1 < len(l.ctl) {
			s++
			msg, ok = l.ctl[s].RX.TryRecv()
		}
		var m ctlmsg.Msg
		if ok {
			m, ok = ctlmsg.Unmarshal(msg.Payload)
		}
		l.ctlMu.Unlock()
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
// leave it untouched (idle predicates; a held lock reads as "not idle").
func (l *Libsd) ctlIdle() bool {
	if !l.ctlMu.TryLock() {
		return false
	}
	defer l.ctlMu.Unlock()
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

func (l *Libsd) installFD(e *fdEntry) int {
	l.mu.Lock()
	defer l.mu.Unlock()
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

func (l *Libsd) lookupFD(fd int) (*fdEntry, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	e, ok := l.fds[fd]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrBadFD, fd)
	}
	return e, nil
}

func (l *Libsd) releaseFD(fd int) {
	l.mu.Lock()
	defer l.mu.Unlock()
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
	return l.installFD(&fdEntry{kind: fdKernel, kf: kf})
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

func (l *Libsd) trackSock(s *Socket) {
	l.mu.Lock()
	set, ok := l.socks[s.side.QID]
	if !ok {
		set = make(map[*Socket]struct{})
		l.socks[s.side.QID] = set
	}
	set[s] = struct{}{}
	l.mu.Unlock()
}

func (l *Libsd) untrackSock(s *Socket) {
	l.mu.Lock()
	if set, ok := l.socks[s.side.QID]; ok {
		delete(set, s)
		if len(set) == 0 {
			delete(l.socks, s.side.QID)
		}
	}
	l.mu.Unlock()
}

// --- RDMA completion pump: one shared CQ pair serves every socket in the
// process (§4.2 "each thread uses a shared completion queue for all RDMA
// QPs, so it only needs to poll one queue"). ---

// registerEP makes ep the target of its QP's completions and records it
// with the side, which closes every QP it was ever given on release.
func (l *Libsd) registerEP(ep *rdmaEP) {
	l.mu.Lock()
	l.eps[ep.qp.QPN()] = ep
	l.mu.Unlock()
	ep.side.resMu.Lock()
	ep.side.eps = append(ep.side.eps, ep)
	ep.side.resMu.Unlock()
}

func (l *Libsd) unregisterEP(ep *rdmaEP) {
	l.mu.Lock()
	delete(l.eps, ep.qp.QPN())
	l.mu.Unlock()
}

// pump drains both CQs, advancing receive rings and releasing batched
// sends. Returns true if anything happened. No virtual time is charged
// while the pump lock is held (a suspended lock holder would wedge the
// discrete-event scheduler); the accumulated cost is applied afterwards.
func (l *Libsd) pump(ctx exec.Context) bool {
	if !l.cqPump.TryLock() {
		return false // another thread is pumping; their progress is ours
	}
	progress := false
	var charge int64
	for {
		e, ok := l.recvCQ.PollOne()
		if !ok {
			break
		}
		progress = true
		charge += l.H.Costs.RDMAPost
		l.mu.Lock()
		ep := l.eps[e.QPN]
		l.mu.Unlock()
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
		l.mu.Lock()
		ep := l.eps[e.QPN]
		l.mu.Unlock()
		if ep != nil {
			ep.onSendCQE(nil, e)
		}
	}
	l.cqPump.Unlock()
	if ctx != nil && charge > 0 {
		ctx.Charge(charge)
	}
	return progress
}

// cqsEmpty reports whether pump would find nothing to do.
func (l *Libsd) cqsEmpty() bool { return l.recvCQ.Len() == 0 && l.sendCQ.Len() == 0 }

// armAutoPump keeps the shared CQs self-draining: a completion that lands
// while no application thread is polling still flushes coalesced sends and
// publishes receive tails. Without it, a sender whose threads all block
// (or exit) after a burst would strand its batched tail forever. The
// re-arm path never recurses synchronously: if the pump lock is held by an
// application thread, the retry goes through a short timer.
func (l *Libsd) armAutoPump() {
	var rearmS, rearmR func()
	rearmS = func() {
		if !l.pump(nil) && l.sendCQ.Len() > 0 {
			l.H.Clk.After(l.H.Costs.RDMAPost, rearmS)
			return
		}
		l.sendCQ.Arm(rearmS)
	}
	rearmR = func() {
		if !l.pump(nil) && l.recvCQ.Len() > 0 {
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
func (l *Libsd) OnProcessDeath() {
	l.mu.Lock()
	eps := make([]*rdmaEP, 0, len(l.eps))
	for _, ep := range l.eps {
		eps = append(eps, ep)
	}
	l.eps = make(map[uint32]*rdmaEP)
	l.mu.Unlock()
	closed := make(map[*rdma.QP]bool)
	for _, ep := range eps {
		if !closed[ep.qp] {
			closed[ep.qp] = true
			ep.qp.Close()
		}
	}
	l.closeParked("", 0)
}
