// Package rdma simulates the RDMA NIC that SocksDirect offloads its
// inter-host transport to (§2.1.2, §4.2). It provides the ib_verbs-shaped
// objects the paper's implementation uses through libibverbs — protection
// domains, registered memory regions with rkeys, reliable-connection queue
// pairs, completion queues shareable across QPs — and the three verbs the
// system needs: one-sided WRITE, WRITE-WITH-IMMEDIATE (the libsd data
// path), and two-sided SEND/RECV (the RSocket baseline).
//
// The transport below the verbs is a hardware-offloaded reliable delivery
// engine: messages are segmented to MTU, sequenced per QP, and recovered
// with go-back-N retransmission, which is exactly the loss-recovery class
// the paper assumes of commodity RDMA NICs ("message write ordering is
// observed in RDMA NICs that use go-back-0 or go-back-N", §4.2). Because
// reception is strictly in-order, a WRITE-WITH-IMM completion is never
// delivered before the data it covers — the property libsd's ring buffer
// relies on.
package rdma

import (
	"errors"
	"sync/atomic"

	"socksdirect/internal/costmodel"
	"socksdirect/internal/exec"
	"socksdirect/internal/fabric"
	"socksdirect/internal/mem"
)

// MTU is the segment size on the wire.
const MTU = 4096

// Verb opcodes.
const (
	OpWrite uint8 = iota + 1
	OpWriteImm
	OpSend
	opAck
)

// Errors.
var (
	ErrQPState   = errors.New("rdma: queue pair not in a usable state")
	ErrBadRKey   = errors.New("rdma: remote key validation failed")
	ErrNoRecvWQE = errors.New("rdma: receive queue empty (RNR)")
	ErrRange     = errors.New("rdma: access outside memory region")
)

// WC statuses.
const (
	WCSuccess uint8 = iota
	WCRemoteAccessErr
	WCRetryExceeded
	WCFlushErr
	WCLocalLenErr // received message overran the posted receive buffer
)

// CQE is a completion queue entry (work completion).
type CQE struct {
	WRID   uint64
	QPN    uint32
	Op     uint8
	Status uint8
	Len    int
	Imm    uint32
}

// CQ is a completion queue. One CQ may serve many QPs; libsd gives each
// thread one shared CQ so it polls a single queue for all sockets (§4.2
// "Amortize polling overhead").
type CQ struct {
	// n is the number of pending completions: pollers find the queue
	// empty far more often than not.
	n      atomic.Int32
	items  []CQE // items[head:] are pending
	head   int
	notify []func() // one-shot arms, ibv_req_notify_cq-style (all fire once)
	// firing is the spare arm buffer: push swaps it with notify before
	// firing, so a callback that re-arms (the completion pump does, on
	// every CQE) appends into recycled capacity instead of allocating a
	// fresh slice per completion.
	firing []func()
}

// NewCQ creates an empty completion queue. Both arm buffers are seeded
// with capacity so steady-state Arm/push cycles never grow a slice.
func NewCQ() *CQ {
	return &CQ{
		notify: make([]func(), 0, 4),
		firing: make([]func(), 0, 4),
	}
}

func (cq *CQ) push(e CQE) {
	mCompletions.Inc()
	if cq.head > 0 && len(cq.items) == cap(cq.items) {
		// Never quite drained: reclaim the consumed prefix before growing.
		cq.items = cq.items[:copy(cq.items, cq.items[cq.head:])]
		cq.head = 0
	}
	cq.items = append(cq.items, e)
	cq.n.Add(1)
	ns := cq.notify
	cq.notify = cq.firing[:0]
	cq.firing = ns
	for i, n := range ns {
		ns[i] = nil // the buffer is recycled; don't pin the closure
		n()
	}
}

// PollOne dequeues a single completion without allocating.
func (cq *CQ) PollOne() (CQE, bool) {
	if cq.n.Load() == 0 {
		return CQE{}, false
	}
	if cq.head == len(cq.items) {
		return CQE{}, false
	}
	e := cq.items[cq.head]
	cq.head++
	if cq.head == len(cq.items) {
		cq.items, cq.head = cq.items[:0], 0 // drained: reuse the array from its start
	}
	cq.n.Add(-1)
	return e, true
}

// Arm registers a one-shot callback fired at the next completion, used to
// switch a polling thread into interrupt mode (§4.4). Multiple arms
// coexist (a sleeping receiver and the library's completion pump).
func (cq *CQ) Arm(fn func()) {
	pending := cq.head < len(cq.items)
	if !pending {
		cq.notify = append(cq.notify, fn)
	}
	if pending {
		fn() // completion already waiting; fire immediately
	}
}

// Len reports pending completions.
func (cq *CQ) Len() int { return int(cq.n.Load()) }

// PD is a protection domain: MRs and QPs in different PDs cannot touch.
type PD struct {
	nic *NIC
	id  uint32
}

// MR is a registered memory region addressable by remote WRITE. Its zero
// value is storage for RegisterBytesAt.
type MR struct {
	pd    *PD
	lkey  uint32
	rkey  uint64
	size  int64
	buf   []byte       // flat registration, or
	pm    *mem.PhysMem // frame-backed registration (pinned page pool)
	pages []mem.PageID
}

// RKey is the capability a peer needs to WRITE here.
func (m *MR) RKey() uint64 { return m.rkey }

// Size returns the registered length in bytes.
func (m *MR) Size() int64 { return m.size }

func (m *MR) writeAt(off int64, data []byte) error {
	if off < 0 || off+int64(len(data)) > m.size {
		return ErrRange
	}
	if m.buf != nil {
		copy(m.buf[off:], data)
		return nil
	}
	for len(data) > 0 {
		pi := off / mem.PageSize
		po := off % mem.PageSize
		fd, err := m.pm.FrameData(m.pages[pi])
		if err != nil {
			return err
		}
		n := copy(fd[po:], data)
		data = data[n:]
		off += int64(n)
	}
	return nil
}

// NIC is one host's RDMA adapter.
type NIC struct {
	clk   exec.Clock
	costs *costmodel.Costs
	host  string

	loop    *fabric.Endpoint // the hairpin toward this host's own QPs
	fab     *fabric.Port     // the routed network, toward every other host
	qps     map[uint32]*QP
	mrs     map[uint64]*MR // rkey -> MR
	nextQPN uint32
	nextPD  uint32
	nextKey uint64
	seed    uint64
}

// NewNIC creates an adapter for the named host, with its loopback: a QP
// connected to another QP of the same host (the RSocket/LibVMA hairpin
// path) pays CPU -> NIC -> CPU, one hairpin RTT. costs may be nil.
func NewNIC(clk exec.Clock, host string, costs *costmodel.Costs, seed uint64) *NIC {
	if costs == nil {
		costs = &costmodel.Costs{}
	}
	n := &NIC{
		clk:   clk,
		costs: costs,
		host:  host,
		loop:  fabric.NewLoopback(clk, host+"/rdma-lo", fabric.Config{PropDelay: costs.NICHairpin / 2}),
		qps:   make(map[uint32]*QP),
		mrs:   make(map[uint64]*MR),
		seed:  seed | 1,
	}
	n.loop.SetHandler(n.onFrame)
	return n
}

// AttachFabric joins the NIC to the routed network: QPs toward another
// host transmit on the port's directed edge toward it, and every inbound
// frame enters the receive pipeline (RDMA frames carry their QPN, so the
// source host adds nothing).
func (n *NIC) AttachFabric(p *fabric.Port) {
	n.fab = p
	p.SetHandler(func(_ string, frame any, wireBytes int) { n.onFrame(frame, wireBytes) })
}

// AllocPD creates a protection domain.
func (n *NIC) AllocPD() *PD {
	n.nextPD++
	return &PD{nic: n, id: n.nextPD}
}

func (n *NIC) newRKey() uint64 {
	n.nextKey++
	z := n.seed + n.nextKey*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	return z ^ (z >> 31)
}

// RegisterBytes registers a flat buffer (e.g. a socket ring copy).
func (pd *PD) RegisterBytes(buf []byte) *MR { return pd.RegisterBytesAt(new(MR), buf) }

// RegisterBytesAt is RegisterBytes into the caller's storage: m is
// overwritten and registered in place, so an owner that keeps its MRs inside
// a larger object allocates none. m must stay put until it is deregistered.
func (pd *PD) RegisterBytesAt(m *MR, buf []byte) *MR {
	n := pd.nic
	*m = MR{pd: pd, rkey: n.newRKey(), size: int64(len(buf)), buf: buf}
	n.mrs[m.rkey] = m
	return m
}

// RegisterFrames registers a pinned page pool (zero-copy receive, §4.3).
// The frames must already be pinned by the caller.
func (pd *PD) RegisterFrames(pm *mem.PhysMem, pages []mem.PageID) *MR {
	n := pd.nic
	m := &MR{
		pd:    pd,
		rkey:  n.newRKey(),
		size:  int64(len(pages)) * mem.PageSize,
		pm:    pm,
		pages: pages,
	}
	n.mrs[m.rkey] = m
	return m
}

// SwapFrame repoints one page of a frame-backed MR (receiver-side pool
// replenishment: a received page leaves the pool and a fresh pinned page
// takes its slot).
func (m *MR) SwapFrame(idx int, id mem.PageID) {
	if m.pages != nil && idx >= 0 && idx < len(m.pages) {
		m.pages[idx] = id
	}
}

// Deregister removes an MR.
func (n *NIC) Deregister(m *MR) {
	delete(n.mrs, m.rkey)
}

// Deregister removes the MR from the adapter it was registered on (which,
// after a migration, is not the adapter of the host releasing it).
func (m *MR) Deregister() { m.pd.nic.Deregister(m) }

// MRCount reports registered memory regions (leak checks).
func (n *NIC) MRCount() int {
	return len(n.mrs)
}

// QPCount reports live QPs (tests).
func (n *NIC) QPCount() int {
	return len(n.qps)
}

// Port returns this host's transmitter toward remoteHost — the loopback
// for the host itself, else the routed network's directed edge — or nil.
// A QP resolves it once, when it connects; fault injection uses it to
// reach the edge's runtime knobs, which govern only the local-to-remote
// direction of the path.
func (n *NIC) Port(remoteHost string) *fabric.Endpoint {
	if remoteHost == n.host {
		return n.loop
	}
	if n.fab != nil {
		return n.fab.EdgeTo(remoteHost)
	}
	return nil
}

// FailAllQPs forces every live QP on the adapter into error state,
// modelling a catastrophic NIC event (firmware reset, cable pull at the
// adapter). Returns the number of QPs transitioned.
func (n *NIC) FailAllQPs() int {
	qps := make([]*QP, 0, len(n.qps))
	for _, qp := range n.qps {
		qps = append(qps, qp)
	}
	failed := 0
	for _, qp := range qps {
		if qp.State() != QPErr {
			qp.ForceError()
			failed++
		}
	}
	return failed
}
