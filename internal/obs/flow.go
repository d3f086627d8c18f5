package obs

import (
	"sort"
	"sync"
	"sync/atomic"

	"socksdirect/internal/bufpool"
	"socksdirect/internal/ctlmsg"
	"socksdirect/internal/monitor/shard"
)

// FlowState is a connection's lifecycle state as the flow table sees it.
type FlowState uint8

// Flow states.
const (
	FlowEstablished FlowState = iota
	FlowReset                 // peer died; ECONNRESET surfaced
	FlowClosed
)

var flowStateNames = [...]string{
	FlowEstablished: "established",
	FlowReset:       "reset",
	FlowClosed:      "closed",
}

// String returns the state's stable lower-case name.
func (s FlowState) String() string {
	if int(s) < len(flowStateNames) {
		return flowStateNames[s]
	}
	return "unknown"
}

// TransportName renders a ctlmsg transport code for display.
func TransportName(t uint8) string {
	switch t {
	case ctlmsg.TransportSHM:
		return "shm"
	case ctlmsg.TransportRDMA:
		return "rdma"
	}
	return "?"
}

// FlowKey addresses one endpoint of a connection: the socket queue on
// one process. Both ends of an intra-host pair appear as separate flows,
// exactly as `ss` shows both sockets.
type FlowKey struct {
	Host string
	PID  int64
	QID  uint64
}

// Flow is the live per-connection record. The data path touches only
// the atomic counters (two adds per send/recv — no locks, no
// allocation); everything else is slow-path. Every dial makes one, so it
// keeps to the 144 B size class (TestFlowFitsIn144Bytes).
type Flow struct {
	key  FlowKey
	peer string // peer host name

	bytesTx, bytesRx atomic.Int64
	msgsTx, msgsRx   atomic.Int64

	takeovers  atomic.Int64
	recoveries atomic.Int64
	resets     atomic.Int64

	// probe reads what only the owning socket knows (see FlowProbe). Set
	// at registration, called under the registry lock at snapshot time;
	// Freeze replaces it with its last reading.
	probe  Prober
	frozen FlowProbe
}

// AddTxN accounts a batch of msgs sent messages totalling bytes bytes:
// two atomic adds for the whole batch, so per-flow policy hooks stay
// cheap enough to sit on the batched op path.
func (f *Flow) AddTxN(msgs, bytes int64) {
	if f == nil {
		return
	}
	f.bytesTx.Add(bytes)
	f.msgsTx.Add(msgs)
}

// AddRxN accounts a batch of msgs received messages totalling bytes bytes.
func (f *Flow) AddRxN(msgs, bytes int64) {
	if f == nil {
		return
	}
	f.bytesRx.Add(bytes)
	f.msgsRx.Add(msgs)
}

// Takeover counts one token takeover on this flow.
func (f *Flow) Takeover() {
	if f != nil {
		f.takeovers.Add(1)
	}
}

// Recovery counts one completed QP recovery.
func (f *Flow) Recovery() {
	if f != nil {
		f.recoveries.Add(1)
	}
}

// NoteReset counts one surfaced reset.
func (f *Flow) NoteReset() {
	if f != nil {
		f.resets.Add(1)
	}
}

// FlowProbe is what a flow's owning endpoint reads for a snapshot: its send
// ring's occupancy high-water, the monitor epoch it last saw, and the
// transport and state it derives from its own record of the connection.
type FlowProbe struct {
	RingHW    int64
	Epoch     uint32
	Transport uint8 // a ctlmsg transport code
	State     FlowState
}

// Prober is a flow's owning endpoint, asked at snapshot time for what only
// it can read (see Flow.probe). An interface, not a closure: the endpoint is
// its own prober, and a pointer in an interface costs no allocation.
type Prober interface {
	Probe() FlowProbe
}

// Freeze replaces the probe with its last reading: the row of a closed
// connection stays in the table, but must not keep reading (or keep alive)
// rings that go on to serve another connection. It stays among the
// ClosedFlows most recent final rows; the record of the oldest, evicted, is
// zeroed for a later RegisterFlow, so the caller drops its pointer.
func (f *Flow) Freeze() {
	if f == nil {
		return
	}
	flows.mu.Lock()
	defer flows.mu.Unlock()
	if f.probe == nil {
		return
	}
	f.frozen, f.probe = f.probe.Probe(), nil
	flows.live--
	old := flows.closed[flows.next]
	flows.closed[flows.next] = f
	flows.next = (flows.next + 1) % ClosedFlows
	if old != nil {
		if flows.m[old.key] == old { // else a newer row took the key over
			delete(flows.m, old.key)
		}
		*old = Flow{}
		flows.free.Put(old)
	}
}

// FlowSnapshot is one row of the sdstat table.
type FlowSnapshot struct {
	Host      string `json:"host"`
	PID       int64  `json:"pid"`
	QID       uint64 `json:"qid"`
	Peer      string `json:"peer"`
	Transport string `json:"transport"`
	State     string `json:"state"`
	BytesTx   int64  `json:"bytes_tx"`
	BytesRx   int64  `json:"bytes_rx"`
	MsgsTx    int64  `json:"msgs_tx"`
	MsgsRx    int64  `json:"msgs_rx"`
	Takeovers int64  `json:"takeovers"`
	Recovs    int64  `json:"recoveries"`
	Resets    int64  `json:"resets"`
	RingHW    int64  `json:"ring_hw"` // send ring's high-water of bytes sent and not yet credited back (Ring.OccHW)
	Epoch     uint32 `json:"epoch"`   // monitor incarnation the endpoint last saw
	Shard     int    `json:"shard"`   // monitor control-plane shard owning the QID
}

// ClosedFlows is how many closed connections' rows the table keeps, oldest
// evicted first, so it holds at most the live rows plus this many.
const ClosedFlows = 1024

var flows struct {
	mu     sync.Mutex
	m      map[FlowKey]*Flow
	closed [ClosedFlows]*Flow // frozen rows, a ring whose oldest is at next
	next   int
	free   bufpool.FreeList[Flow] // evicted records, zeroed, for RegisterFlow
	live   int                    // registered and not yet frozen (Reset keeps it)
}

func init() { flows.m = make(map[FlowKey]*Flow) }

// RegisterFlow adds the flow for one connection endpoint, read through p (not
// nil) until Freeze. The record is the caller's alone: one registered under a
// live key takes the key's row over.
func RegisterFlow(key FlowKey, peer string, p Prober) *Flow {
	flows.mu.Lock()
	f := flows.free.New()
	f.key, f.peer, f.probe = key, peer, p
	flows.m[key] = f
	flows.live++
	flows.mu.Unlock()
	return f
}

// LiveFlows counts the rows registered and not yet frozen, those Reset has
// dropped from the table too: each keeps its endpoint reachable.
func LiveFlows() int {
	flows.mu.Lock()
	defer flows.mu.Unlock()
	return flows.live
}

// Flows snapshots the whole table, sorted by host, pid, qid.
func Flows() []FlowSnapshot {
	flows.mu.Lock()
	out := make([]FlowSnapshot, 0, len(flows.m))
	for _, f := range flows.m {
		p := f.frozen
		if f.probe != nil {
			p = f.probe.Probe()
		}
		out = append(out, FlowSnapshot{
			Host:      f.key.Host,
			PID:       f.key.PID,
			QID:       f.key.QID,
			Peer:      f.peer,
			Transport: TransportName(p.Transport),
			State:     p.State.String(),
			BytesTx:   f.bytesTx.Load(),
			BytesRx:   f.bytesRx.Load(),
			MsgsTx:    f.msgsTx.Load(),
			MsgsRx:    f.msgsRx.Load(),
			Takeovers: f.takeovers.Load(),
			Recovs:    f.recoveries.Load(),
			Resets:    f.resets.Load(),
			RingHW:    p.RingHW,
			Epoch:     p.Epoch,
			Shard:     shard.Of(f.key.QID, shard.DefaultCount),
		})
	}
	flows.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Host != b.Host {
			return a.Host < b.Host
		}
		if a.PID != b.PID {
			return a.PID < b.PID
		}
		return a.QID < b.QID
	})
	return out
}

func resetFlows() {
	flows.mu.Lock()
	flows.m = make(map[FlowKey]*Flow)
	flows.closed, flows.next, flows.free = [ClosedFlows]*Flow{}, 0, nil
	flows.mu.Unlock()
}
