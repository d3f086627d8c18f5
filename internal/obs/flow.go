package obs

import (
	"sort"
	"sync"
	"sync/atomic"

	"socksdirect/internal/ctlmsg"
	"socksdirect/internal/monitor/shard"
)

// FlowState is a connection's lifecycle state as the flow table sees it.
type FlowState uint32

// Flow states.
const (
	FlowEstablished FlowState = iota
	FlowDegraded              // rescue TCP installed (§4.5.3)
	FlowReset                 // peer died; ECONNRESET surfaced
	FlowClosed
)

var flowStateNames = [...]string{
	FlowEstablished: "established",
	FlowDegraded:    "degraded",
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
	case ctlmsg.TransportTCP:
		return "tcp"
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
// allocation); everything else is slow-path.
type Flow struct {
	key  FlowKey
	peer string // peer host name

	transport atomic.Uint32
	state     atomic.Uint32

	bytesTx, bytesRx atomic.Int64
	msgsTx, msgsRx   atomic.Int64

	takeovers  atomic.Int64
	recoveries atomic.Int64
	resets     atomic.Int64

	// probe fills snapshot fields only the owning socket can read
	// (ring occupancy high-water, current monitor epoch). Set once at
	// registration, called under the registry lock at snapshot time;
	// Freeze replaces it with its last reading.
	probe  func(*FlowSnapshot)
	frozen struct {
		ringHW int64
		epoch  uint32
	}
}

// AddTx accounts one sent message of n bytes.
func (f *Flow) AddTx(n int64) {
	if f == nil {
		return
	}
	f.bytesTx.Add(n)
	f.msgsTx.Add(1)
}

// AddRx accounts one received message of n bytes.
func (f *Flow) AddRx(n int64) {
	if f == nil {
		return
	}
	f.bytesRx.Add(n)
	f.msgsRx.Add(1)
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

// NoteReset counts one surfaced reset and moves the flow to FlowReset.
func (f *Flow) NoteReset() {
	if f == nil {
		return
	}
	f.resets.Add(1)
	f.state.Store(uint32(FlowReset))
}

// SetTransport records a transport change (e.g. RDMA -> rescue TCP).
func (f *Flow) SetTransport(t uint8) {
	if f != nil {
		f.transport.Store(uint32(t))
	}
}

// SetState moves the flow to state s.
func (f *Flow) SetState(s FlowState) {
	if f != nil {
		f.state.Store(uint32(s))
	}
}

// SetProbe installs the snapshot callback (see Flow.probe).
func (f *Flow) SetProbe(fn func(*FlowSnapshot)) {
	if f == nil {
		return
	}
	flows.mu.Lock()
	f.probe = fn
	flows.mu.Unlock()
}

// Freeze replaces the probe with its owner's last reading: the row of a
// closed connection stays in the table, but must not keep reading (or keep
// alive) rings that go on to serve another connection.
func (f *Flow) Freeze(ringHW int64, epoch uint32) {
	if f == nil {
		return
	}
	flows.mu.Lock()
	f.frozen.ringHW, f.frozen.epoch = ringHW, epoch
	f.probe = nil
	flows.mu.Unlock()
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
	RingHW    int64  `json:"ring_hw"` // send-ring occupancy high-water, bytes
	Epoch     uint32 `json:"epoch"`   // monitor incarnation the endpoint last saw
	Shard     int    `json:"shard"`   // monitor control-plane shard owning the QID
}

var flows struct {
	mu sync.Mutex
	m  map[FlowKey]*Flow
}

func init() { flows.m = make(map[FlowKey]*Flow) }

// RegisterFlow adds (or refreshes) the flow for one connection endpoint.
func RegisterFlow(key FlowKey, peer string, transport uint8) *Flow {
	flows.mu.Lock()
	f := flows.m[key]
	if f == nil {
		f = &Flow{key: key, peer: peer}
		flows.m[key] = f
	}
	flows.mu.Unlock()
	f.transport.Store(uint32(transport))
	f.state.Store(uint32(FlowEstablished))
	return f
}

// Flows snapshots the whole table, sorted by host, pid, qid.
func Flows() []FlowSnapshot {
	flows.mu.Lock()
	out := make([]FlowSnapshot, 0, len(flows.m))
	for _, f := range flows.m {
		s := FlowSnapshot{
			Host:      f.key.Host,
			PID:       f.key.PID,
			QID:       f.key.QID,
			Peer:      f.peer,
			Transport: TransportName(uint8(f.transport.Load())),
			State:     FlowState(f.state.Load()).String(),
			BytesTx:   f.bytesTx.Load(),
			BytesRx:   f.bytesRx.Load(),
			MsgsTx:    f.msgsTx.Load(),
			MsgsRx:    f.msgsRx.Load(),
			Takeovers: f.takeovers.Load(),
			Recovs:    f.recoveries.Load(),
			Resets:    f.resets.Load(),
			RingHW:    f.frozen.ringHW,
			Epoch:     f.frozen.epoch,
			Shard:     shard.Of(f.key.QID, shard.DefaultCount),
		}
		if f.probe != nil {
			f.probe(&s)
		}
		out = append(out, s)
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
	flows.mu.Unlock()
}
