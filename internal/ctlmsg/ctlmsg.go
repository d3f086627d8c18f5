// Package ctlmsg defines the control-plane wire format spoken over the
// SHM queues between libsd and the monitor, and over the RDMA channel
// between monitors. Messages are fixed-size and hand-encoded: the control
// plane crosses isolation boundaries, so nothing richer than bytes may
// travel (the simulation enforces the same shared-nothing discipline the
// paper's design states in §3).
package ctlmsg

import (
	"bytes"
	"encoding/binary"
)

// Kind enumerates control message types.
type Kind uint8

// Control message kinds: libsd -> monitor unless noted.
const (
	KBindRes      Kind = iota + 1 // monitor -> libsd: bind result
	KListen                       // register (port, thread) as a listener
	KConnect                      // SYN: open a connection
	KConnectRes                   // monitor -> libsd: queue descriptor or failure
	KNewConn                      // monitor -> listener libsd: dispatched connection
	KAcceptHint                   // accept on empty backlog: steal request
	KStealReq                     // monitor -> listener libsd: give one back
	KStealRes                     // listener libsd -> monitor: stolen conn (or none)
	KTakeover                     // request a queue token (§4.1.1)
	KTokenReturn                  // monitor -> holder: return the token / holder -> monitor: here it is
	KTokenGrant                   // monitor -> waiter: you hold the token now
	KForkSecret                   // parent libsd -> monitor before fork (§4.1.2)
	KWake                         // peer/monitor -> libsd: wake a sleeping thread
	KMSyn                         // monitor -> monitor: dispatch inter-host SYN
	KMSynAck                      // monitor -> monitor: server queue descriptor
	KMRefused                     // monitor -> monitor: no listener
	KReQP                         // libsd -> monitor: splice a QP to the peer (inherited socket or recovery)
	KReQPPeer                     // monitor -> peer libsd: attach an extra QP
	KReQPRes                      // peer libsd (or monitor) -> monitor -> libsd: new remote QPN, or a refusal
	KPeerDead                     // monitor -> libsd / monitor -> monitor: peer process of QID died
	KPing                         // libsd -> monitor: liveness probe from a bounded control wait
	KPong                         // monitor -> libsd: liveness answer (carries the epoch)
	KReRegister                   // monitor -> libsd: new incarnation asks for a state report
	KReRegistered                 // libsd -> monitor: one state-report record (Aux selects ReReg*)
	KMHeartbeat                   // monitor -> monitor: periodic liveness beacon
	KMHostDead                    // monitor -> monitor: host-death verdict gossip (Host=dead host, Aux=its epoch)
	KAcceptDone                   // listener libsd -> monitor: accepted ConnID, free a backlog slot
)

// kindNames maps Kind values to stable lower-case names (telemetry keys,
// trace events, debug output).
var kindNames = [...]string{
	KBindRes:      "bind_res",
	KListen:       "listen",
	KConnect:      "connect",
	KConnectRes:   "connect_res",
	KNewConn:      "new_conn",
	KAcceptHint:   "accept_hint",
	KStealReq:     "steal_req",
	KStealRes:     "steal_res",
	KTakeover:     "takeover",
	KTokenReturn:  "token_return",
	KTokenGrant:   "token_grant",
	KForkSecret:   "fork_secret",
	KWake:         "wake",
	KMSyn:         "msyn",
	KMSynAck:      "msyn_ack",
	KMRefused:     "mrefused",
	KReQP:         "reqp",
	KReQPPeer:     "reqp_peer",
	KReQPRes:      "reqp_res",
	KPeerDead:     "peer_dead",
	KPing:         "ping",
	KPong:         "pong",
	KReRegister:   "reregister",
	KReRegistered: "reregistered",
	KMHeartbeat:   "mheartbeat",
	KMHostDead:    "mhostdead",
	KAcceptDone:   "accept_done",
}

// NumKinds is one past the highest defined Kind (array sizing).
const NumKinds = int(KAcceptDone) + 1

// Dir values for KReQP/KReQPPeer: a QP re-establishment is either the
// fork flow of §4.1.2 (the old QP stays alive — the parent still uses it)
// or the failure-recovery flow, where both sides must close the dead QP so
// stale packets can never land in recycled ring offsets.
const (
	ReQPFork     uint8 = 0
	ReQPRecovery uint8 = 1
)

// Aux values of KReRegistered: which slice of process state one record of
// the resurrection report (monitor restart, §3's per-host daemon) carries.
const (
	ReRegDone   uint64 = iota // final record: report complete
	ReRegListen               // a live listener registration (Port, TID)
	ReRegConn                 // an established connection (QID, peer)
	ReRegPend                 // an in-flight connect awaiting KConnectRes (ConnID)
)

// String returns the kind's stable lower-case name.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return "unknown"
}

// Transport identifies the data plane a queue descriptor refers to.
const (
	TransportSHM uint8 = iota + 1
	TransportRDMA
	TransportTCP
)

// Status codes.
const (
	StatusOK uint8 = iota
	StatusDenied
	StatusInUse
	StatusNoListener
	StatusNoRoute

	// StatusBacklogFull refuses a SYN because every listener for the port
	// is at its backlog cap (or the monitor shed the SYN under shard inbox
	// pressure). Surfaces as ECONNREFUSED at the dialer; retryable.
	StatusBacklogFull
)

// Size is the fixed encoded size of a Msg (149 bytes of payload padded to
// the next 8-byte boundary so ring slots stay aligned).
const Size = 152

// Msg is the one-size-fits-all control message. Kind selects which fields
// are meaningful; unused fields are zero.
type Msg struct {
	Kind       Kind
	Status     uint8
	Transport  uint8
	Dir        uint8 // 0 = send direction, 1 = receive direction
	Port       uint16
	SrcPort    uint16
	ConnID     uint64 // connection being set up
	QID        uint64 // socket queue id (token arbitration)
	Secret     uint64 // fork pairing secret
	PID        int64
	TID        int64
	ShmToken   uint64 // SHM segment capability
	QPN        uint32 // our QP number
	RemoteQPN  uint32
	RingRKey   uint64 // remote key of the receiver ring copy
	CreditRKey uint64 // remote key of the sender's credit word
	SeqA       uint64 // connection repair: sndNxt
	SeqB       uint64 // connection repair: rcvNxt
	Aux        uint64 // kind-specific extra
	Host       [16]byte
	Epoch      uint32 // monitor incarnation that stamped the message

	// Causal tracing context (internal/obs). TS is the virtual-time
	// nanosecond at which the sender enqueued the message, so the receiver
	// can attribute queue/flight latency to this hop; TraceID/SpanID tie the
	// message into the operation's span tree. All three are zero when the
	// originating operation is untraced.
	TS      int64
	TraceID uint64
	SpanID  uint64

	// Shard is the control-plane shard the message travels on (see
	// internal/monitor/shard). Senders stamp it from shard.ForMsg; for
	// keyless kinds (KPing/KPong) it IS the address — the waiter names
	// the dispatch loop whose liveness it is probing.
	Shard uint8
}

// SetHost stores a host name (truncated to 16 bytes).
func (m *Msg) SetHost(h string) {
	var z [16]byte
	copy(z[:], h)
	m.Host = z
}

// HostBytes returns the stored host name as a view of m.Host.
func (m *Msg) HostBytes() []byte {
	if i := bytes.IndexByte(m.Host[:], 0); i >= 0 {
		return m.Host[:i]
	}
	return m.Host[:]
}

// HostIs reports whether the stored host name is h, without building a
// string from the stored bytes.
func (m *Msg) HostIs(h string) bool { return string(m.HostBytes()) == h }

// HostStr returns the stored host name.
func (m *Msg) HostStr() string { return string(m.HostBytes()) }

// Marshal encodes into a fixed Size-byte buffer.
func (m *Msg) Marshal(out []byte) []byte {
	if cap(out) < Size {
		out = make([]byte, Size)
	}
	out = out[:Size]
	le := binary.LittleEndian
	out[0] = byte(m.Kind)
	out[1] = m.Status
	out[2] = m.Transport
	out[3] = m.Dir
	le.PutUint16(out[4:], m.Port)
	le.PutUint16(out[6:], m.SrcPort)
	le.PutUint64(out[8:], m.ConnID)
	le.PutUint64(out[16:], m.QID)
	le.PutUint64(out[24:], m.Secret)
	le.PutUint64(out[32:], uint64(m.PID))
	le.PutUint64(out[40:], uint64(m.TID))
	le.PutUint64(out[48:], m.ShmToken)
	le.PutUint32(out[56:], m.QPN)
	le.PutUint32(out[60:], m.RemoteQPN)
	le.PutUint64(out[64:], m.RingRKey)
	le.PutUint64(out[72:], m.CreditRKey)
	le.PutUint64(out[80:], m.SeqA)
	le.PutUint64(out[88:], m.SeqB)
	le.PutUint64(out[96:], m.Aux)
	copy(out[104:120], m.Host[:])
	le.PutUint32(out[120:], m.Epoch)
	le.PutUint64(out[124:], uint64(m.TS))
	le.PutUint64(out[132:], m.TraceID)
	le.PutUint64(out[140:], m.SpanID)
	out[148] = m.Shard
	out[149], out[150], out[151] = 0, 0, 0 // pad
	return out
}

// Unmarshal decodes from a buffer produced by Marshal. Control queues are
// written by untrusted processes (§3: the monitor trusts no application),
// so a truncated buffer or an out-of-range kind is rejected rather than
// handed to a dispatch switch.
func Unmarshal(in []byte) (Msg, bool) {
	if len(in) < Size {
		return Msg{}, false
	}
	if in[0] == 0 || int(in[0]) >= NumKinds {
		return Msg{}, false
	}
	le := binary.LittleEndian
	var m Msg
	m.Kind = Kind(in[0])
	m.Status = in[1]
	m.Transport = in[2]
	m.Dir = in[3]
	m.Port = le.Uint16(in[4:])
	m.SrcPort = le.Uint16(in[6:])
	m.ConnID = le.Uint64(in[8:])
	m.QID = le.Uint64(in[16:])
	m.Secret = le.Uint64(in[24:])
	m.PID = int64(le.Uint64(in[32:]))
	m.TID = int64(le.Uint64(in[40:]))
	m.ShmToken = le.Uint64(in[48:])
	m.QPN = le.Uint32(in[56:])
	m.RemoteQPN = le.Uint32(in[60:])
	m.RingRKey = le.Uint64(in[64:])
	m.CreditRKey = le.Uint64(in[72:])
	m.SeqA = le.Uint64(in[80:])
	m.SeqB = le.Uint64(in[88:])
	m.Aux = le.Uint64(in[96:])
	copy(m.Host[:], in[104:120])
	m.Epoch = le.Uint32(in[120:])
	m.TS = int64(le.Uint64(in[124:]))
	m.TraceID = le.Uint64(in[132:])
	m.SpanID = le.Uint64(in[140:])
	m.Shard = in[148]
	return m, true
}
