// Package shard partitions the monitor's control plane. SocksDirect's
// per-host monitor brokers every bind, connect, accept and token takeover
// (§3, §4.5: "a single thread that polls SHM queues"), which makes it the
// centralized bottleneck RDMAvisor identifies when one broker fronts many
// connections — and the limiter for the paper's §6 numbers (1.4 M
// connections/s per app thread, monitor 5.3 M/s), which assume monitor
// dispatch scales with cores. This package defines the partitioning
// function: every control-plane key (port, connection/queue ID, PID) maps
// to one of a fixed set of shards, each served by its own dispatch loop
// over its own per-process SHM control duplex. Both ends of the wire —
// libsd picking the TX ring for a request, the monitor picking the TX
// ring for a reply — derive the shard from the message itself, so a key's
// entire message history stays on one plane and per-key FIFO ordering
// (the §4.1.1 token queue's correctness condition) is preserved without
// any cross-shard locking on the hot path.
package shard

import "socksdirect/internal/ctlmsg"

// DefaultCount is the number of control-plane shards a monitor runs.
// Four matches the drill in EXPERIMENTS.md ("connscale") and keeps the
// per-process duplex footprint small; it is a constant, not a knob, so
// the wire protocol's shard stamp (ctlmsg.Msg.Shard) always agrees
// between libsd and monitor within one host.
const DefaultCount = 4

// Of maps a 64-bit key (connection ID or queue ID) to a shard index.
// Fibonacci-hash mixing spreads the sequentially allocated IDs libsd
// hands out (nextConnID counters) across shards instead of clustering
// them on shard key%n.
func Of(key uint64, n int) int {
	if n <= 1 {
		return 0
	}
	h := key * 0x9E3779B97F4A7C15
	return int((h >> 32) % uint64(n))
}

// OfPort maps a TCP port to a shard index: listener state (bind table,
// round-robin cursor, steal bookkeeping) lives on the port's shard.
func OfPort(port uint16, n int) int { return Of(uint64(port), n) }

// OfPID maps a process ID to a shard index: what is keyed only by PID (the
// fork secrets handshake, wakes, re-registration kick-off) is served by the
// PID's shard.
func OfPID(pid int64, n int) int { return Of(uint64(pid), n) }

// ForMsg returns the shard a control message belongs to, by the key that
// names the state its handler touches. The mapping is part of the wire
// protocol: libsd uses it to choose the TX plane, the monitor uses it to
// choose the reply plane, and replies deliberately share the request's
// key so a request/response pair never changes planes mid-flight.
//
// KPing/KPong are the exception: a liveness probe has no state key, so it
// is addressed explicitly via Msg.Shard — a bounded control wait probes
// the shard its request lives on, which is exactly the dispatch loop
// whose silence it is measuring (one wedged shard cannot hide behind a
// healthy sibling). KMHeartbeat and KMHostDead never cross a proc ring
// (they are monitor-to-monitor and handled by the router), so they map to
// shard 0 only as a harmless default.
func ForMsg(m *ctlmsg.Msg, n int) int {
	if n <= 1 {
		return 0
	}
	switch m.Kind {
	case ctlmsg.KBindRes, ctlmsg.KListen, ctlmsg.KAcceptHint,
		ctlmsg.KStealReq, ctlmsg.KStealRes:
		return OfPort(m.Port, n)
	case ctlmsg.KConnect, ctlmsg.KConnectRes, ctlmsg.KNewConn,
		ctlmsg.KMSyn, ctlmsg.KMSynAck, ctlmsg.KMRefused,
		ctlmsg.KAcceptDone:
		return Of(m.ConnID, n)
	case ctlmsg.KTakeover, ctlmsg.KTokenReturn, ctlmsg.KTokenGrant,
		ctlmsg.KReQP, ctlmsg.KReQPPeer, ctlmsg.KReQPRes, ctlmsg.KPeerDead:
		return Of(m.QID, n)
	case ctlmsg.KForkSecret, ctlmsg.KWake, ctlmsg.KReRegister:
		return OfPID(m.PID, n)
	case ctlmsg.KPing, ctlmsg.KPong:
		if s := int(m.Shard); s < n {
			return s
		}
		return 0
	case ctlmsg.KReRegistered:
		// One resurrection record per map entry (see core/rereg.go): each
		// record routes to the shard owning the map it rebuilds.
		switch m.Aux {
		case ctlmsg.ReRegListen:
			return OfPort(m.Port, n)
		case ctlmsg.ReRegConn:
			return Of(m.QID, n)
		case ctlmsg.ReRegPend:
			return Of(m.ConnID, n)
		default: // ReRegDone
			return OfPID(m.PID, n)
		}
	}
	return 0
}
