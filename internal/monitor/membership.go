package monitor

// Cluster membership view: the monitor's per-peer liveness state machine,
// queryable for operators (sdstat) and drills. A peer walks
// alive -> suspect -> dead: alive while receipts keep its miss counter
// low, suspect after hbSuspectMiss consecutive silent ticks, dead once
// its own horizon confirms (hbConfirmMiss ticks) or a peer's KMHostDead
// gossip arrives first. Any receipt — beacon, echo, probe handshake, or
// real control traffic — snaps the peer back to alive.

// MemberState is one peer's position in the liveness state machine.
type MemberState int

const (
	memberUnwatched MemberState = iota // never heard from: no verdict
	MemberAlive                        // heard from recently
	MemberSuspect                      // silent past the suspect threshold
	MemberDead                         // confirmed dead (horizon or gossip)
)

// watched reports whether heartbeats count the peer's silence.
func (s MemberState) watched() bool { return s == MemberAlive || s == MemberSuspect }

// String returns the state's lower-case name.
func (s MemberState) String() string {
	switch s {
	case MemberAlive:
		return "alive"
	case MemberSuspect:
		return "suspect"
	case MemberDead:
		return "dead"
	}
	return "unknown"
}

// Member is one peer's row in the membership view.
type Member struct {
	Host      string
	State     MemberState
	Epoch     uint32 // highest monitor incarnation heard from this host
	LastHeard int64  // virtual time of the last receipt (0 = never directly)
	Missed    int    // consecutive silent ticks this episode
}

// Membership returns this monitor's view of every peer it tracks (or has
// confirmed dead), sorted by host name. The local host is not listed —
// a monitor holds no verdict about itself.
func (m *Monitor) Membership() []Member {
	out := make([]Member, 0, len(m.peerList))
	for _, p := range m.peerList { // sorted by name
		if p.live == memberUnwatched {
			continue // mentioned, never heard from
		}
		row := Member{Host: p.name, State: p.live, Epoch: p.epoch, LastHeard: p.lastHeard, Missed: p.missed}
		if p.live == MemberDead {
			row.Epoch = p.deadEpoch
		}
		out = append(out, row)
	}
	return out
}

// MemberState returns the tracked state of one peer (MemberAlive for a
// peer that has never been tracked: absence of evidence is not a verdict).
func (m *Monitor) MemberState(peer string) MemberState {
	if p := m.peers[peer]; p != nil && p.live != memberUnwatched {
		return p.live
	}
	return MemberAlive
}
