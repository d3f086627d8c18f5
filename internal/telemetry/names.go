package telemetry

import "strconv"

// Registered metric names. The namespace is hierarchical by layer:
//
//	sd/shm/...      SPSC shared-memory rings (transport bottom)
//	sd/rdma/...     simulated RDMA NIC / QPs
//	sd/fabric/...   inter-host frame fabric
//	sd/core/...     libsd data path (send/recv, tokens, zero-copy, epoll)
//	sd/monitor/...  monitor control plane
//	sd/host/...     simulated kernel (syscalls, copies, wakeups — Table 4)
//	sd/ksocket/...  kernel-socket compatibility layer
//
// Names are plain strings so instrumented packages don't need these
// constants (the registry is get-or-create), but the canonical list lives
// here for docs, tests, and sdbench reporting.
const (
	// shm ring.
	ShmMsgsSent      = "sd/shm/ring/msgs_sent"
	ShmBytesSent     = "sd/shm/ring/bytes_sent"
	ShmMsgsRecv      = "sd/shm/ring/msgs_recv"
	ShmCreditReturns = "sd/shm/ring/credit_returns"
	ShmWrapMarkers   = "sd/shm/ring/wrap_markers"
	ShmSendFull      = "sd/shm/ring/send_full"
	ShmOccupancy     = "sd/shm/ring/occupancy"  // gauge: bytes in flight (high-water)
	ShmMsgSize       = "sd/shm/ring/msg_size"   // distribution
	ShmBatchSize     = "sd/shm/ring/batch_size" // distribution: bytes mirrored per RDMA flush

	// shm segment registry and socket-ring recycling (connection lifecycle).
	ShmRingPoolHits   = "sd/shm/ring_pool_hits"   // socket rings re-issued from the host free list
	ShmRingPoolMisses = "sd/shm/ring_pool_misses" // socket rings freshly allocated (free list empty)
	ShmSegmentsLive   = "sd/shm/segments_live"    // gauge: SHM segments currently registered, all hosts

	// rdma.
	RdmaWQEsPosted  = "sd/rdma/qp/wqes_posted"
	RdmaCompletions = "sd/rdma/cq/completions"
	RdmaRetransmits = "sd/rdma/qp/retransmits"
	RdmaImmWrites   = "sd/rdma/qp/imm_writes"
	RdmaPacketsTx   = "sd/rdma/qp/packets_tx"
	RdmaRNR         = "sd/rdma/qp/rnr"
	RdmaOutOfOrder  = "sd/rdma/qp/out_of_order_drops"
	// Data packets dropped unacked because the destination QP was not
	// connected yet or already destroyed; each costs its sender an RTO.
	RdmaNotReadyDrops = "sd/rdma/qp/not_ready_drops"
	RdmaQPsCreated    = "sd/rdma/qps_created"

	// fabric.
	FabricTxFrames = "sd/fabric/tx_frames"
	FabricTxBytes  = "sd/fabric/tx_bytes"
	FabricRxFrames = "sd/fabric/rx_frames"
	FabricRxBytes  = "sd/fabric/rx_bytes"
	FabricDrops    = "sd/fabric/drops"

	// core data path.
	CoreSendOps       = "sd/core/send_ops"
	CoreRecvOps       = "sd/core/recv_ops"
	CoreSendBytes     = "sd/core/send_bytes"
	CoreRecvBytes     = "sd/core/recv_bytes"
	CoreTokenFast     = "sd/core/token/fast_path"
	CoreTokenTakeover = "sd/core/token/takeovers"
	CoreTokenReturns  = "sd/core/token/returns"
	CoreRecvSleeps    = "sd/core/recv_sleeps"
	CoreRecvWakeups   = "sd/core/recv_wakeups"
	CoreZCRemaps      = "sd/core/zc/remaps"
	CoreZCCopies      = "sd/core/zc/copies" // materialized (COW-style) fallbacks
	CoreForkInherits  = "sd/core/fork/inherited_fds"
	CoreForkReQP      = "sd/core/fork/reqp"
	CoreEpollWaits    = "sd/core/epoll/waits"
	CoreEpollSweeps   = "sd/core/epoll/kernel_sweeps"
	CoreTCPFallbacks  = "sd/core/tcp_fallbacks"
	CoreResets        = "sd/core/resets"         // connection resets surfaced (ECONNRESET/EPIPE)
	CoreConnReclaims  = "sd/core/conn_reclaims"  // closed connection endpoints whose resources were released
	CoreQPParkHits    = "sd/core/qp_park_hits"   // accepts that adopted the parked twin of the QP the SYN offered
	CoreQPParkMisses  = "sd/core/qp_park_misses" // QPs offered in a SYN and not adopted (the accept built a fresh one)
	CoreQPsParked     = "sd/core/qps_parked"     // gauge: connected QPs of finished connections kept for the next dial

	// overload robustness: deadline/nonblock shedding on the data plane.
	CoreEWouldBlock      = "sd/core/ewouldblock"       // O_NONBLOCK ops that would have waited
	CoreDeadlineTimeouts = "sd/core/deadline_timeouts" // send/recv deadline misses (ETIMEDOUT)
	CoreConnRefused      = "sd/core/conn_refused"      // dials refused by a full backlog (ECONNREFUSED)

	// monitor control plane.
	MonCtlMsgs       = "sd/monitor/ctl_msgs" // plus /k<kind> suffixed per-kind counters
	MonDispatches    = "sd/monitor/dispatches"
	MonTokensGranted = "sd/monitor/tokens_granted"
	MonWorkSteals    = "sd/monitor/work_steals"
	MonProbesOK      = "sd/monitor/probes_ok"
	MonProbesFailed  = "sd/monitor/probes_failed"
	MonWakes         = "sd/monitor/thread_wakes"
	MonMchanHeals    = "sd/monitor/mchan_heals"
	MonRescues       = "sd/monitor/rescues"
	MonCrashCleanups = "sd/monitor/crash_cleanups"

	// Signals not sent because a thread of the process was inside libsd:
	// the message was marked pending for the library exit instead (§4.4).
	MonSignalsDeferred = "sd/monitor/signals_deferred"

	// monitor dispatch latency, split by message origin: intra = messages
	// dequeued from a local process control ring (handle), inter = messages
	// arriving over the monitor-to-monitor mchan (handleRemote), two regimes
	// ARCHITECTURE.md "Sharded control plane" tells apart.
	MonDispatchIntra = "sd/monitor/dispatch_ns/intra" // distribution, ns
	MonDispatchInter = "sd/monitor/dispatch_ns/inter" // distribution, ns

	// MonShardPrefix roots the per-shard dispatch-plane names (see
	// MonShardDispatch / MonShardEvents below for the templated leaves).
	MonShardPrefix = "sd/monitor/shard"

	// causal op-tracing + flight recorder (internal/obs).
	ObsSpans    = "sd/obs/spans"    // spans and events recorded across all rings
	ObsDropped  = "sd/obs/dropped"  // records overwritten after a ring filled
	ObsDumps    = "sd/obs/dumps"    // flight-recorder dumps delivered
	ObsTriggers = "sd/obs/triggers" // anomaly triggers observed (incl. suppressed)

	// monitor restart survivability (epochs, resurrection, liveness).
	MonEpoch           = "sd/monitor/epoch" // gauge: current incarnation number
	MonRestarts        = "sd/monitor/restarts"
	MonStaleDropped    = "sd/monitor/stale_dropped" // messages from a dead incarnation
	MonReregistrations = "sd/monitor/reregistrations"
	MonBadCtlmsg       = "sd/monitor/bad_ctlmsg" // malformed/truncated control messages
	MonHBSent          = "sd/monitor/hb_sent"
	MonHBMissed        = "sd/monitor/hb_missed"
	MonHBSuspects      = "sd/monitor/hb_suspects"
	MonHostDeadFanouts = "sd/monitor/host_dead_fanouts" // confirmed remote-host deaths

	// cluster membership (N-host liveness view over all mchans).
	MonGossipTx      = "sd/monitor/gossip_tx"      // KMHostDead verdicts gossiped to peers
	MonGossipIgnored = "sd/monitor/gossip_ignored" // gossip dropped (self, stale epoch, fresh evidence of life)

	// host / simulated kernel — the Table 4 rows.
	HostSyscalls   = "sd/host/syscalls"
	HostCopies     = "sd/host/copies"
	HostCopyBytes  = "sd/host/copy_bytes"
	HostSignals    = "sd/host/signal_interrupts"
	HostWakeups    = "sd/host/process_wakeups"
	HostInterrupts = "sd/host/interrupts"
	HostPageRemaps = "sd/host/page_remaps"
	HostCOWFaults  = "sd/host/cow_faults"

	// ksocket compatibility layer.
	KsockFDAllocs  = "sd/ksocket/fd_allocs"
	KsockFDLockOps = "sd/ksocket/fd_lock_ops"

	// buffer pool (internal/bufpool) — the allocation-free data path.
	MemPoolGets         = "sd/mem/pool/gets"
	MemPoolPuts         = "sd/mem/pool/puts"
	MemPoolMisses       = "sd/mem/pool/misses"        // class pool empty: fresh allocation
	MemPoolOversize     = "sd/mem/pool/oversize"      // above largest class: GC-owned
	MemPoolOutstanding  = "sd/mem/pool/outstanding"   // gauge: buffers held (leak check)
	MemPoolQuotaRejects = "sd/mem/pool/quota_rejects" // admissions denied by the byte quota (ENOBUFS)
	MemPoolQuotaBytes   = "sd/mem/pool/quota_bytes"   // gauge: bytes currently admitted against the quota

	// fault injection + recovery.
	FaultInjected         = "sd/fault/injected" // plus /<kind> suffixed per-kind counters
	FaultRecoveries       = "sd/fault/recoveries"
	FaultRecoveryAttempts = "sd/fault/recovery_attempts"
	FaultBackoffNs        = "sd/fault/backoff_ns"
	FaultDegradations     = "sd/fault/degradations"
)

// MonShardDispatch names shard i's dispatch-latency distribution
// (nanoseconds per control message handled by that shard's loop). The
// monitor's control plane is partitioned by key (internal/monitor/shard);
// these per-shard distributions are how an operator sees one hot or wedged
// shard that the aggregate sd/monitor/dispatch_ns would average away.
func MonShardDispatch(i int) string {
	return MonShardPrefix + "/" + strconv.Itoa(i) + "/dispatch_ns"
}

// MonShardEvents names shard i's handled-event counter: control messages
// dequeued from the shard's per-process rings plus events routed to it by
// the monitor's router thread (mchan arrivals, host-death sweeps).
func MonShardEvents(i int) string {
	return MonShardPrefix + "/" + strconv.Itoa(i) + "/events"
}

// MonShardInboxShed names shard i's shed counter: routed events the
// router refused to append because the shard's inbox was at its cap
// (MonInboxCap). Sheddable kinds get a retry-after handback (KMSyn →
// KMRefused) instead of unbounded queueing; this counter is how an
// operator sees which shard is saturating.
func MonShardInboxShed(i int) string {
	return MonShardPrefix + "/" + strconv.Itoa(i) + "/inbox_shed"
}
