package core

import "socksdirect/internal/telemetry"

// Package-wide metric handles (resolved once; see internal/telemetry).
var (
	mSendOps       = telemetry.C(telemetry.CoreSendOps)
	mRecvOps       = telemetry.C(telemetry.CoreRecvOps)
	mSendBytes     = telemetry.C(telemetry.CoreSendBytes)
	mRecvBytes     = telemetry.C(telemetry.CoreRecvBytes)
	mTokenFast     = telemetry.C(telemetry.CoreTokenFast)
	mTokenTakeover = telemetry.C(telemetry.CoreTokenTakeover)
	mTokenReturns  = telemetry.C(telemetry.CoreTokenReturns)
	mRecvSleeps    = telemetry.C(telemetry.CoreRecvSleeps)
	mRecvWakeups   = telemetry.C(telemetry.CoreRecvWakeups)
	mZCRemaps      = telemetry.C(telemetry.CoreZCRemaps)
	mZCCopies      = telemetry.C(telemetry.CoreZCCopies)
	mForkInherits  = telemetry.C(telemetry.CoreForkInherits)
	mForkReQP      = telemetry.C(telemetry.CoreForkReQP)
	mEpollWaits    = telemetry.C(telemetry.CoreEpollWaits)
	mEpollSweeps   = telemetry.C(telemetry.CoreEpollSweeps)
	mTCPFallbacks  = telemetry.C(telemetry.CoreTCPFallbacks)
	mResets        = telemetry.C(telemetry.CoreResets)

	// Overload shedding: ops that bailed instead of waiting.
	mEWouldBlock      = telemetry.C(telemetry.CoreEWouldBlock)
	mDeadlineTimeouts = telemetry.C(telemetry.CoreDeadlineTimeouts)
	mConnRefused      = telemetry.C(telemetry.CoreConnRefused)

	// mCtlStale shares the monitor's stale-drop counter: a control message
	// stamped by a dead monitor incarnation is the same event whichever
	// side of the ring notices it.
	mCtlStale  = telemetry.C(telemetry.MonStaleDropped)
	mBatchSize = telemetry.D(telemetry.ShmBatchSize)
	// mCtlRingFull shares the monitor's full-control-ring counter: one name
	// for both directions of the control duplex.
	mCtlRingFull = telemetry.C(telemetry.MonCtlRingFull)
)
