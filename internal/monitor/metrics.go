package monitor

import (
	"socksdirect/internal/ctlmsg"
	"socksdirect/internal/telemetry"
)

// Package-wide metric handles (resolved once; see internal/telemetry).
var (
	mCtlMsgs       = telemetry.C(telemetry.MonCtlMsgs)
	mDispatches    = telemetry.C(telemetry.MonDispatches)
	mTokensGranted = telemetry.C(telemetry.MonTokensGranted)
	mWorkSteals    = telemetry.C(telemetry.MonWorkSteals)
	mProbesOK      = telemetry.C(telemetry.MonProbesOK)
	mProbesFailed  = telemetry.C(telemetry.MonProbesFailed)
	mWakes         = telemetry.C(telemetry.MonWakes)
	mMchanHeals    = telemetry.C(telemetry.MonMchanHeals)
	mCrashCleanups = telemetry.C(telemetry.MonCrashCleanups)

	mSignalsDeferred = telemetry.C(telemetry.MonSignalsDeferred) // notify: a thread was inside libsd
	mCtlRingFull     = telemetry.C(telemetry.MonCtlRingFull)     // sendTo: queued behind a full ring

	// Dispatch latency, split by origin: intra = local process control
	// rings (handle), inter = monitor-to-monitor mchan (handleRemote).
	mDispatchIntra = telemetry.D(telemetry.MonDispatchIntra)
	mDispatchInter = telemetry.D(telemetry.MonDispatchInter)

	// Restart survivability (epochs, resurrection, inter-host liveness).
	mEpoch           = telemetry.G(telemetry.MonEpoch)
	mRestarts        = telemetry.C(telemetry.MonRestarts)
	mStaleDropped    = telemetry.C(telemetry.MonStaleDropped)
	mRereg           = telemetry.C(telemetry.MonReregistrations)
	mBadCtlmsg       = telemetry.C(telemetry.MonBadCtlmsg)
	mHBSent          = telemetry.C(telemetry.MonHBSent)
	mHBMissed        = telemetry.C(telemetry.MonHBMissed)
	mHBSuspects      = telemetry.C(telemetry.MonHBSuspects)
	mHostDeadFanouts = telemetry.C(telemetry.MonHostDeadFanouts)
	mGossipTx        = telemetry.C(telemetry.MonGossipTx)
	mGossipIgnored   = telemetry.C(telemetry.MonGossipIgnored)

	// mCtlByKind indexes a per-kind counter by ctlmsg.Kind, so counting a
	// control message is two atomic adds and no map lookup.
	mCtlByKind = func() [ctlmsg.NumKinds]*telemetry.Counter {
		var arr [ctlmsg.NumKinds]*telemetry.Counter
		for k := range arr {
			arr[k] = telemetry.C(telemetry.MonCtlMsgs + "/k" + ctlmsg.Kind(k).String())
		}
		return arr
	}()
)

// countCtl records one control-plane message by kind.
func countCtl(k ctlmsg.Kind) {
	mCtlMsgs.Inc()
	if int(k) < len(mCtlByKind) {
		mCtlByKind[k].Inc()
	}
}
