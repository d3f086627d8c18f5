package host

import "socksdirect/internal/telemetry"

// Package-wide metric handles (resolved once; see internal/telemetry).
// These are the Table 4 rows: every simulated kernel crossing, memory copy,
// signal interrupt, and wait-queue wakeup passes through this package, so
// counting here gives the per-experiment breakdown sdbench reports.
var (
	mSyscalls  = telemetry.C(telemetry.HostSyscalls)
	mCopies    = telemetry.C(telemetry.HostCopies)
	mCopyBytes = telemetry.C(telemetry.HostCopyBytes)
	mSignals   = telemetry.C(telemetry.HostSignals)
	mWakeups   = telemetry.C(telemetry.HostWakeups)

	// Send-side staging admission (Host.Admit).
	mQuotaRejects = telemetry.C(telemetry.MemPoolQuotaRejects)
	gQuotaBytes   = telemetry.G(telemetry.MemPoolQuotaBytes)
)

// CountCopy records one memory copy of n bytes into the host-layer copy
// counters. Packages that charge costmodel.CopyCost outside this package
// (libsd segment copies, the TCP stacks, the user-space baselines) call
// this next to the charge so Table 4's "copies" row covers every layer.
func CountCopy(n int) {
	mCopies.Inc()
	mCopyBytes.Add(int64(n))
}
