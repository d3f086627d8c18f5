// Benchmarks: one testing.B entry point per paper table/figure, wrapping
// internal/experiments. Each benchmark reports the *virtual-time* metric
// the paper reports (latency in ns, throughput in M op/s or Gbps) as
// custom units; b.N controls repetition of the whole experiment so
// wall-clock numbers remain meaningful too. Run:
//
//	go test -bench=. -benchmem
package socksdirect_test

import (
	"testing"

	"socksdirect/internal/experiments"
)

func reportLatency(b *testing.B, sys experiments.System, size int, intra bool) {
	b.ReportAllocs()
	var last float64
	for i := 0; i < b.N; i++ {
		last = experiments.PingPong(sys, size, intra, 20).LatencyNs
	}
	b.ReportMetric(last, "virt-ns/rtt")
}

func reportTput(b *testing.B, sys experiments.System, size int, intra bool) {
	b.ReportAllocs()
	var last experiments.Result
	for i := 0; i < b.N; i++ {
		last = experiments.Stream(sys, size, intra, 2000)
	}
	b.ReportMetric(last.OpsPerSec/1e6, "virt-Mops")
	b.ReportMetric(last.BytesPerSec*8/1e9, "virt-Gbps")
}

// --- Table 2 rows (the measured ones) ---

func BenchmarkTable2_LocklessQueueRTT(b *testing.B) {
	reportLatency(b, experiments.SysSD, 8, true)
}

func BenchmarkTable2_IntraHostSocksDirect(b *testing.B) {
	reportLatency(b, experiments.SysSD, 8, true)
}

func BenchmarkTable2_InterHostSocksDirect(b *testing.B) {
	reportLatency(b, experiments.SysSD, 8, false)
}

func BenchmarkTable2_OneSidedRDMAWrite(b *testing.B) {
	reportLatency(b, experiments.SysRDMA, 8, false)
}

func BenchmarkTable2_IntraHostLinuxTCP(b *testing.B) {
	reportLatency(b, experiments.SysLinux, 8, true)
}

func BenchmarkTable2_InterHostLinuxTCP(b *testing.B) {
	reportLatency(b, experiments.SysLinux, 8, false)
}

// --- Figure 7: intra-host single-core ---

func BenchmarkFig7_Tput_SD_8B(b *testing.B)    { reportTput(b, experiments.SysSD, 8, true) }
func BenchmarkFig7_Tput_SD_64KB(b *testing.B)  { reportTput(b, experiments.SysSD, 64*1024, true) }
func BenchmarkFig7_Tput_Linux_8B(b *testing.B) { reportTput(b, experiments.SysLinux, 8, true) }
func BenchmarkFig7_Tput_RSocket_8B(b *testing.B) {
	reportTput(b, experiments.SysRSocket, 8, true)
}
func BenchmarkFig7_Lat_SD_8B(b *testing.B)     { reportLatency(b, experiments.SysSD, 8, true) }
func BenchmarkFig7_Lat_LibVMA_8B(b *testing.B) { reportLatency(b, experiments.SysLibVMA, 8, true) }

// --- Figure 8: inter-host single-core ---

func BenchmarkFig8_Tput_SD_8B(b *testing.B)      { reportTput(b, experiments.SysSD, 8, false) }
func BenchmarkFig8_Tput_SDUnopt_8B(b *testing.B) { reportTput(b, experiments.SysSDUnopt, 8, false) }
func BenchmarkFig8_Tput_SD_64KB_ZeroCopy(b *testing.B) {
	reportTput(b, experiments.SysSD, 64*1024, false)
}
func BenchmarkFig8_Lat_SD_8B(b *testing.B)   { reportLatency(b, experiments.SysSD, 8, false) }
func BenchmarkFig8_Lat_RDMA_8B(b *testing.B) { reportLatency(b, experiments.SysRDMA, 8, false) }

// --- Figure 9: multicore scalability ---

func BenchmarkFig9_Intra_SD_8Cores(b *testing.B) {
	b.ReportAllocs()
	var v float64
	for i := 0; i < b.N; i++ {
		v = experiments.MultiPair(experiments.SysSD, true, 8) / 1e6
	}
	b.ReportMetric(v, "virt-Mops")
}

func BenchmarkFig9_Inter_SD_8Cores(b *testing.B) {
	b.ReportAllocs()
	var v float64
	for i := 0; i < b.N; i++ {
		v = experiments.MultiPair(experiments.SysSD, false, 8) / 1e6
	}
	b.ReportMetric(v, "virt-Mops")
}

// --- Figure 10: core sharing ---

func BenchmarkFig10_FourProcsOneCore(b *testing.B) {
	b.ReportAllocs()
	var v float64
	for i := 0; i < b.N; i++ {
		v = experiments.Fig10([]int{4}).Y[0]
	}
	b.ReportMetric(v*1000, "virt-ns/rtt")
}

// --- Figure 11: HTTP proxy ---

func BenchmarkFig11_HTTP_512B(b *testing.B) {
	b.ReportAllocs()
	var v float64
	for i := 0; i < b.N; i++ {
		v = experiments.HTTPLatency(experiments.SysSD, 512)
	}
	b.ReportMetric(v, "virt-ns/req")
}

// --- Figure 12: NF pipeline ---

func BenchmarkFig12_SD_4Stages(b *testing.B) {
	b.ReportAllocs()
	var v float64
	for i := 0; i < b.N; i++ {
		v, _ = experiments.NFChain("sd", 4, experiments.Fig12Packets)
	}
	b.ReportMetric(v/1e6, "virt-Mpps")
}

func BenchmarkFig12_Pipe_4Stages(b *testing.B) {
	b.ReportAllocs()
	var v float64
	for i := 0; i < b.N; i++ {
		v, _ = experiments.NFChain("pipe", 4, experiments.Fig12Packets)
	}
	b.ReportMetric(v/1e6, "virt-Mpps")
}

// --- applications & control plane ---

func BenchmarkRedisGET(b *testing.B) {
	b.ReportAllocs()
	var r experiments.RedisResult
	for i := 0; i < b.N; i++ {
		r = experiments.Redis(500)
	}
	b.ReportMetric(r.MeanUs*1000, "virt-ns/get")
}

func BenchmarkConnectionSetup(b *testing.B) {
	b.ReportAllocs()
	var r experiments.ConnScaleResult
	for i := 0; i < b.N; i++ {
		r = experiments.ConnScaleDrill(experiments.ConnScaleConfig{Population: 160, Churn: 64})
	}
	b.ReportMetric(r.ConnectsPerSec/1e6, "virt-Mconn/s")
}

// --- ablations (DESIGN.md §5) ---

func BenchmarkAblateTokenSharing(b *testing.B) {
	b.ReportAllocs()
	var fast, takeover, locked float64
	for i := 0; i < b.N; i++ {
		fast, takeover, locked = experiments.AblateToken()
	}
	b.ReportMetric(fast/1e6, "fast-Mops")
	b.ReportMetric(takeover/1e6, "takeover-Mops")
	b.ReportMetric(locked/1e6, "locked-Mops")
}

func BenchmarkAblateZeroCopy_1MiB(b *testing.B) {
	b.ReportAllocs()
	var on, off float64
	for i := 0; i < b.N; i++ {
		on = experiments.Stream(experiments.SysSD, 1<<20, true, 20).BytesPerSec
		off = experiments.Stream(experiments.SysSDUnopt, 1<<20, true, 20).BytesPerSec
	}
	b.ReportMetric(on*8/1e9, "zc-Gbps")
	b.ReportMetric(off*8/1e9, "copy-Gbps")
}

// --- vectored op path (SendBatch/RecvBatch) ---

// BenchmarkBurstPingPong runs the whole-stack batched workload from the
// BENCH suite (32 messages per batch, 64 B each) and reports its
// virtual-time metrics; allocs/op here covers the testing.B loop, while
// the steady-state per-message number is the entry's AllocsPerOp.
func BenchmarkBurstPingPong_Intra32x64B(b *testing.B) {
	b.ReportAllocs()
	var e experiments.BenchEntry
	for i := 0; i < b.N; i++ {
		e = experiments.BurstPingPong("sd_intra_burst_32x64B", 32, 64, true, 200)
	}
	b.ReportMetric(e.MsgsPerSec/1e6, "virt-Mmsg/s")
	b.ReportMetric(e.AllocsPerOp, "steady-allocs/msg")
}

func BenchmarkBurstPingPong_Inter32x64B(b *testing.B) {
	b.ReportAllocs()
	var e experiments.BenchEntry
	for i := 0; i < b.N; i++ {
		e = experiments.BurstPingPong("sd_inter_burst_32x64B", 32, 64, false, 200)
	}
	b.ReportMetric(e.MsgsPerSec/1e6, "virt-Mmsg/s")
	b.ReportMetric(e.AllocsPerOp, "steady-allocs/msg")
}
