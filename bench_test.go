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

	"socksdirect/internal/exec"
	"socksdirect/internal/experiments"
	"socksdirect/internal/fabric"
	"socksdirect/internal/rdma"
	"socksdirect/internal/shm"
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

// --- allocation-free data path (ISSUE-3 tentpole) ---
//
// These two report real allocs/op for single messages on the pooled
// transport bottoms (run with -benchmem): the SHM ring must show 0
// allocs/op and the RDMA QP path ≤1. The hard assertions live in
// internal/shm and internal/rdma alloc tests; these make the numbers
// visible in ordinary benchmark output and in the BENCH JSON reports.

func BenchmarkRingSendRecv1KiB(b *testing.B) {
	r := shm.NewRing(1 << 16)
	payload := make([]byte, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !r.TrySendV(1, 0, payload, nil) {
			b.Fatal("ring full")
		}
		if _, ok := r.TryRecv(); !ok {
			b.Fatal("recv failed")
		}
	}
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

func BenchmarkQPWrite1KiB(b *testing.B) {
	s := exec.NewSim(exec.SimConfig{})
	clk := s.Clock()
	net := fabric.NewNet(clk, "rdma", fabric.Config{PropDelay: 800})
	na := rdma.NewNIC(clk, "A", nil, 1)
	nb := rdma.NewNIC(clk, "B", nil, 2)
	na.AttachFabric(net.AddHost("A"))
	nb.AttachFabric(net.AddHost("B"))
	pda, pdb := na.AllocPD(), nb.AllocPD()
	bufB := make([]byte, 1<<16)
	mrb := pdb.RegisterBytes(bufB)
	cqaS, cqaR := rdma.NewCQ(), rdma.NewCQ()
	cqbS, cqbR := rdma.NewCQ(), rdma.NewCQ()
	qa := pda.CreateQP(cqaS, cqaR)
	qb := pdb.CreateQP(cqbS, cqbR)
	if err := qa.Connect("B", qb.QPN()); err != nil {
		b.Fatal(err)
	}
	if err := qb.Connect("A", qa.QPN()); err != nil {
		b.Fatal(err)
	}
	_, _ = cqaR, cqbS
	payload := make([]byte, 1024)
	op := func() {
		if err := qa.PostWrite(1, payload, mrb.RKey(), 0, 1, true); err != nil {
			b.Fatal(err)
		}
		s.Run() // delivery, ack, completions, RTO no-op — all on virtual time
		for {
			if _, ok := cqaS.PollOne(); !ok {
				break
			}
		}
		for {
			if _, ok := cqbR.PollOne(); !ok {
				break
			}
		}
	}
	for i := 0; i < 64; i++ {
		op() // warm packet/buffer/delivery pools and amortized slices
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}
