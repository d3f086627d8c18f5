package experiments

import "testing"

// TestLatencyShapeMatchesPaper checks the headline claims of Figures 7b/8b
// at 8 bytes: SocksDirect intra-host sits far below Linux (paper: 35x) and
// inter-host close to raw RDMA (paper: ~1.7 us vs 1.6 us), with the full
// ordering SD < RSocket < LibVMA < Linux preserved.
func TestLatencyShapeMatchesPaper(t *testing.T) {
	const rounds = 30
	sdIntra := PingPong(SysSD, 8, true, rounds).LatencyNs
	lxIntra := PingPong(SysLinux, 8, true, rounds).LatencyNs
	rsIntra := PingPong(SysRSocket, 8, true, rounds).LatencyNs

	if sdIntra <= 0 || lxIntra <= 0 || rsIntra <= 0 {
		t.Fatalf("degenerate latencies: sd=%v lx=%v rs=%v", sdIntra, lxIntra, rsIntra)
	}
	if lxIntra/sdIntra < 8 {
		t.Errorf("intra-host: Linux/SD ratio %.1f, paper reports ~35x — want >= 8x", lxIntra/sdIntra)
	}
	if !(sdIntra < rsIntra && rsIntra < lxIntra) {
		t.Errorf("intra ordering broken: sd=%.0f rs=%.0f lx=%.0f", sdIntra, rsIntra, lxIntra)
	}

	sdInter := PingPong(SysSD, 8, false, rounds).LatencyNs
	rdma := PingPong(SysRDMA, 8, false, rounds).LatencyNs
	lxInter := PingPong(SysLinux, 8, false, rounds).LatencyNs
	if sdInter/rdma > 2.0 {
		t.Errorf("inter-host SD %.0f ns should be close to raw RDMA %.0f ns", sdInter, rdma)
	}
	if lxInter/sdInter < 5 {
		t.Errorf("inter-host: Linux/SD ratio %.1f, paper reports ~17x — want >= 5x", lxInter/sdInter)
	}
	t.Logf("intra 8B RTT: SD=%.0f RSocket=%.0f Linux=%.0f ns", sdIntra, rsIntra, lxIntra)
	t.Logf("inter 8B RTT: SD=%.0f RDMA=%.0f Linux=%.0f ns", sdInter, rdma, lxInter)
}

// TestThroughputShape checks Figure 7a/8a at 8 bytes: SD >> Linux, and
// batching (opt vs unopt) helps inter-host message rate.
func TestThroughputShape(t *testing.T) {
	const count = 4000
	sdT := Stream(SysSD, 8, true, count).OpsPerSec
	lxT := Stream(SysLinux, 8, true, count).OpsPerSec
	if sdT == 0 || lxT == 0 {
		t.Fatalf("degenerate throughput: sd=%v lx=%v", sdT, lxT)
	}
	if sdT/lxT < 5 {
		t.Errorf("intra 8B: SD/Linux tput ratio %.1f, paper reports ~20x — want >= 5x", sdT/lxT)
	}

	sdI := Stream(SysSD, 8, false, count).OpsPerSec
	sdU := Stream(SysSDUnopt, 8, false, count).OpsPerSec
	if sdI <= sdU {
		t.Errorf("batching should raise inter-host message rate: opt=%.0f unopt=%.0f", sdI, sdU)
	}
	t.Logf("intra 8B: SD=%.1fM op/s Linux=%.2fM op/s; inter: SD=%.1fM unopt=%.1fM",
		sdT/1e6, lxT/1e6, sdI/1e6, sdU/1e6)
}

// TestZeroCopyCrossover checks Figure 7's large-message story: at 1 MiB the
// zero-copy path beats the copy path (SD-unopt) clearly.
func TestZeroCopyCrossover(t *testing.T) {
	const count = 40
	zc := Stream(SysSD, 1<<20, true, count).BytesPerSec
	cp := Stream(SysSDUnopt, 1<<20, true, count).BytesPerSec
	if zc == 0 || cp == 0 {
		t.Fatalf("degenerate: zc=%v cp=%v", zc, cp)
	}
	if zc/cp < 2 {
		t.Errorf("1MiB intra: zero copy %.1f Gbps should be >= 2x copy %.1f Gbps",
			zc*8/1e9, cp*8/1e9)
	}
	t.Logf("1MiB intra: zero-copy %.1f Gbps vs copy %.1f Gbps", zc*8/1e9, cp*8/1e9)
}

// TestApplicationStudiesMatchPaper checks the claims of §5.3 that Figures
// 11 and 12 support: SocksDirect beats Linux at every response size and
// by at least 5x at 64 B (paper 5.5x); it runs the NF chain at least 10x
// faster than Linux pipes and sockets at every length (paper 15-20x);
// the NetBricks function-call bound beats it at one stage and falls below
// it from two; and every packet crosses exactly one hop per stage on every
// transport.
func TestApplicationStudiesMatchPaper(t *testing.T) {
	fig11 := Fig11()
	sdS, lxS := fig11[0], fig11[1]
	for i, size := range Fig11Sizes {
		if !(sdS.Y[i] > 0 && sdS.Y[i] < lxS.Y[i]) {
			t.Errorf("Fig 11, %d B: SD %.2f us, Linux %.2f us; want 0 < SD < Linux", size, sdS.Y[i], lxS.Y[i])
		}
	}
	if r := lxS.Y[0] / sdS.Y[0]; r < 5 {
		t.Errorf("Fig 11, 64 B: Linux/SD %.1fx, want >= 5x (paper 5.5x)", r)
	}

	stages := []int{1, 2, 3, 4, 5, 6, 7, 8}
	fig12 := Fig12(stages)
	sdN, pipe, tcp, nb := fig12[0], fig12[1], fig12[2], fig12[3]
	for i, n := range stages {
		if sdN.Y[i] < 10*pipe.Y[i] || sdN.Y[i] < 10*tcp.Y[i] || pipe.Y[i] <= 0 || tcp.Y[i] <= 0 {
			t.Errorf("Fig 12, %d stages: SD %.2f M/s, pipe %.2f, TCP %.2f; want SD >= 10x both",
				n, sdN.Y[i], pipe.Y[i], tcp.Y[i])
		}
		if above := nb.Y[i] > sdN.Y[i]; above != (n == 1) {
			t.Errorf("Fig 12, %d stages: NetBricks %.2f M/s vs SD %.2f; want it above SD only at 1 stage",
				n, nb.Y[i], sdN.Y[i])
		}
	}

	for _, kind := range []string{"sd", "pipe", "tcp"} {
		for _, n := range []int{1, 3} {
			if _, err := NFChain(kind, n, 200); err != nil {
				t.Error(err)
			}
		}
	}
}
