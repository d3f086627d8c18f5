package main

import (
	"runtime"
	"time"

	sd "socksdirect"
	"socksdirect/internal/bufpool"
	"socksdirect/internal/costmodel"
	"socksdirect/internal/ctlmsg"
	"socksdirect/internal/exec"
	"socksdirect/internal/fabric"
	"socksdirect/internal/host"
	"socksdirect/internal/mem"
	"socksdirect/internal/rdma"
	"socksdirect/internal/shm"
)

// Layer microbenchmarks: each times calls into one module's public
// functions in isolation, on the host clock unless the name says sim. They
// give a layer's share of an op; the traced run says how often an op pays
// it.

// sink keeps results alive so the compiler cannot drop the measured calls.
var sink int

// timed runs fn three times and returns the fastest run's host ns and the
// smallest allocation count, each per unit (fn does n units of work).
// Interference only ever adds time and stray allocations, hence minima.
func timed(n int, fn func()) (nsPer, allocsPer float64) {
	var m0, m1 runtime.MemStats
	best, bestAllocs := time.Duration(1<<62), ^uint64(0)
	for run := 0; run < 3; run++ {
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		fn()
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		if d < best {
			best = d
		}
		if a := m1.Mallocs - m0.Mallocs; a < bestAllocs {
			bestAllocs = a
		}
	}
	return float64(best.Nanoseconds()) / float64(n), float64(bestAllocs) / float64(n)
}

// layerBenches runs every microbenchmark and returns name -> value. scale
// divides the iteration counts (the self-test passes 50).
func layerBenches(scale int) map[string]float64 {
	out := map[string]float64{}
	n := func(full int) int {
		if full/scale < 8 {
			return 8
		}
		return full / scale
	}
	execBenches(out, n)
	shmBenches(out, n)
	rdmaBenches(out, n)
	fabricBench(out, n(100_000))
	memBenches(out, n)
	gets := n(1_000_000)
	out["bufpool.get_release_ns_1KiB"], _ = timed(gets, func() {
		for i := 0; i < gets; i++ {
			bufpool.Get(1024).Release()
		}
	})
	ctlmsgBench(out, n(1_000_000))
	return out
}

func execBenches(out map[string]float64, n func(int) int) {
	// Two threads on their own cores yield in turn: every Yield is one
	// event push, one pop and one goroutine hand-off through the scheduler.
	yields := n(200_000)
	ns, allocs := timed(2*yields, func() {
		sim := exec.NewSim(exec.SimConfig{})
		for i := 0; i < 2; i++ {
			sim.Spawn("y", func(ctx exec.Context) {
				for k := 0; k < yields; k++ {
					ctx.Yield()
				}
			})
		}
		sim.Run()
	})
	out["exec.yield_switch_ns"], out["exec.allocs_per_event"] = ns, allocs

	// Park/Unpark ping-pong: each side wakes the other and parks.
	parks := n(200_000)
	out["exec.park_unpark_ns"], _ = timed(2*parks, func() {
		sim := exec.NewSim(exec.SimConfig{})
		var a, b exec.Thread
		a = sim.Spawn("a", func(ctx exec.Context) {
			for k := 0; k < parks; k++ {
				b.Unpark()
				ctx.Park()
			}
			b.Unpark()
		})
		b = sim.Spawn("b", func(ctx exec.Context) {
			for k := 0; k < parks; k++ {
				ctx.Park()
				a.Unpark()
			}
		})
		sim.Run()
	})

	// Timer callbacks: no goroutine switch, only the event heap.
	timers := n(1_000_000)
	out["exec.timer_event_ns"], _ = timed(timers, func() {
		sim := exec.NewSim(exec.SimConfig{})
		fired := 0
		cb := func() { fired++ }
		sim.Spawn("t", func(ctx exec.Context) {
			for k := 0; k < timers; k++ {
				ctx.After(int64(k&1023), cb)
				if k&1023 == 1023 {
					ctx.Sleep(1024)
				}
			}
		})
		sim.Run()
		sink += fired
	})

	// Charge with nothing else due: the clock moves, nobody is preempted.
	charges := n(10_000_000)
	out["exec.charge_ns"], _ = timed(charges, func() {
		sim := exec.NewSim(exec.SimConfig{})
		sim.Spawn("c", func(ctx exec.Context) {
			for k := 0; k < charges; k++ {
				ctx.Charge(1)
			}
		})
		sim.Run()
	})

	spawns := n(20_000)
	out["exec.spawn_ns"], _ = timed(spawns, func() {
		sim := exec.NewSim(exec.SimConfig{})
		sim.Spawn("parent", func(ctx exec.Context) {
			for k := 0; k < spawns; k++ {
				ctx.Join(ctx.Spawn("child", func(exec.Context) {}))
			}
		})
		sim.Run()
	})
}

func shmBenches(out map[string]float64, n func(int) int) {
	const ringCap = 128 << 10 // the product's default socket ring
	roundTrip := func(size, iters int) (float64, float64) {
		r := shm.NewRing(ringCap)
		payload := make([]byte, size)
		return timed(iters, func() {
			for i := 0; i < iters; i++ {
				if r.TrySendV(1, 0, payload, nil) {
					m, _ := r.TryRecv()
					sink += len(m.Payload)
				}
			}
		})
	}
	out["shm.ring_rt_ns_8B"], _ = roundTrip(8, n(2_000_000))
	out["shm.ring_rt_ns_1KiB"], out["shm.ring_allocs_per_op"] = roundTrip(1024, n(2_000_000))
	out["shm.ring_rt_ns_8KiB"], _ = roundTrip(8192, n(500_000))

	const burst = 32
	bursts := n(50_000)
	r := shm.NewRing(ringCap)
	payload := make([]byte, 64)
	msgs := make([]shm.Msg, burst)
	out["shm.ring_burst_ns_per_msg"], _ = timed(bursts*burst, func() {
		for i := 0; i < bursts; i++ {
			r.BeginBurst()
			for k := 0; k < burst; k++ {
				r.TrySendV(1, 0, payload, nil)
			}
			r.EndBurst()
			sink += r.TryRecvN(msgs)
		}
	})

	rings := n(2_000)
	out["shm.ring_new_ns_128KiB"], _ = timed(rings, func() {
		for i := 0; i < rings; i++ {
			sink += shm.NewRing(ringCap).Cap()
		}
	})
}

func rdmaBenches(out map[string]float64, n func(int) int) {
	// A connected QP pair on two fresh hosts, as a socket's dial builds it.
	newPair := func(cl *sd.Cluster) (qa *rdma.QP, sendCQ *rdma.CQ, rkey uint64) {
		a, b := cl.AddHost("a").H, cl.AddHost("b").H
		return connectQPs(a, b)
	}

	writes := n(20_000)
	var simPer float64
	payload := make([]byte, 1024)
	ns, allocs := timed(writes, func() {
		cl := sd.NewCluster(sd.Defaults())
		qa, cq, rkey := newPair(cl)
		post := costmodel.Default.RDMAPost
		cl.Sim().Spawn("writer", func(ctx exec.Context) {
			t0 := ctx.Now()
			for i := 0; i < writes; i++ {
				if qa.PostWrite(uint64(i), payload, rkey, 0, 0, false) != nil {
					return
				}
				for {
					if _, ok := cq.PollOne(); ok {
						break
					}
					ctx.Charge(post)
					ctx.Yield()
				}
			}
			simPer = float64(ctx.Now()-t0) / float64(writes)
		})
		cl.Run()
	})
	out["rdma.write_host_ns_1KiB"], out["rdma.write_allocs_per_op"], out["rdma.write_sim_ns_1KiB"] = ns, allocs, simPer

	const batch = 32
	batches := n(20_000) / batch
	out["rdma.write_batch_host_ns_per_wr"], _ = timed(batches*batch, func() {
		cl := sd.NewCluster(sd.Defaults())
		qa, cq, rkey := newPair(cl)
		post := costmodel.Default.RDMAPost
		wrs := make([]rdma.WriteWR, batch)
		for i := range wrs {
			wrs[i] = rdma.WriteWR{WRID: uint64(i), Data: payload, RKey: rkey}
		}
		cl.Sim().Spawn("writer", func(ctx exec.Context) {
			for i := 0; i < batches; i++ {
				if qa.PostWriteBatch(wrs) != nil {
					return
				}
				for done := 0; done < batch; {
					if _, ok := cq.PollOne(); ok {
						done++
						continue
					}
					ctx.Charge(post)
					ctx.Yield()
				}
			}
		})
		cl.Run()
	})

	setups := n(500)
	cl := sd.NewCluster(sd.Defaults())
	a, b := cl.AddHost("a").H, cl.AddHost("b").H
	out["rdma.qp_setup_host_ns"], out["rdma.qp_setup_allocs"] = timed(setups, func() {
		for i := 0; i < setups; i++ {
			qa, _, _ := connectQPs(a, b)
			sink += int(qa.QPN())
		}
	})
}

// connectQPs does what one cross-host dial does to the NICs: a protection
// domain, a 128 KiB ring-sized memory region, a QP with its two CQs, and
// Connect — on both ends.
func connectQPs(a, b *host.Host) (qa *rdma.QP, sendCQ *rdma.CQ, rkey uint64) {
	pda, pdb := a.NIC.AllocPD(), b.NIC.AllocPD()
	pda.RegisterBytes(make([]byte, 128<<10))
	mrb := pdb.RegisterBytes(make([]byte, 128<<10))
	sendCQ = rdma.NewCQ()
	qa = pda.CreateQP(sendCQ, rdma.NewCQ())
	qb := pdb.CreateQP(rdma.NewCQ(), rdma.NewCQ())
	qa.Connect(b.Name, qb.QPN())
	qb.Connect(a.Name, qa.QPN())
	return qa, sendCQ, mrb.RKey()
}

// fabricBench times one frame from Endpoint.Send to the peer's handler:
// wire-time arithmetic, one pooled delivery event, one timer callback.
func fabricBench(out map[string]float64, frames int) {
	out["fabric.frame_host_ns"], out["fabric.frame_allocs"] = timed(frames, func() {
		sim := exec.NewSim(exec.SimConfig{})
		a, b := fabric.NewLink(sim.Clock(), "a", "b", host.LinkConfig(&costmodel.Default, 1))
		got := 0
		b.SetHandler(func(any, int) { got++ })
		sim.Spawn("tx", func(ctx exec.Context) {
			for i := 0; i < frames; i++ {
				a.Send(nil, 64)
				if i&63 == 63 {
					ctx.Sleep(10_000) // let the wire drain: bounded event heap
				}
			}
		})
		sim.Run()
		sink += got
	})
}

func memBenches(out map[string]float64, n func(int) int) {
	const pages = 16
	const span = pages * mem.PageSize
	pm := mem.NewPhysMem(1, &costmodel.Default)
	sender, receiver := mem.NewAddressSpace(pm), mem.NewAddressSpace(pm)
	src, dst := sender.Alloc(span), receiver.Alloc(span)
	buf := make([]byte, span)

	// The zero-copy cycle of one 64 KiB message: mark and reference the
	// sender's pages, map them at the receiver, unmap them again.
	remaps := n(50_000)
	ns, allocs := timed(remaps, func() {
		for i := 0; i < remaps; i++ {
			ids, err := sender.PagesForSend(nil, src, span)
			if err != nil || receiver.MapPages(nil, dst, ids) != nil {
				return
			}
			receiver.Unmap(nil, dst, pages)
		}
	})
	out["mem.remap_host_ns_per_page"], out["mem.remap_allocs_per_msg"] = ns/pages, allocs

	// A small write into each page still shared with a transfer: the
	// fault handler takes a frame and copies the page.
	cows := n(20_000)
	out["mem.cow_write_host_ns_per_page"], _ = timed(cows*pages, func() {
		for i := 0; i < cows; i++ {
			ids, err := sender.PagesForSend(nil, src, span)
			if err != nil {
				return
			}
			for p := 0; p < pages; p++ {
				sender.Write(nil, src+mem.VAddr(p*mem.PageSize), buf[:8])
			}
			pm.Unref(ids)
		}
	})

	// The copy path's cost per KiB: a 64 KiB Write then Read on private pages.
	private := sender.Alloc(span)
	copies := n(20_000)
	out["mem.copy_host_ns_per_KiB"], _ = timed(copies*span/1024, func() {
		for i := 0; i < copies; i++ {
			sender.Write(nil, private, buf)
			sender.Read(private, buf)
		}
	})
}

func ctlmsgBench(out map[string]float64, iters int) {
	msg := ctlmsg.Msg{Kind: 1, Port: port, ConnID: 42, PID: 7, QPN: 9, TS: 1}
	msg.SetHost("hostname")
	wire := make([]byte, ctlmsg.Size)
	out["ctlmsg.codec_ns"], out["ctlmsg.codec_allocs"] = timed(iters, func() {
		for i := 0; i < iters; i++ {
			msg.ConnID = uint64(i)
			m, ok := ctlmsg.Unmarshal(msg.Marshal(wire))
			if ok {
				sink += int(m.Port)
			}
		}
	})
}
