// Package experiments regenerates every table and figure of the paper's
// evaluation (§5) on the simulated cluster: microbenchmarks over each
// system (SocksDirect, Linux, LibVMA, RSocket, raw RDMA), scalability
// sweeps on virtual cores, and the application workloads. cmd/sdbench
// renders the results; bench_test.go wraps them as testing.B benchmarks.
package experiments

import (
	sd "socksdirect"
	"socksdirect/internal/baseline/libvma"
	"socksdirect/internal/baseline/rsocket"
	"socksdirect/internal/costmodel"
	"socksdirect/internal/exec"
	"socksdirect/internal/host"
	"socksdirect/internal/ksocket"
	"socksdirect/internal/mem"
	"socksdirect/internal/monitor"
	"socksdirect/internal/rdma"
)

// System names the stack under measurement.
type System string

// The compared systems.
const (
	SysSD      System = "SocksDirect"
	SysSDUnopt System = "SD (unopt)"
	SysLinux   System = "Linux"
	SysLibVMA  System = "LibVMA"
	SysRSocket System = "RSocket"
	SysRDMA    System = "RDMA raw"
)

// Result is one measured point.
type Result struct {
	System      System
	MsgSize     int
	LatencyNs   float64 // mean round-trip
	OpsPerSec   float64 // single-direction message rate
	BytesPerSec float64
}

// sender/receiver function pair abstracting each system's data plane for
// the ping-pong and streaming workloads.
type endpointAPI struct {
	send func(b []byte) (int, error)
	recv func(b []byte) (int, error)
	// sendVA/recvVA are non-nil when the system supports zero copy.
	sendVA func(n int) (int, error)
	recvVA func(n int) (int, error)
	// idle is called while waiting for the peer: SocksDirect flushes
	// batched tails by polling its completion queues inside library calls
	// (the paper's adaptive batching works the same way), so an idle
	// sender must keep poking the library.
	idle func()
}

type pairMaker func(t *world, intra bool, unopt bool,
	ready func(side int, api endpointAPI))

// world is one experiment's cluster.
type world struct {
	sim    *exec.Sim
	costs  *costmodel.Costs
	a, b   *host.Host
	ka, kb *ksocket.Stack
	ma, mb *monitor.Monitor
	cl     *sd.Cluster
	ha, hb *sd.Host

	recvDone bool // streaming workloads: receiver finished draining

	vmaA, vmaB *libvma.Stack // one LibVMA instance per host (proto handler is singleton)
}

func (w *world) vmaOn(h *host.Host) *libvma.Stack {
	if h == w.a {
		if w.vmaA == nil {
			w.vmaA = libvma.New(w.a, w.ka)
		}
		return w.vmaA
	}
	if w.vmaB == nil {
		w.vmaB = libvma.New(w.b, w.kb)
	}
	return w.vmaB
}

func newWorld() *world { return newWorldAfter(0) }

// newWorldAfter builds the world with `skip` bare hosts on its Sim before
// its two: host ordinals feed connection IDs, which pick monitor shards
// and recovery jitter, so a test can run a drill under other schedules.
func newWorldAfter(skip int) *world {
	costs := costmodel.Default
	cl := sd.NewCluster(sd.Config{Costs: &costs, Seed: 11})
	for range skip {
		host.New("skipped", cl.Sim(), &costs, 1)
	}
	w := &world{costs: &costs, cl: cl}
	w.ha = cl.AddHost("hostA")
	w.hb = cl.AddHost("hostB")
	sd.PeerMonitors(w.ha, w.hb)
	w.a, w.b = w.ha.H, w.hb.H
	w.ka, w.kb = w.ha.KS, w.hb.KS
	w.ma, w.mb = w.ha.Mon, w.hb.Mon
	w.sim = simOf(cl)
	return w
}

// simOf digs the simulator out of the public cluster (the experiments
// package is allowed to reach inside).
func simOf(cl *sd.Cluster) *exec.Sim { return cl.Sim() }

// PingPong measures the mean RTT of size-byte messages over the given
// system, intra- or inter-host.
func PingPong(sys System, size int, intra bool, rounds int) Result {
	w := newWorld()
	var rtt int64
	serverSide := func(api endpointAPI) {
		buf := make([]byte, size)
		recvOne := func() error {
			if api.recvVA != nil {
				_, err := api.recvVA(size)
				return err
			}
			_, err := recvFull(api, buf)
			return err
		}
		sendOne := func() error {
			if api.sendVA != nil {
				_, err := api.sendVA(size)
				return err
			}
			_, err := api.send(buf)
			return err
		}
		for i := 0; i <= rounds; i++ {
			if recvOne() != nil || sendOne() != nil {
				return
			}
		}
	}
	clientSide := func(t *timeSrc, api endpointAPI) {
		buf := make([]byte, size)
		round := func() {
			if api.sendVA != nil {
				api.sendVA(size)
				api.recvVA(size)
				return
			}
			api.send(buf)
			recvFull(api, buf)
		}
		round()
		start := t.now()
		for i := 0; i < rounds; i++ {
			round()
		}
		rtt = (t.now() - start) / int64(rounds)
	}
	wire(w, sys, intra, sys == SysSDUnopt, size, serverSide, clientSide)
	w.sim.Run()
	return Result{System: sys, MsgSize: size, LatencyNs: float64(rtt)}
}

// Stream measures one-directional throughput: the sender pumps `count`
// messages of `size` bytes; the receiver drains them. Zero copy engages
// on the SocksDirect path for large messages unless unopt.
func Stream(sys System, size int, intra bool, count int) Result {
	w := newWorld()
	var elapsed int64
	serverSide := func(api endpointAPI) {
		buf := make([]byte, size)
		for i := 0; i < count; i++ {
			if api.recvVA != nil && size >= 16*1024 {
				if _, err := api.recvVA(size); err != nil {
					return
				}
				continue
			}
			if _, err := recvFull(api, buf); err != nil {
				return
			}
		}
	}
	clientSide := func(t *timeSrc, api endpointAPI) {
		buf := make([]byte, size)
		start := t.now()
		for i := 0; i < count; i++ {
			if api.sendVA != nil && size >= 16*1024 {
				if _, err := api.sendVA(size); err != nil {
					return
				}
				continue
			}
			if _, err := api.send(buf); err != nil {
				return
			}
		}
		// Wait for the receiver to finish draining (flag set below);
		// sleep-poll so the idle wait does not flood the event queue.
		for !w.recvDone {
			if api.idle != nil {
				api.idle()
			}
			t.sleep(20_000)
		}
		elapsed = t.now() - start
	}
	wire(w, sys, intra, sys == SysSDUnopt, size, func(api endpointAPI) {
		serverSide(api)
		w.recvDone = true
	}, clientSide)
	w.sim.Run()
	if elapsed <= 0 {
		return Result{System: sys, MsgSize: size}
	}
	ops := float64(count) / (float64(elapsed) / 1e9)
	return Result{
		System: sys, MsgSize: size,
		OpsPerSec:   ops,
		BytesPerSec: ops * float64(size),
	}
}

// timeSrc lets workload closures read virtual time without threading the
// exec context everywhere.
type timeSrc struct {
	now   func() int64
	yield func()
	sleep func(int64)
}

func recvFull(api endpointAPI, buf []byte) (int, error) {
	got := 0
	for got < len(buf) {
		n, err := api.recv(buf[got:])
		got += n
		if err != nil {
			return got, err
		}
	}
	return got, nil
}

// wire builds the two endpoints of the chosen system and spawns server and
// client threads. The server runs serverFn once connected; the client runs
// clientFn.
func wire(w *world, sys System, intra bool, unopt bool, size int,
	serverFn func(endpointAPI), clientFn func(*timeSrc, endpointAPI)) {
	wireOn(w, sys, intra, unopt, size, 7100, serverFn, clientFn)
}

// wireOn is wire with an explicit service port so sweeps can run many
// pairs in one world.
func wireOn(w *world, sys System, intra bool, unopt bool, size int, port uint16,
	serverFn func(endpointAPI), clientFn func(*timeSrc, endpointAPI)) {
	wireOnT(w, sys, intra, unopt, size, port,
		func(_ *timeSrc, api endpointAPI) { serverFn(api) }, clientFn)
}

// wireOnT also hands the server a clock (scalability sweeps time both ends).
func wireOnT(w *world, sys System, intra bool, unopt bool, size int, port uint16,
	serverFn func(*timeSrc, endpointAPI), clientFn func(*timeSrc, endpointAPI)) {

	serverHost, clientHost := w.hb, w.ha
	serverName := "hostB"
	if intra {
		serverHost = w.ha
		serverName = "hostA"
	}

	switch sys {
	case SysSD, SysSDUnopt:
		sp := serverHost.NewProcess("srv", 0)
		cp := clientHost.NewProcess("cli", 0)
		if unopt {
			sp.Lib.SetBatching(false)
			cp.Lib.SetBatching(false)
		}
		sp.Go("srv", func(t *sd.T) {
			ln, err := t.Listen(port)
			if err != nil {
				return
			}
			c, err := ln.Accept()
			if err != nil {
				return
			}
			serverFn(&timeSrc{now: t.Now, yield: t.Yield, sleep: t.Sleep}, sdAPI(t, c, size, unopt))
		})
		cp.Go("cli", func(t *sd.T) {
			t.Sleep(10_000)
			c, err := t.Dial(serverName, port)
			if err != nil {
				return
			}
			clientFn(&timeSrc{now: t.Now, yield: t.Yield, sleep: t.Sleep}, sdAPI(t, c, size, unopt))
		})

	case SysLinux:
		ks := w.kb
		if intra {
			ks = w.ka
		}
		l, err := ks.Listen(port)
		if err != nil {
			return
		}
		w.sim.Spawn("srv", func(ctx exec.Context) {
			c, err := l.Accept(ctx)
			if err != nil {
				return
			}
			serverFn(&timeSrc{now: ctx.Now, yield: ctx.Yield, sleep: ctx.Sleep}, ksAPI(ctx, c))
		})
		w.sim.Spawn("cli", func(ctx exec.Context) {
			ctx.Sleep(10_000)
			c, err := w.ka.Dial(ctx, serverName, port)
			if err != nil {
				return
			}
			clientFn(&timeSrc{now: ctx.Now, yield: ctx.Yield, sleep: ctx.Sleep}, ksAPI(ctx, c))
		})

	case SysLibVMA:
		vs := w.vmaOn(w.b)
		vc := w.vmaOn(w.a)
		if intra {
			vs = w.vmaOn(w.a)
		}
		l, err := vs.Listen(port + 1000)
		if err != nil {
			return
		}
		w.sim.Spawn("srv", func(ctx exec.Context) {
			c, err := l.Accept(ctx)
			if err != nil {
				return
			}
			serverFn(&timeSrc{now: ctx.Now, yield: ctx.Yield, sleep: ctx.Sleep}, endpointAPI{
				send: func(b []byte) (int, error) { return c.Send(ctx, b) },
				recv: func(b []byte) (int, error) { return c.Recv(ctx, b) },
			})
		})
		w.sim.Spawn("cli", func(ctx exec.Context) {
			ctx.Sleep(10_000)
			dialer := vc
			if intra {
				dialer = vs
			}
			c, err := dialer.Dial(ctx, serverName, port+1000)
			if err != nil {
				return
			}
			clientFn(&timeSrc{now: ctx.Now, yield: ctx.Yield, sleep: ctx.Sleep}, endpointAPI{
				send: func(b []byte) (int, error) { return c.Send(ctx, b) },
				recv: func(b []byte) (int, error) { return c.Recv(ctx, b) },
			})
		})

	case SysRSocket:
		var ca, cb *rsocket.Conn
		if intra {
			ca, cb = rsocket.PairIntra(w.a)
		} else {
			ca, cb = rsocket.Pair(w.a, w.b)
		}
		w.sim.Spawn("srv", func(ctx exec.Context) {
			serverFn(&timeSrc{now: ctx.Now, yield: ctx.Yield, sleep: ctx.Sleep}, endpointAPI{
				send: func(b []byte) (int, error) { return cb.Send(ctx, b) },
				recv: func(b []byte) (int, error) { return cb.Recv(ctx, b) },
			})
		})
		w.sim.Spawn("cli", func(ctx exec.Context) {
			clientFn(&timeSrc{now: ctx.Now, yield: ctx.Yield, sleep: ctx.Sleep}, endpointAPI{
				send: func(b []byte) (int, error) { return ca.Send(ctx, b) },
				recv: func(b []byte) (int, error) { return ca.Recv(ctx, b) },
			})
		})

	case SysRDMA:
		// Raw one-sided write ping-pong: no socket semantics at all.
		bufA := make([]byte, 1<<22)
		bufB := make([]byte, 1<<22)
		pda, pdb := w.a.NIC.AllocPD(), w.b.NIC.AllocPD()
		mra, mrb := pda.RegisterBytes(bufA), pdb.RegisterBytes(bufB)
		cqaS, cqaR := rdma.NewCQ(), rdma.NewCQ()
		cqbS, cqbR := rdma.NewCQ(), rdma.NewCQ()
		qa := pda.CreateQP(cqaS, cqaR)
		qb := pdb.CreateQP(cqbS, cqbR)
		qa.Connect("hostB", qb.QPN())
		qb.Connect("hostA", qa.QPN())
		w.sim.Spawn("srv", func(ctx exec.Context) {
			serverFn(&timeSrc{now: ctx.Now, yield: ctx.Yield, sleep: ctx.Sleep}, endpointAPI{
				send: func(b []byte) (int, error) {
					ctx.Charge(w.costs.RDMAPost)
					qb.PostWrite(1, b, mra.RKey(), 0, uint32(len(b)), true)
					return len(b), nil
				},
				recv: func(b []byte) (int, error) {
					for {
						if e, ok := cqbR.PollOne(); ok {
							n := copy(b, bufB[:e.Len])
							return n, nil
						}
						ctx.Charge(w.costs.RDMAPost)
						ctx.Yield()
					}
				},
			})
		})
		w.sim.Spawn("cli", func(ctx exec.Context) {
			clientFn(&timeSrc{now: ctx.Now, yield: ctx.Yield, sleep: ctx.Sleep}, endpointAPI{
				send: func(b []byte) (int, error) {
					ctx.Charge(w.costs.RDMAPost)
					qa.PostWrite(1, b, mrb.RKey(), 0, uint32(len(b)), true)
					return len(b), nil
				},
				recv: func(b []byte) (int, error) {
					for {
						if e, ok := cqaR.PollOne(); ok {
							n := copy(b, bufA[:e.Len])
							return n, nil
						}
						ctx.Charge(w.costs.RDMAPost)
						ctx.Yield()
					}
				},
			})
		})
	}
}

// connAPI adapts a SocksDirect connection's byte API.
func connAPI(c *sd.Conn) endpointAPI {
	return endpointAPI{send: c.Send, recv: c.Recv, idle: func() { c.Readable() }}
}

// ksAPI adapts a Linux socket used by the thread that owns ctx.
func ksAPI(ctx exec.Context, c *ksocket.Socket) endpointAPI {
	return endpointAPI{
		send: func(b []byte) (int, error) { return c.Send(ctx, b) },
		recv: func(b []byte) (int, error) { return c.Recv(ctx, b) },
	}
}

// sdAPI adapts a SocksDirect connection: byte API plus VA API for the
// zero-copy experiments (disabled for the unopt ablation).
func sdAPI(t *sd.T, c *sd.Conn, size int, unopt bool) endpointAPI {
	api := connAPI(c)
	if !unopt && size >= 16*1024 {
		src := t.Alloc(size)
		dst := t.Alloc(size)
		api.sendVA = func(n int) (int, error) { return c.SendVA(src, n) }
		api.recvVA = func(n int) (int, error) {
			m, err := c.RecvVA(dst, n)
			for err == nil && m < n {
				var k int
				k, err = c.RecvVA(dst+mem.VAddr(m), n-m)
				m += k
			}
			return m, err
		}
	}
	return api
}
