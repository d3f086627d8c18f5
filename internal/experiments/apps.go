package experiments

import (
	"encoding/binary"
	"fmt"
	"sort"

	sd "socksdirect"
	"socksdirect/internal/exec"
	"socksdirect/internal/host"
)

// Fig11Sizes is the response-size axis of Figure 11.
var Fig11Sizes = []int{64, 512, 4096, 32768, 262144, 1 << 20}

// Fig11 regenerates the Nginx experiment: request generator (host A) ->
// reverse proxy (host B) -> response generator (also host B), measuring
// end-to-end request latency for each response size, over SocksDirect and
// over Linux kernel sockets.
func Fig11() []*Series {
	sdSeries := &Series{Name: "SocksDirect"}
	lxSeries := &Series{Name: "Linux"}
	for _, size := range Fig11Sizes {
		sdSeries.Add(float64(size), httpLatency(true, size)/1000)
		lxSeries.Add(float64(size), httpLatency(false, size)/1000)
	}
	return []*Series{sdSeries, lxSeries}
}

// The HTTP-shaped protocol: request = 16-byte line; response = 8-byte
// length header + body (Content-Length framing without text parsing).
func httpLatency(useSD bool, respBytes int) float64 {
	w := newWorld()
	rounds := 25
	if respBytes >= 1<<15 {
		rounds = 6
	}
	var mean float64

	type conn struct {
		send func([]byte) (int, error)
		recv func([]byte) (int, error)
	}
	full := func(c conn, b []byte) error {
		got := 0
		for got < len(b) {
			n, err := c.recv(b[got:])
			got += n
			if err != nil {
				return err
			}
		}
		return nil
	}
	serveUpstream := func(c conn) {
		req := make([]byte, 16)
		body := make([]byte, respBytes)
		hdr := make([]byte, 8)
		binary.LittleEndian.PutUint64(hdr, uint64(respBytes))
		for {
			if err := full(c, req); err != nil {
				return
			}
			if _, err := c.send(hdr); err != nil {
				return
			}
			if _, err := c.send(body); err != nil {
				return
			}
		}
	}
	proxyLoop := func(client, up conn) {
		req := make([]byte, 16)
		hdr := make([]byte, 8)
		body := make([]byte, respBytes)
		for {
			if err := full(client, req); err != nil {
				return
			}
			if _, err := up.send(req); err != nil {
				return
			}
			if err := full(up, hdr); err != nil {
				return
			}
			n := int(binary.LittleEndian.Uint64(hdr))
			if err := full(up, body[:n]); err != nil {
				return
			}
			client.send(hdr)
			client.send(body[:n])
		}
	}
	generate := func(now func() int64, c conn) {
		req := make([]byte, 16)
		hdr := make([]byte, 8)
		body := make([]byte, respBytes)
		round := func() {
			c.send(req)
			full(c, hdr)
			full(c, body[:int(binary.LittleEndian.Uint64(hdr))])
		}
		round() // warm up
		start := now()
		for i := 0; i < rounds; i++ {
			round()
		}
		mean = float64(now()-start) / float64(rounds)
	}

	if useSD {
		up := w.hb.NewProcess("upstream", 0)
		px := w.hb.NewProcess("proxy", 0)
		gen := w.ha.NewProcess("gen", 0)
		up.Go("main", func(t *sd.T) {
			ln, _ := t.Listen(9000)
			c, err := ln.Accept()
			if err != nil {
				return
			}
			serveUpstream(conn{send: c.Send, recv: c.Recv})
		})
		px.Go("main", func(t *sd.T) {
			ln, _ := t.Listen(80)
			upc, err := t.Dial("hostB", 9000)
			if err != nil {
				return
			}
			cc, err := ln.Accept()
			if err != nil {
				return
			}
			proxyLoop(conn{send: cc.Send, recv: cc.Recv}, conn{send: upc.Send, recv: upc.Recv})
		})
		gen.Go("main", func(t *sd.T) {
			t.Sleep(50_000)
			c, err := t.Dial("hostB", 80)
			if err != nil {
				return
			}
			generate(t.Now, conn{send: c.Send, recv: c.Recv})
		})
	} else {
		lnUp, _ := w.kb.Listen(9000)
		lnPx, _ := w.kb.Listen(80)
		w.sim.Spawn("upstream", func(ctx exec.Context) {
			c, err := lnUp.Accept(ctx)
			if err != nil {
				return
			}
			serveUpstream(conn{
				send: func(b []byte) (int, error) { return c.Send(ctx, b) },
				recv: func(b []byte) (int, error) { return c.Recv(ctx, b) },
			})
		})
		w.sim.Spawn("proxy", func(ctx exec.Context) {
			upc, err := w.kb.Dial(ctx, "hostB", 9000)
			if err != nil {
				return
			}
			cc, err := lnPx.Accept(ctx)
			if err != nil {
				return
			}
			proxyLoop(conn{
				send: func(b []byte) (int, error) { return cc.Send(ctx, b) },
				recv: func(b []byte) (int, error) { return cc.Recv(ctx, b) },
			}, conn{
				send: func(b []byte) (int, error) { return upc.Send(ctx, b) },
				recv: func(b []byte) (int, error) { return upc.Recv(ctx, b) },
			})
		})
		w.sim.Spawn("gen", func(ctx exec.Context) {
			ctx.Sleep(50_000)
			c, err := w.ka.Dial(ctx, "hostB", 80)
			if err != nil {
				return
			}
			generate(ctx.Now, conn{
				send: func(b []byte) (int, error) { return c.Send(ctx, b) },
				recv: func(b []byte) (int, error) { return c.Recv(ctx, b) },
			})
		})
	}
	w.sim.Run()
	return mean
}

// Fig11Point exposes one HTTP measurement (benchmarks).
func Fig11Point(useSD bool, respBytes int) float64 { return httpLatency(useSD, respBytes) }

// Fig12Point exposes one NF pipeline measurement (benchmarks).
func Fig12Point(kind string, stages int) float64 { return nfPipeline(kind, stages) }

// Fig12 regenerates the NF pipeline: throughput of 64-byte packets through
// an n-stage chain for SocksDirect sockets, Linux pipes, Linux TCP
// sockets, and a NetBricks-style function-call pipeline upper bound.
func Fig12(stages []int) []*Series {
	sdS := &Series{Name: "SocksDirect"}
	pipeS := &Series{Name: "Linux pipe"}
	tcpS := &Series{Name: "Linux socket"}
	nbS := &Series{Name: "NetBricks"}
	for _, n := range stages {
		sdS.Add(float64(n), nfPipeline("sd", n)/1e6)
		pipeS.Add(float64(n), nfPipeline("pipe", n)/1e6)
		tcpS.Add(float64(n), nfPipeline("tcp", n)/1e6)
		nbS.Add(float64(n), netbricksBound(n)/1e6)
	}
	return []*Series{sdS, pipeS, tcpS, nbS}
}

// netbricksBound models a run-to-completion NF framework: every stage is a
// function call (~35 ns of packet work), no IPC at all.
func netbricksBound(stages int) float64 {
	perPkt := float64(35 * stages)
	return 1e9 / perPkt
}

func nfPipeline(kind string, stages int) float64 {
	const packets = 1800
	w := newWorld()
	var elapsed int64
	done := false

	type hop struct {
		send func(exec.Context, []byte) (int, error)
		recv func(exec.Context, []byte) (int, error)
	}
	fullRecv := func(ctx exec.Context, h hop, b []byte) error {
		got := 0
		for got < len(b) {
			n, err := h.recv(ctx, b[got:])
			got += n
			if err != nil {
				return err
			}
		}
		return nil
	}

	switch kind {
	case "sd":
		// Stage i listens on 9100+i; the generator closes the loop.
		for i := 0; i < stages; i++ {
			i := i
			nf := w.ha.NewProcess(fmt.Sprintf("nf%d", i), 0)
			nf.Go("main", func(t *sd.T) {
				ln, _ := t.Listen(uint16(9100 + i))
				in, err := ln.Accept()
				if err != nil {
					return
				}
				dst := uint16(9100 + i + 1)
				if i+1 == stages {
					dst = 9099
				}
				out, err := t.Dial("hostA", dst)
				if err != nil {
					return
				}
				pkt := make([]byte, 64)
				for {
					if _, err := in.RecvFull(pkt); err != nil {
						return
					}
					binary.LittleEndian.PutUint32(pkt[4:], binary.LittleEndian.Uint32(pkt[4:])+1)
					if _, err := out.Send(pkt); err != nil {
						return
					}
				}
			})
		}
		gen := w.ha.NewProcess("gen", 0)
		gen.Go("sink", func(t *sd.T) {
			ln, _ := t.Listen(9099)
			in, err := ln.Accept()
			if err != nil {
				return
			}
			pkt := make([]byte, 64)
			start := int64(-1)
			for i := 0; i < packets; i++ {
				if _, err := in.RecvFull(pkt); err != nil {
					return
				}
				if start < 0 {
					start = t.Now()
				}
			}
			elapsed = t.Now() - start
			done = true
		})
		gen.Go("src", func(t *sd.T) {
			t.Sleep(100_000)
			out, err := t.Dial("hostA", 9100)
			if err != nil {
				return
			}
			pkt := make([]byte, 64)
			for i := 0; i < packets; i++ {
				if _, err := out.Send(pkt); err != nil {
					return
				}
			}
			for !done {
				out.Readable()
				t.Sleep(20_000)
			}
		})

	case "pipe", "tcp":
		// Build the chain of kernel transports up front, then run one
		// thread per stage.
		mk := func() (hop, hop) { // returns (writer hop, reader hop)
			if kind == "pipe" {
				r, wr := w.a.Kern.Pipe()
				return hop{send: wr.Write}, hop{recv: r.Read}
			}
			// TCP loopback pair via kernel sockets.
			port := w.nextPort()
			l, _ := w.ka.Listen(port)
			var srv, cli hop
			sdone := false
			w.sim.Spawn("pair", func(ctx exec.Context) {
				c, err := l.Accept(ctx)
				if err != nil {
					return
				}
				srv = hop{
					send: func(ctx exec.Context, b []byte) (int, error) { return c.Send(ctx, b) },
					recv: func(ctx exec.Context, b []byte) (int, error) { return c.Recv(ctx, b) },
				}
				sdone = true
			})
			w.sim.Spawn("dial", func(ctx exec.Context) {
				c, err := w.ka.Dial(ctx, "hostA", port)
				if err != nil {
					return
				}
				cli = hop{
					send: func(ctx exec.Context, b []byte) (int, error) { return c.Send(ctx, b) },
					recv: func(ctx exec.Context, b []byte) (int, error) { return c.Recv(ctx, b) },
				}
				for !sdone {
					ctx.Yield()
				}
			})
			// The pair resolves during Run; stages wait for non-nil hops.
			return hop{send: func(ctx exec.Context, b []byte) (int, error) {
					for cli.send == nil {
						ctx.Yield()
					}
					return cli.send(ctx, b)
				}}, hop{recv: func(ctx exec.Context, b []byte) (int, error) {
					for srv.recv == nil {
						ctx.Yield()
					}
					return srv.recv(ctx, b)
				}}
		}
		writers := make([]hop, stages+1)
		readers := make([]hop, stages+1)
		for i := 0; i <= stages; i++ {
			writers[i], readers[i] = mk()
		}
		p := w.a.NewProcess("nfchain", 0)
		for i := 0; i < stages; i++ {
			i := i
			p.Spawn(fmt.Sprintf("nf%d", i), func(ctx exec.Context, _ *host.Thread) {
				pkt := make([]byte, 64)
				for {
					if err := fullRecv(ctx, readers[i], pkt); err != nil {
						return
					}
					binary.LittleEndian.PutUint32(pkt[4:], binary.LittleEndian.Uint32(pkt[4:])+1)
					if _, err := writers[i+1].send(ctx, pkt); err != nil {
						return
					}
				}
			})
		}
		p.Spawn("sink", func(ctx exec.Context, _ *host.Thread) {
			pkt := make([]byte, 64)
			start := int64(-1)
			for i := 0; i < packets; i++ {
				if err := fullRecv(ctx, readers[stages], pkt); err != nil {
					return
				}
				if start < 0 {
					start = ctx.Now()
				}
			}
			elapsed = ctx.Now() - start
			done = true
		})
		p.Spawn("src", func(ctx exec.Context, _ *host.Thread) {
			ctx.Sleep(100_000)
			pkt := make([]byte, 64)
			for i := 0; i < packets; i++ {
				if _, err := writers[0].send(ctx, pkt); err != nil {
					return
				}
			}
		})
	}
	w.sim.Run()
	if !done || elapsed <= 0 {
		return 0
	}
	return float64(packets) / (float64(elapsed) / 1e9)
}

// nextPort hands out experiment-unique kernel ports.
func (w *world) nextPort() uint16 {
	w.portSeq++
	return 20000 + w.portSeq
}

// RedisResult is the §5.3.2 measurement.
type RedisResult struct {
	MeanUs, P1Us, P99Us float64
}

// Redis measures 8-byte GET latency over SocksDirect intra-host, like
// redis-benchmark against an unmodified single-threaded server.
func Redis(requests int) RedisResult {
	w := newWorld()
	var lats []int64
	srv := w.ha.NewProcess("redis", 0)
	cli := w.ha.NewProcess("bench", 1000)
	srv.Go("main", func(t *sd.T) {
		ln, _ := t.Listen(6379)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		store := map[string][]byte{"k": []byte("12345678")}
		buf := make([]byte, 64)
		for {
			n, err := c.Recv(buf)
			if err != nil {
				return
			}
			_ = n
			c.Send(store["k"])
		}
	})
	cli.Go("main", func(t *sd.T) {
		t.Sleep(20_000)
		c, err := t.Dial("hostA", 6379)
		if err != nil {
			return
		}
		buf := make([]byte, 64)
		for i := 0; i < requests; i++ {
			start := t.Now()
			c.Send([]byte("GET k"))
			c.Recv(buf)
			lats = append(lats, t.Now()-start)
		}
	})
	w.sim.Run()
	if len(lats) == 0 {
		return RedisResult{}
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	var sum int64
	for _, v := range lats {
		sum += v
	}
	q := func(p float64) float64 { return float64(lats[int(p*float64(len(lats)-1))]) / 1000 }
	return RedisResult{
		MeanUs: float64(sum) / float64(len(lats)) / 1000,
		P1Us:   q(0.01), P99Us: q(0.99),
	}
}

// AblateToken compares §4.1's three socket-sharing regimes on one queue:
// token fast path (one active thread), per-op take-over (two threads
// alternating), and a mutex-per-op queue.
func AblateToken() (fastOps, takeoverOps, lockedOps float64) {
	// Fast path: plain single-thread stream.
	fastOps = Stream(SysSD, 8, true, 5000).OpsPerSec

	// Take-over per op: two client threads alternate single sends.
	w := newWorld()
	const per = 120
	srv := w.ha.NewProcess("srv", 0)
	cli := w.ha.NewProcess("cli", 0)
	srv.Go("main", func(t *sd.T) {
		ln, _ := t.Listen(7600)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		buf := make([]byte, 8)
		for i := 0; i < 2*per; i++ {
			if _, err := c.Recv(buf); err != nil {
				return
			}
		}
	})
	var rate float64
	cli.Go("t1", func(t *sd.T) {
		t.Sleep(20_000)
		c, err := t.Dial("hostA", 7600)
		if err != nil {
			return
		}
		done2 := false
		turn := 0 // 0 = t1's turn
		var t2Conn *sd.Conn
		cli.Go("t2", func(t2 *sd.T) {
			t2Conn = c.WithT(t2)
			buf := make([]byte, 8)
			for i := 0; i < per; i++ {
				for turn != 1 {
					t2.Yield()
				}
				t2Conn.Send(buf)
				turn = 0
			}
			done2 = true
		})
		buf := make([]byte, 8)
		start := t.Now()
		for i := 0; i < per; i++ {
			for turn != 0 {
				t.Yield()
			}
			c.Send(buf)
			turn = 1
		}
		for !done2 {
			t.Yield()
		}
		rate = float64(2*per) / (float64(t.Now()-start) / 1e9)
	})
	w.sim.Run()
	takeoverOps = rate

	// Mutex-per-op queue: Table 2's atomic SHM queue throughput.
	lockedOps = measureQueue(true).ThroughputOps
	return fastOps, takeoverOps, lockedOps
}
