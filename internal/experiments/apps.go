package experiments

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"

	sd "socksdirect"
	"socksdirect/internal/exec"
	"socksdirect/internal/host"
	"socksdirect/internal/ksocket"
)

// The application studies of §5.3, each written once. The figures drive
// them over every system they compare, and examples/httpd, examples/kvstore
// and examples/nfchain run them as they are. Like the paper's unmodified
// applications, each study's code sees only endpointAPI, not the transport
// under it. Parsing would charge no virtual time, so the HTTP study frames
// its messages with a length header instead of HTTP's text headers.

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
		sdSeries.Add(float64(size), HTTPLatency(SysSD, size)/1000)
		lxSeries.Add(float64(size), HTTPLatency(SysLinux, size)/1000)
	}
	return []*Series{sdSeries, lxSeries}
}

// HTTPLatency is one cell of Figure 11: the mean latency in ns of a
// keep-alive request whose response carries respBytes, through the proxy
// over SysSD or SysLinux; 0 if a request failed. A request is 16 bytes; a
// response is an 8-byte length header and the body (Content-Length
// framing). The mean is over 25 requests, 6 from 32 KiB up.
func HTTPLatency(sys System, respBytes int) float64 {
	w := newWorld()
	rounds := 25
	if respBytes >= 1<<15 {
		rounds = 6
	}
	var mean float64
	if sys == SysSD {
		up := w.hb.NewProcess("upstream", 0)
		px := w.hb.NewProcess("proxy", 0)
		gen := w.ha.NewProcess("gen", 0)
		up.Go("main", func(t *sd.T) {
			ln, _ := t.Listen(9000)
			c, err := ln.Accept()
			if err != nil {
				return
			}
			httpUpstream(connAPI(c), respBytes)
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
			httpProxy(connAPI(cc), connAPI(upc), respBytes)
		})
		gen.Go("main", func(t *sd.T) {
			t.Sleep(50_000)
			c, err := t.Dial("hostB", 80)
			if err != nil {
				return
			}
			mean = httpClient(t.Now, connAPI(c), respBytes, rounds)
		})
	} else {
		lnUp, _ := w.kb.Listen(9000)
		lnPx, _ := w.kb.Listen(80)
		w.sim.Spawn("upstream", func(ctx exec.Context) {
			c, err := lnUp.Accept(ctx)
			if err != nil {
				return
			}
			httpUpstream(ksAPI(ctx, c), respBytes)
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
			httpProxy(ksAPI(ctx, cc), ksAPI(ctx, upc), respBytes)
		})
		w.sim.Spawn("gen", func(ctx exec.Context) {
			ctx.Sleep(50_000)
			c, err := w.ka.Dial(ctx, "hostB", 80)
			if err != nil {
				return
			}
			mean = httpClient(ctx.Now, ksAPI(ctx, c), respBytes, rounds)
		})
	}
	w.sim.Run()
	return mean
}

// httpUpstream is the response generator: it answers every request with
// a respBytes body.
func httpUpstream(c endpointAPI, respBytes int) {
	req := make([]byte, 16)
	body := make([]byte, respBytes)
	hdr := binary.LittleEndian.AppendUint64(nil, uint64(respBytes))
	for {
		if _, err := recvFull(c, req); err != nil {
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

// httpProxy is the reverse proxy: it forwards each client request over
// its one keep-alive upstream connection and relays the response back.
func httpProxy(client, up endpointAPI, respBytes int) {
	req := make([]byte, 16)
	hdr := make([]byte, 8)
	body := make([]byte, respBytes)
	for {
		if _, err := recvFull(client, req); err != nil {
			return
		}
		if _, err := up.send(req); err != nil {
			return
		}
		if _, err := recvFull(up, hdr); err != nil {
			return
		}
		n := int(binary.LittleEndian.Uint64(hdr))
		if n > len(body) {
			return
		}
		if _, err := recvFull(up, body[:n]); err != nil {
			return
		}
		client.send(hdr)
		client.send(body[:n])
	}
}

// httpClient is the request generator: after one warm-up request it
// returns the mean latency of rounds requests, or 0 if one failed.
func httpClient(now func() int64, c endpointAPI, respBytes, rounds int) float64 {
	req := make([]byte, 16)
	hdr := make([]byte, 8)
	body := make([]byte, respBytes)
	round := func() bool {
		c.send(req)
		if _, err := recvFull(c, hdr); err != nil || binary.LittleEndian.Uint64(hdr) != uint64(respBytes) {
			return false
		}
		_, err := recvFull(c, body)
		return err == nil
	}
	if !round() {
		return 0
	}
	start := now()
	for range rounds {
		if !round() {
			return 0
		}
	}
	return float64(now()-start) / float64(rounds)
}

// Fig12Packets is how many packets one Figure 12 cell pushes through the
// chain.
const Fig12Packets = 1800

// Fig12 regenerates the NF pipeline: throughput of 64-byte packets through
// an n-stage chain for SocksDirect sockets, Linux pipes, Linux TCP
// sockets, and a NetBricks-style function-call pipeline upper bound.
func Fig12(stages []int) []*Series {
	sdS := &Series{Name: "SocksDirect"}
	pipeS := &Series{Name: "Linux pipe"}
	tcpS := &Series{Name: "Linux socket"}
	nbS := &Series{Name: "NetBricks"}
	for _, n := range stages {
		mpps := func(kind string) float64 {
			pps, _ := NFChain(kind, n, Fig12Packets)
			return pps / 1e6
		}
		sdS.Add(float64(n), mpps("sd"))
		pipeS.Add(float64(n), mpps("pipe"))
		tcpS.Add(float64(n), mpps("tcp"))
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

// nfPktSize is Figure 12's packet: a 4-byte sequence number, a 4-byte hop
// counter, and padding.
const nfPktSize = 64

// NFChain is one cell of Figure 12: packets/s through a chain of `stages`
// network functions on one host, linked by kind "sd" (SocksDirect
// connections, one process per stage), "pipe" or "tcp" (Linux pipes or
// loopback sockets between the threads of one process). It fails unless
// every packet comes back having crossed exactly `stages` hops.
func NFChain(kind string, stages, packets int) (float64, error) {
	w := newWorld()
	var elapsed int64
	fail := errors.New("the sink received nothing")
	if kind == "sd" {
		// Stage i listens on 9100+i; the generator closes the loop.
		done := false
		for i := 0; i < stages; i++ {
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
				nfStage(connAPI(in), connAPI(out))
			})
		}
		gen := w.ha.NewProcess("gen", 0)
		gen.Go("sink", func(t *sd.T) {
			defer func() { done = true }()
			ln, _ := t.Listen(9099)
			in, err := ln.Accept()
			if err != nil {
				return
			}
			elapsed, fail = nfSink(t.Now, connAPI(in), stages, packets)
		})
		gen.Go("src", func(t *sd.T) {
			t.Sleep(100_000)
			out, err := t.Dial("hostA", 9100)
			if err != nil {
				return
			}
			nfSource(connAPI(out), packets)
			for !done {
				out.Readable()
				t.Sleep(20_000)
			}
		})
	} else {
		// Link i feeds stage i; link `stages` returns to the sink. The
		// links are built up front; a TCP link's ends wait for its
		// connection, which resolves during Run.
		links := make([]kernLink, stages+1)
		for i := range links {
			links[i] = w.kernLink(kind, 20001+uint16(i))
		}
		p := w.a.NewProcess("nfchain", 0)
		for i := 0; i < stages; i++ {
			p.Spawn(fmt.Sprintf("nf%d", i), func(ctx exec.Context, _ *host.Thread) {
				nfStage(links[i].api(ctx), links[i+1].api(ctx))
			})
		}
		p.Spawn("sink", func(ctx exec.Context, _ *host.Thread) {
			elapsed, fail = nfSink(ctx.Now, links[stages].api(ctx), stages, packets)
		})
		p.Spawn("src", func(ctx exec.Context, _ *host.Thread) {
			ctx.Sleep(100_000)
			nfSource(links[0].api(ctx), packets)
		})
	}
	w.sim.Run()
	if fail != nil {
		return 0, fmt.Errorf("%d-stage %s chain: %w", stages, kind, fail)
	}
	if elapsed <= 0 {
		return 0, nil
	}
	return float64(packets) / (float64(elapsed) / 1e9), nil
}

// nfStage is one network function: it bumps each packet's hop counter
// and forwards the packet.
func nfStage(in, out endpointAPI) {
	pkt := make([]byte, nfPktSize)
	for {
		if _, err := recvFull(in, pkt); err != nil {
			return
		}
		binary.LittleEndian.PutUint32(pkt[4:], binary.LittleEndian.Uint32(pkt[4:])+1)
		if _, err := out.send(pkt); err != nil {
			return
		}
	}
}

// nfSource numbers and sends the packets.
func nfSource(out endpointAPI, packets int) {
	pkt := make([]byte, nfPktSize)
	for i := range packets {
		binary.LittleEndian.PutUint32(pkt, uint32(i))
		if _, err := out.send(pkt); err != nil {
			return
		}
	}
}

// nfSink receives the packets back, checks each one's hop count, and
// returns the time from the first packet's arrival to the last's.
func nfSink(now func() int64, in endpointAPI, stages, packets int) (int64, error) {
	pkt := make([]byte, nfPktSize)
	start := int64(-1)
	for range packets {
		if _, err := recvFull(in, pkt); err != nil {
			return 0, err
		}
		if start < 0 {
			start = now()
		}
		if hops := binary.LittleEndian.Uint32(pkt[4:]); int(hops) != stages {
			return 0, fmt.Errorf("packet %d crossed %d hops, want %d",
				binary.LittleEndian.Uint32(pkt), hops, stages)
		}
	}
	return now() - start, nil
}

// kernLink is one link of a kernel NF chain: a pipe or a loopback TCP
// connection, each end used by the thread that passes its own context.
type kernLink struct {
	send, recv func(exec.Context, []byte) (int, error)
}

func (l kernLink) api(ctx exec.Context) endpointAPI {
	return endpointAPI{
		send: func(b []byte) (int, error) { return l.send(ctx, b) },
		recv: func(b []byte) (int, error) { return l.recv(ctx, b) },
	}
}

// kernLink builds a pipe, or a TCP connection on port whose two ends
// wait until it is set up.
func (w *world) kernLink(kind string, port uint16) kernLink {
	if kind == "pipe" {
		r, wr := w.a.Kern.Pipe()
		return kernLink{send: wr.Write, recv: r.Read}
	}
	l, _ := w.ka.Listen(port)
	var srv, cli *ksocket.Socket
	w.sim.Spawn("pair", func(ctx exec.Context) { srv, _ = l.Accept(ctx) })
	w.sim.Spawn("dial", func(ctx exec.Context) { cli, _ = w.ka.Dial(ctx, "hostA", port) })
	return kernLink{
		send: func(ctx exec.Context, b []byte) (int, error) {
			for cli == nil {
				ctx.Yield()
			}
			return cli.Send(ctx, b)
		},
		recv: func(ctx exec.Context, b []byte) (int, error) {
			for srv == nil {
				ctx.Yield()
			}
			return srv.Recv(ctx, b)
		},
	}
}

// RedisResult is the §5.3.2 measurement.
type RedisResult struct {
	MeanUs, P1Us, P99Us float64
}

// Redis measures 8-byte GET latency over SocksDirect intra-host, like
// redis-benchmark against an unmodified single-threaded server: KVServe
// and one client, which sets a key and then gets it `requests` times.
func Redis(requests int) RedisResult {
	w := newWorld()
	return kvStudy(w.cl, []*sd.Host{w.ha}, []*sd.Host{w.ha}, 1, requests)[0]
}

// KVFleet spreads the store over a cluster: `servers` hosts each run one
// KVServe shard, and `clients` hosts each run a benchmark client that
// routes each of its 64 keys to a shard (a smart client in front of a
// sharded Redis fleet). GETs cross the routed RDMA fabric. It returns one
// result per client.
func KVFleet(servers, clients, requests int) []RedisResult {
	cl := sd.NewCluster(sd.Defaults())
	hosts := func(n int, name string) []*sd.Host {
		hs := make([]*sd.Host, n)
		for i := range hs {
			hs[i] = cl.AddHost(fmt.Sprintf(name, i))
		}
		return hs
	}
	srv, cli := hosts(servers, "kv%d"), hosts(clients, "bench%d")
	for _, c := range cli {
		for _, s := range srv {
			sd.PeerMonitors(c, s)
		}
	}
	return kvStudy(cl, srv, cli, 64, requests)
}

// kvStudy runs KVServe on every server host and a benchmark client on
// every client host, which dials every server, sets `keys` keys of its
// own and times `requests` GETs; it returns each client's result.
func kvStudy(cl *sd.Cluster, servers, clients []*sd.Host, keys, requests int) []RedisResult {
	for _, h := range servers {
		h.NewProcess("kv-server", 0).Go("main", func(t *sd.T) {
			if ln, err := t.Listen(6379); err == nil {
				KVServe(t, ln)
			}
		})
	}
	res := make([]RedisResult, len(clients))
	for id, h := range clients {
		h.NewProcess("kv-bench", 1000).Go("main", func(t *sd.T) {
			t.Sleep(20_000)
			shards := make([]*sd.Conn, len(servers))
			for i, s := range servers {
				c, err := t.Dial(s.H.Name, 6379)
				if err != nil {
					return
				}
				shards[i] = c
			}
			names := make([]string, keys)
			for k := range names {
				names[k] = fmt.Sprintf("bench%d-key%02d", id, k)
			}
			res[id] = kvBench(t, shards, names, requests)
		})
	}
	cl.Run()
	return res
}

// KVServe answers the GET/SET line protocol on ln until Accept fails, one
// thread per connection, all sharing one store:
//
//	GET key\n   -> VALUE <v>\n | NIL\n
//	SET key v\n -> OK\n
func KVServe(t *sd.T, ln *sd.Listener) {
	store := map[string][]byte{}
	for {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		t.Pr.Go("conn", func(ct *sd.T) { kvServeConn(c.WithT(ct), store) })
	}
}

func kvServeConn(c *sd.Conn, store map[string][]byte) {
	buf := make([]byte, 512)
	var pending []byte
	for {
		n, err := c.Recv(buf)
		if err != nil {
			return
		}
		pending = append(pending, buf[:n]...)
		for {
			end := bytes.IndexByte(pending, '\n')
			if end < 0 {
				break
			}
			fields := bytes.Fields(pending[:end])
			switch {
			case len(fields) == 3 && string(fields[0]) == "SET":
				store[string(fields[1])] = append([]byte(nil), fields[2]...)
				c.Send([]byte("OK\n"))
			case len(fields) == 2 && string(fields[0]) == "GET":
				if v, ok := store[string(fields[1])]; ok {
					c.Send(append(append([]byte("VALUE "), v...), '\n'))
				} else {
					c.Send([]byte("NIL\n"))
				}
			default:
				c.Send([]byte("ERR\n"))
			}
			pending = append(pending[:0], pending[end+1:]...)
		}
	}
}

// kvBench sets each key to an 8-byte value on its shard, then times
// `requests` GETs over the keys in turn. A wrong answer yields the zero
// result.
func kvBench(t *sd.T, shards []*sd.Conn, keys []string, requests int) RedisResult {
	buf := make([]byte, 512)
	do := func(key, cmd string) string {
		h := fnv.New32a()
		h.Write([]byte(key))
		c := shards[int(h.Sum32())%len(shards)]
		c.Send([]byte(cmd + "\n"))
		n, err := c.Recv(buf)
		if err != nil {
			return ""
		}
		return string(bytes.TrimSpace(buf[:n]))
	}
	for _, k := range keys {
		if do(k, "SET "+k+" 12345678") != "OK" {
			return RedisResult{}
		}
	}
	lats := make([]int64, requests)
	for i := range lats {
		key := keys[i%len(keys)]
		start := t.Now()
		if do(key, "GET "+key) != "VALUE 12345678" {
			return RedisResult{}
		}
		lats[i] = t.Now() - start
	}
	if len(lats) == 0 {
		return RedisResult{}
	}
	slices.Sort(lats)
	var sum int64
	for _, v := range lats {
		sum += v
	}
	q := func(p float64) float64 { return float64(lats[int(p*float64(len(lats)-1))]) / 1000 }
	return RedisResult{MeanUs: float64(sum) / float64(len(lats)) / 1000, P1Us: q(0.01), P99Us: q(0.99)}
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
