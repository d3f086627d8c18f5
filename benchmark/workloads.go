package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"

	sd "socksdirect"
)

// workload is one row of the ledger. ops is fixed, not timed, so every sim_*
// figure is the same on every repetition, machine and day.
type workload struct {
	name string
	ops  int // measured ops per repetition
	// clients is the number of client threads the ops are split over.
	clients int
	// spansPerOp sizes the traced repetition's span slice.
	spansPerOp int
	// simSlack is the relative difference tolerated between the sim_* values
	// of two repetitions: 0 wherever the simulation is deterministic.
	simSlack float64
	// paper is the figure the paper reports for this shape, in the unit of
	// paperOf (sim_p50_ns or sim_ops_per_s); 0 where the paper gives a curve
	// and no number.
	paper   float64
	paperOf string
	anchor  string
	run     func(r *rep)
}

const port = 7000

// workloads are the ledger's rows. The per-row rationale lives in
// BENCHMARK.json ("why") and README.md.
var workloads = []*workload{
	{name: "intra_pingpong_8B", ops: 400_000, clients: 1, spansPerOp: 6,
		paper: 300, paperOf: "sim_p50_ns", anchor: "Table 2 / Fig 7b", run: pingpong(true)},
	{name: "inter_pingpong_8B", ops: 30_000, clients: 1, spansPerOp: 6,
		paper: 1700, paperOf: "sim_p50_ns", anchor: "Table 2 / Fig 8b", run: pingpong(false)},
	{name: "inter_stream_1KiB", ops: 300_000, clients: 1, spansPerOp: 3,
		anchor: "Fig 8a", run: stream(false, 1024, false)},
	{name: "intra_stream_8KiB", ops: 800_000, clients: 1, spansPerOp: 3,
		anchor: "Fig 7a", run: stream(true, 8192, false)},
	{name: "intra_stream_64KiB_zc", ops: 100_000, clients: 1, spansPerOp: 3,
		anchor: "Fig 7a", run: stream(true, 65536, true)},
	{name: "connect_churn", ops: 5_000, clients: 1, spansPerOp: 10,
		paper: 1.4e6, paperOf: "sim_ops_per_s", anchor: "§6", run: dial(1, 1)},
	// monitor.run walks its monitor channels in Go map order, so with more
	// than one peer per monitor the virtual clock is not bit-reproducible.
	{name: "cluster_dial", ops: 270, clients: 3, spansPerOp: 10, simSlack: 1e-3,
		anchor: "§6 / §4.5.2", run: dial(3, 3)},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// payload derives the repetition's inputs from the seed: the sequence
// number of message 0 and a block of size random bytes. Message i is the
// block with its first 8 bytes replaced by seq0+i.
func (r *rep) payload(size int) (seq0 uint64, block []byte) {
	rng := rand.New(rand.NewSource(int64(r.seed)))
	block = make([]byte, size)
	rng.Read(block)
	return rng.Uint64(), block
}

// headLen is how much of a message the sender rewrites every time: the
// sequence number and the first 8 payload bytes.
const headLen = 16

// stamp writes message i's head into msg: the sequence number, then the
// block's own bytes — with the last one flipped on the one message the
// self-test corrupts.
func (r *rep) stamp(msg, block []byte, seq0 uint64, i int) []byte {
	head := msg
	if len(head) > headLen {
		head = head[:headLen]
	}
	copy(head, block)
	binary.LittleEndian.PutUint64(head, seq0+uint64(i))
	if i == r.corruptAt {
		head[len(head)-1] ^= 0xff
	}
	return head
}

// cluster builds a fresh cluster of the named hosts with every pair of
// monitors peered, at product defaults.
func (r *rep) cluster(names ...string) (*sd.Cluster, []*sd.Host) {
	cl := sd.NewCluster(sd.Config{Seed: r.seed})
	hosts := make([]*sd.Host, len(names))
	for i, n := range names {
		hosts[i] = cl.AddHost(n)
		for _, h := range hosts[:i] {
			sd.PeerMonitors(h, hosts[i])
		}
	}
	return cl, hosts
}

// pair builds the two-thread worlds: server and client on one host (intra)
// or on two. The client sleeps 10 µs first so the listener exists.
func (r *rep) pair(intra bool, server func(t T), client func(t T, serverHost string)) {
	names := []string{"a", "b"}
	if intra {
		names = names[:1]
	}
	cl, hosts := r.cluster(names...)
	sh := hosts[len(hosts)-1]
	sh.NewProcess("server", 0).Go("main", func(t *sd.T) { server(T{t, r.tr.serverLane()}) })
	hosts[0].NewProcess("client", 1000).Go("main", func(t *sd.T) {
		t.Sleep(10 * sd.Microsecond)
		client(T{t, r.tr.clientLane(0, 1)}, names[len(names)-1])
	})
	cl.Run()
}

// pingpong: one flow, 8 B request, 8 B reply. Op = round trip; latency = RTT.
func pingpong(intra bool) func(*rep) {
	return func(r *rep) {
		seq0, block := r.payload(8)
		r.pair(intra, func(t T) {
			ln, err := t.Listen(port)
			if err != nil {
				return
			}
			c, err := ln.Accept()
			if err != nil {
				return
			}
			buf := make([]byte, 8)
			for i := 0; ; i++ {
				t.ln.setOp(i - r.first())
				if _, err := c.Recv(buf); err != nil {
					c.Close()
					return
				}
				if _, err := c.Send(buf); err != nil {
					return
				}
			}
		}, func(t T, serverHost string) {
			c, err := t.Dial(serverHost, port)
			if err != nil {
				return
			}
			req, reply := make([]byte, 8), make([]byte, 8)
			r.drive(t, func(i int, _ bool) int64 {
				r.stamp(req, block, seq0, i)
				t0 := t.Now()
				_, serr := c.Send(req)
				n, rerr := c.Recv(reply)
				rtt := t.Now() - t0
				r.check(serr == nil && rerr == nil && n == 8 && binary.LittleEndian.Uint64(reply) == seq0+uint64(i))
				return rtt
			})
			c.Close()
		})
	}
}

// stream: one flow, the server pumps size-byte messages and the client
// drains them. Op = message delivered; latency = the sender's stamp before
// Send to the receiver's clock after Recv (legal: one virtual clock, one
// simulated thread at a time). zc moves the payload with SendVA/RecvVA out
// of and into simulated memory.
func stream(intra bool, size int, zc bool) func(*rep) {
	return func(r *rep) {
		seq0, block := r.payload(size)
		total := r.first() + r.ops
		stamps := make([]int64, total)
		r.pair(intra, func(t T) {
			ln, err := t.Listen(port)
			if err != nil {
				return
			}
			c, err := ln.Accept()
			if err != nil {
				return
			}
			msg := append([]byte(nil), block...)
			src := t.Alloc(size)
			if zc && t.WriteMem(src, msg) != nil {
				return
			}
			for i := 0; i < total; i++ {
				t.ln.setOp(i - r.first())
				head := r.stamp(msg, block, seq0, i)
				stamps[i] = t.Now()
				if zc {
					// The application writes into its buffer again before
					// each send, as one that produces new data does.
					if t.WriteMem(src, head) != nil {
						return
					}
					_, err = c.SendVA(src, size)
				} else {
					_, err = c.Send(msg)
				}
				if err != nil {
					return
				}
			}
			c.Close()
		}, func(t T, serverHost string) {
			c, err := t.Dial(serverHost, port)
			if err != nil {
				return
			}
			buf := make([]byte, size)
			dst := t.Alloc(size)
			r.drive(t, func(i int, verifyAll bool) int64 {
				var n int
				var err error
				got := buf
				if zc {
					// Timed ops read back the sequence number only.
					n, err = c.RecvVA(dst, size)
					if !verifyAll {
						got = buf[:8]
					}
					if err == nil {
						err = t.ReadMem(dst, got)
					}
				} else {
					n, err = c.Recv(buf)
				}
				lat := t.Now() - stamps[i]
				ok := err == nil && n == size && binary.LittleEndian.Uint64(got) == seq0+uint64(i)
				r.check(ok && (!verifyAll || bytes.Equal(buf[8:], block[8:])))
				return lat
			})
			c.Close()
		})
	}
}

// dial: every client host's one thread dials the server hosts in turn
// (order permuted by the seed): Dial, 8 B echo, Close. Op = one full cycle;
// latency = the Dial. With servers == clients == 1 both processes share one
// host (connect_churn); otherwise every thread has its own host and the
// control plane crosses the fabric (cluster_dial).
func dial(servers, clients int) func(*rep) {
	return func(r *rep) {
		seq0, block := r.payload(8)
		var names []string
		if servers == 1 && clients == 1 {
			names = []string{"a"}
		} else {
			for i := 0; i < servers+clients; i++ {
				names = append(names, fmt.Sprintf("h%d", i))
			}
		}
		cl, hosts := r.cluster(names...)
		for s := 0; s < servers; s++ {
			hosts[s].NewProcess("server", 0).Go("main", func(st *sd.T) {
				t := T{st, r.tr.serverLane()}
				ln, err := t.Listen(port)
				if err != nil {
					return
				}
				buf := make([]byte, 8)
				for {
					c, err := ln.Accept()
					if err != nil {
						return
					}
					if _, err := c.Recv(buf); err == nil {
						t.ln.setOp(int(int64(binary.LittleEndian.Uint64(buf) - seq0)))
						if _, err := c.Send(buf); err == nil {
							c.Recv(buf) // the client's close
						}
					}
					c.Close()
					t.ln.setOp(-1)
				}
			})
		}
		per, warmPer := r.ops/clients, r.warm/clients
		ready, started := 0, false
		for c := 0; c < clients; c++ {
			c := c
			hosts[len(hosts)-clients+c].NewProcess("client", 1000).Go("main", func(ct *sd.T) {
				t := T{ct, r.tr.clientLane(c, clients)}
				t.Sleep(10 * sd.Microsecond)
				req, reply := make([]byte, 8), make([]byte, 8)
				// cycle runs op id against the k-th server of this client's
				// round; ids from r.ops up are warm-up.
				cycle := func(id, k int) int64 {
					r.stamp(req, block, seq0, id)
					t0 := t.Now()
					conn, err := t.Dial(names[(c+k)%servers], port)
					lat := t.Now() - t0
					if err != nil {
						r.check(false)
						return lat
					}
					_, serr := conn.Send(req)
					n, rerr := conn.Recv(reply)
					cerr := conn.Close()
					r.check(serr == nil && rerr == nil && cerr == nil && n == 8 &&
						binary.LittleEndian.Uint64(reply) == seq0+uint64(id))
					return lat
				}
				for k := 0; k < warmPer; k++ {
					cycle(r.ops+k, k)
				}
				// Client 0 opens the window once every client has warmed
				// up; the others poll for it on the virtual clock.
				ready++
				if c == 0 {
					for ready < clients {
						t.Sleep(sd.Microsecond)
					}
					runtime.GC()
					for k := 0; k < refill; k++ {
						cycle(r.ops+k, k)
					}
					r.open(t)
					started = true
				}
				for !started {
					t.Sleep(sd.Microsecond)
				}
				for k := 0; k < per; k++ {
					id := c + k*clients
					lat := cycle(id, k)
					r.opDone(t, lat)
				}
			})
		}
		cl.Run()
	}
}
