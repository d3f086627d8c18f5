// Command kvstore runs the Redis measurement of §5.3.2: a single-threaded
// key-value server answering GET/SET over a text protocol, and a
// redis-benchmark-style client that reports mean and 1%/99% percentile
// latency for 8-byte GETs. It prints what `sdbench redis` prints.
//
//	go run ./examples/kvstore [requests]
//
// Fleet mode spreads the store over an N-host cluster: -servers hosts each
// run one kv shard (keys hash to shards FNV-style, like a smart client in
// front of a sharded Redis fleet), -clients hosts each run a benchmark
// client that dials every shard and routes per key. GETs then cross the
// routed RDMA fabric instead of host-local shared memory.
//
//	go run ./examples/kvstore -servers 3 -clients 2 [requests]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"

	"socksdirect/internal/experiments"
)

func main() { run(os.Args[1:], os.Stdout) }

func run(args []string, w io.Writer) {
	fs := flag.NewFlagSet("kvstore", flag.ExitOnError)
	servers := fs.Int("servers", 0, "fleet mode: number of kv shard hosts")
	clients := fs.Int("clients", 2, "fleet mode: number of client hosts")
	fs.Parse(args)
	requests := 1500
	if fs.NArg() > 0 {
		if v, err := strconv.Atoi(fs.Arg(0)); err == nil {
			requests = v
		}
	}

	if *servers == 0 {
		report(w, "GET (8B value) over SocksDirect SHM", requests, experiments.Redis(requests))
		fmt.Fprintln(w, "  (paper: Linux mean 38.9 us -> SocksDirect mean 14.1 us)")
		return
	}
	for id, r := range experiments.KVFleet(*servers, *clients, requests) {
		report(w, fmt.Sprintf("bench%d: GET (8B value) across %d RDMA shards", id, *servers), requests, r)
	}
	fmt.Fprintf(w, "fleet: %d shard hosts, %d client hosts, %d GETs per client\n",
		*servers, *clients, requests)
	fmt.Fprintln(w, "  (paper: inter-host 8B RTT 1.7 us over SocksDirect vs 30 us Linux)")
}

func report(w io.Writer, title string, requests int, r experiments.RedisResult) {
	fmt.Fprintf(w, "%s, %d requests:\n", title, requests)
	fmt.Fprintf(w, "  mean %.2f us, p1 %.2f us, p99 %.2f us\n", r.MeanUs, r.P1Us, r.P99Us)
}
