// Command nfchain runs the network-function pipeline of §5.3.4
// (Figure 12): 64-byte packets enter from a generator, flow through a
// chain of NF stages on one host — each reading its input and writing its
// output, here SocksDirect connections, Linux pipes or Linux sockets —
// and return to the generator, which checks every packet's hop count and
// reports pipeline throughput. Each line it prints is a cell of
// `sdbench fig12`.
//
//	go run ./examples/nfchain [stages] [packets]
package main

import (
	"fmt"
	"io"
	"os"
	"strconv"

	"socksdirect/internal/experiments"
)

func main() { run(os.Args[1:], os.Stdout) }

func run(args []string, w io.Writer) {
	stages, packets := 4, experiments.Fig12Packets
	if len(args) > 0 {
		if v, err := strconv.Atoi(args[0]); err == nil {
			stages = v
		}
	}
	if len(args) > 1 {
		if v, err := strconv.Atoi(args[1]); err == nil {
			packets = v
		}
	}
	fmt.Fprintf(w, "%d-stage NF pipeline, %d x 64B packets (virtual time):\n", stages, packets)
	for _, kind := range []string{"sd", "pipe", "tcp"} {
		pps, err := experiments.NFChain(kind, stages, packets)
		if err != nil {
			fmt.Fprintln(w, err)
			continue
		}
		fmt.Fprintf(w, "  %-4s %6.2f M packets/s\n", kind, pps/1e6)
	}
}
