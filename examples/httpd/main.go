// Command httpd runs the paper's Nginx scenario (§5.3.1, Figure 11): an
// HTTP request generator on one host talks to a reverse proxy on another
// host; the proxy forwards each request to a response generator colocated
// on its own host. The proxy's upstream leg is therefore an intra-host
// connection and the downstream leg an inter-host one. The same program
// runs over SocksDirect and over Linux sockets, and each line it prints is
// a cell of `sdbench fig11`.
//
//	go run ./examples/httpd [responseBytes]
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
	respBytes := 512
	if len(args) > 0 {
		if v, err := strconv.Atoi(args[0]); err == nil {
			respBytes = v
		}
	}
	for _, sys := range []experiments.System{experiments.SysSD, experiments.SysLinux} {
		fmt.Fprintf(w, "HTTP keep-alive over %s, %d B responses: mean latency %.2f us\n",
			sys, respBytes, experiments.HTTPLatency(sys, respBytes)/1000)
	}
}
