package main

import "os"

// Each line is Figure 11's 512 B cell for its system, as `sdbench fig11`
// prints it.
func Example() {
	run(nil, os.Stdout)
	// Output:
	// HTTP keep-alive over SocksDirect, 512 B responses: mean latency 2.47 us
	// HTTP keep-alive over Linux, 512 B responses: mean latency 41.89 us
}
