package main

import "os"

// Each line is Figure 12's 4-stage cell, as `sdbench fig12` prints it.
func Example() {
	run(nil, os.Stdout)
	// Output:
	// 4-stage NF pipeline, 1800 x 64B packets (virtual time):
	//   sd    19.25 M packets/s
	//   pipe   1.26 M packets/s
	//   tcp    0.48 M packets/s
}
