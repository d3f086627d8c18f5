package main

import (
	"errors"
	"os"
	"testing"

	sd "socksdirect"
	"socksdirect/internal/experiments"
)

// The single-host numbers are what `sdbench redis` prints.
func Example() {
	run(nil, os.Stdout)
	// Output:
	// GET (8B value) over SocksDirect SHM, 1500 requests:
	//   mean 0.11 us, p1 0.10 us, p99 0.14 us
	//   (paper: Linux mean 38.9 us -> SocksDirect mean 14.1 us)
}

func Example_fleet() {
	run([]string{"-servers", "3", "-clients", "2"}, os.Stdout)
	// Output:
	// bench0: GET (8B value) across 3 RDMA shards, 1500 requests:
	//   mean 2.24 us, p1 2.12 us, p99 2.62 us
	// bench1: GET (8B value) across 3 RDMA shards, 1500 requests:
	//   mean 2.24 us, p1 2.12 us, p99 2.64 us
	// fleet: 3 shard hosts, 2 client hosts, 1500 GETs per client
	//   (paper: inter-host 8B RTT 1.7 us over SocksDirect vs 30 us Linux)
}

// TestServerStopsTwice: the server answers until its accept deadline,
// then closes its listener twice. A dial after that is refused, and the
// run ends.
func TestServerStopsTwice(t *testing.T) {
	cl := sd.NewCluster(sd.Defaults())
	box := cl.AddHost("cachebox")
	stopped := false
	box.NewProcess("kv-server", 0).Go("main", func(st *sd.T) {
		ln, err := st.Listen(6379)
		if err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		ln.SetDeadline(st.Now() + 200*sd.Microsecond)
		experiments.KVServe(st, ln)
		ln.Close()
		ln.Close()
		stopped = true
	})
	var got []byte
	redial := errors.New("no dial after the stop")
	box.NewProcess("kv-client", 1000).Go("main", func(ct *sd.T) {
		ct.Sleep(10 * sd.Microsecond)
		c, err := ct.Dial("cachebox", 6379)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		c.Send([]byte("SET k 12345678\nGET k\nGET nokey\n"))
		buf := make([]byte, 64)
		for len(got) < len("OK\nVALUE 12345678\nNIL\n") {
			n, err := c.Recv(buf)
			if err != nil {
				t.Errorf("recv: %v", err)
				return
			}
			got = append(got, buf[:n]...)
		}
		c.Close()
		for !stopped {
			ct.Sleep(10 * sd.Microsecond)
		}
		_, redial = ct.Dial("cachebox", 6379)
	})
	cl.Run()
	if string(got) != "OK\nVALUE 12345678\nNIL\n" {
		t.Errorf("replies %q", got)
	}
	if !stopped {
		t.Fatal("the server did not stop")
	}
	if !errors.Is(redial, sd.ErrNoListener) && !errors.Is(redial, sd.ECONNREFUSED) {
		t.Errorf("dial after the listener closed twice: want connection refused, got %v", redial)
	}
}
