package socksdirect_test

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"

	sd "socksdirect"
	"socksdirect/internal/core"
	"socksdirect/internal/exec"
	"socksdirect/internal/host"
	"socksdirect/internal/mem"
	"socksdirect/internal/monitor"
	"socksdirect/internal/obs"
)

func TestPublicAPIQuickstartShape(t *testing.T) {
	cl := newCluster(t)
	h := cl.AddHost("alpha")
	srv := h.NewProcess("server", 0)
	cli := h.NewProcess("client", 1000)

	srv.Go("main", func(t2 *sd.T) {
		ln, err := t2.Listen(80)
		if err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		c, err := ln.Accept()
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		buf := make([]byte, 64)
		n, err := c.Recv(buf)
		if err != nil {
			t.Errorf("recv: %v", err)
			return
		}
		c.Send(bytes.ToUpper(buf[:n]))
	})
	var got string
	cli.Go("main", func(t2 *sd.T) {
		t2.Sleep(10 * sd.Microsecond)
		c, err := t2.Dial("alpha", 80)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		if c.Fallback() {
			t.Error("intra-host dial took the fallback path")
		}
		c.Send([]byte("quickstart"))
		buf := make([]byte, 64)
		n, _ := c.Recv(buf)
		got = string(buf[:n])
		c.Close()
	})
	cl.Run()
	if got != "QUICKSTART" {
		t.Fatalf("got %q", got)
	}
}

func TestPublicAPIInterHostAndZeroCopy(t *testing.T) {
	cl := newCluster(t)
	a := cl.AddHost("alpha")
	b := cl.AddHost("beta")
	sd.PeerMonitors(a, b)
	srv := b.NewProcess("server", 0)
	cli := a.NewProcess("client", 0)

	const n = 64 * 1024
	payload := bytes.Repeat([]byte("zeta"), n/4)
	var got []byte
	srv.Go("main", func(t2 *sd.T) {
		ln, _ := t2.Listen(90)
		c, err := ln.Accept()
		if err != nil {
			t.Errorf("accept: %v", err)
			return
		}
		dst := t2.Alloc(n)
		rec := 0
		for rec < n {
			m, err := c.RecvVA(dst+mem.VAddr(rec), n-rec)
			if err != nil {
				t.Errorf("recvVA: %v", err)
				return
			}
			rec += m
		}
		got = make([]byte, n)
		t2.ReadMem(dst, got)
	})
	cli.Go("main", func(t2 *sd.T) {
		t2.Sleep(10 * sd.Microsecond)
		c, err := t2.Dial("beta", 90)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		src := t2.Alloc(n)
		t2.WriteMem(src, payload)
		if _, err := c.SendVA(src, n); err != nil {
			t.Errorf("sendVA: %v", err)
		}
	})
	cl.Run()
	if !bytes.Equal(got, payload) {
		t.Fatal("inter-host zero copy corrupted payload")
	}
}

func TestPublicAPIForkAndLegacyPeer(t *testing.T) {
	cl := newCluster(t)
	a := cl.AddHost("alpha")
	legacy := cl.AddLegacyHost("oldbox")

	// Legacy kernel TCP server.
	kl, err := legacy.KS.Listen(700)
	if err != nil {
		t.Fatal(err)
	}
	lp := legacy.H.NewProcess("legacy", 0)
	lp.Spawn("srv", func(ctx exec.Context, _ *host.Thread) {
		c, err := kl.Accept(ctx)
		if err != nil {
			return
		}
		buf := make([]byte, 16)
		n, _ := c.Recv(ctx, buf)
		c.Send(ctx, buf[:n])
	})

	cli := a.NewProcess("client", 0)
	var echoed string
	var forkOK bool
	cli.Go("main", func(t2 *sd.T) {
		// Fallback dial to the legacy box.
		c, err := t2.Dial("oldbox", 700)
		if err != nil {
			t.Errorf("dial legacy: %v", err)
			return
		}
		if !c.Fallback() {
			t.Error("dial to monitor-less host did not fall back")
		}
		c.Send([]byte("old"))
		buf := make([]byte, 16)
		n, _ := c.Recv(buf)
		echoed = string(buf[:n])

		// Fork through the public API.
		child, err := t2.Fork("child")
		if err != nil {
			t.Errorf("fork: %v", err)
			return
		}
		done := false
		child.Go("cmain", func(t3 *sd.T) {
			forkOK = t3.Pr.P.Parent != nil
			done = true
		})
		for !done {
			t2.Yield()
		}
	})
	cl.Run()
	if echoed != "old" {
		t.Fatalf("legacy echo got %q", echoed)
	}
	if !forkOK {
		t.Fatal("fork bookkeeping broken")
	}
}

// newCluster builds a cluster whose end is checked: once the test is over,
// Cluster.End tears it down through the crash path and must leave nothing.
func newCluster(t *testing.T) *sd.Cluster {
	cl := sd.NewCluster(sd.Defaults())
	t.Cleanup(func() {
		if left := cl.End(); left != (monitor.Census{}) {
			t.Errorf("the cluster ends holding %+v", left)
		}
	})
	return cl
}

// echoServe accepts n connections one after another on port and echoes
// each until its client closes.
func echoServe(t *testing.T, p *sd.Process, port uint16, n int) {
	p.Go("srv", func(t2 *sd.T) {
		ln, err := t2.Listen(port)
		if err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		defer ln.Close()
		buf := make([]byte, 2048)
		for i := 0; i < n; i++ {
			c, err := ln.Accept()
			if err != nil {
				t.Errorf("accept %d: %v", i, err)
				return
			}
			for {
				m, err := c.Recv(buf)
				if err != nil {
					break
				}
				if _, err := c.Send(buf[:m]); err != nil {
					break
				}
			}
			c.Close()
		}
	})
}

// worldRun is how a runWorld went: whether the client got to the end, and
// the Sim's final virtual time, Resumes and Played.
type worldRun struct {
	done                 bool
	end, resumes, played int64
}

// runWorld builds one two-host cluster and runs, from one client thread:
// two dials to a listener that never accepts, an intra-host ping-pong, a
// cross-host dial and echo, then 200 intra-host dial/echo/close cycles and
// a second cross-host echo. Every byte is checked, and the census after
// the cycles must equal the census before them. World 1 caps its hosts'
// backlogs at one and their rings at 16 KiB, world 0 keeps the defaults:
// the first dial pins the backlog slot in both, and the second is refused
// in world 1 only.
func runWorld(t *testing.T, cl *sd.Cluster, w int) worldRun {
	const (
		port      = 80
		sinkPort  = 81
		pingPongs = 100
		cycles    = 200
	)
	a := cl.AddHost(fmt.Sprintf("w%d-alpha", w))
	b := cl.AddHost(fmt.Sprintf("w%d-beta", w))
	if w == 1 {
		lim := host.Limits{Backlog: 1, RingCap: 16 << 10}
		a.H.Limits, b.H.Limits = lim, lim
	}
	sd.PeerMonitors(a, b)
	echoServe(t, a.NewProcess("server", 0), port, 1+cycles)
	echoServe(t, b.NewProcess("server", 0), port, 2)
	a.NewProcess("sink", 0).Go("ln", func(t2 *sd.T) {
		ln, err := t2.Listen(sinkPort)
		if err != nil {
			t.Errorf("world %d: listen: %v", w, err)
			return
		}
		t2.Sleep(3 * sd.Millisecond) // past both dials' deadlines
		ln.Close()
	})
	done := false
	a.NewProcess("client", 0).Go("cli", func(t2 *sd.T) {
		t2.Sleep(10 * sd.Microsecond)
		if _, err := t2.DialDeadline(a.H.Name, sinkPort, t2.Now()+sd.Millisecond); !errors.Is(err, sd.ETIMEDOUT) {
			t.Errorf("world %d: pinning dial: %v, want ETIMEDOUT", w, err)
		}
		want := sd.ETIMEDOUT // dispatched, and never accepted
		if w == 1 {
			want = sd.ECONNREFUSED
		}
		if _, err := t2.DialDeadline(a.H.Name, sinkPort, t2.Now()+sd.Millisecond); !errors.Is(err, want) {
			t.Errorf("world %d: second dial: %v, want %v", w, err, want)
		}
		echo := func(dst string, msg []byte, rounds int) bool {
			c, err := t2.Dial(dst, port)
			if err != nil {
				t.Errorf("world %d: dial %s: %v", w, dst, err)
				return false
			}
			defer c.Close()
			got := make([]byte, len(msg))
			for r := 0; r < rounds; r++ {
				msg[0] = byte(r)
				if _, err := c.Send(msg); err != nil {
					t.Errorf("world %d: send to %s: %v", w, dst, err)
					return false
				}
				if n, err := c.RecvFull(got); err != nil || !bytes.Equal(got[:n], msg) {
					t.Errorf("world %d: echo from %s: %q, %v", w, dst, got[:n], err)
					return false
				}
			}
			return true
		}
		small, big := []byte("8 bytes!"), bytes.Repeat([]byte("0123456789abcdef"), 64)
		if !echo(a.H.Name, small, pingPongs) || !echo(b.H.Name, big, 1) {
			return
		}
		// The process-wide columns are left out: another world may run beside
		// this one.
		hosts := func() monitor.Census {
			c := monitor.TakeCensus(a.H, b.H)
			c.Flows, c.Bufs = 0, 0
			return c
		}
		t2.Sleep(5 * sd.Millisecond) // both closes have settled
		base := hosts()
		for i := 0; i < cycles; i++ {
			if !echo(a.H.Name, small, 1) {
				return
			}
		}
		if !echo(b.H.Name, big, 1) {
			return
		}
		t2.Sleep(5 * sd.Millisecond)
		if end := hosts(); end != base {
			t.Errorf("world %d: census %+v after the cycles, %+v before", w, end, base)
		}
		done = true
	})
	end := cl.Run()
	return worldRun{done, end, cl.Sim().Resumes(), cl.Sim().Played()}
}

// TestClustersRunConcurrently runs two clusters on two goroutines at once
// (ARCHITECTURE.md "A Sim owns its state"): under -race, any state two
// worlds reach without synchronisation fails it. A world owns its host
// numbers and its limits, so each run together must match its run alone,
// and world 1's backlog cap refuses a dial that world 0 dispatches.
func TestClustersRunConcurrently(t *testing.T) {
	var solo, both [2]worldRun
	for w := range solo {
		solo[w] = runWorld(t, newCluster(t), w)
	}
	// Both are built before either runs: each end-of-world census counts
	// the process-wide columns from when its cluster was built.
	cls := [2]*sd.Cluster{newCluster(t), newCluster(t)}
	var wg sync.WaitGroup
	for w := range both {
		wg.Add(1)
		go func() {
			defer wg.Done()
			both[w] = runWorld(t, cls[w], w)
		}()
	}
	wg.Wait()
	for w, r := range both {
		if !r.done {
			t.Errorf("world %d did not finish", w)
		}
		if r != solo[w] {
			t.Errorf("world %d: %+v run together, %+v alone", w, r, solo[w])
		}
	}
}

// TestPublicAPIStaleConnAfterReuse: a Conn kept after Close stays closed
// when its connection's segment is reused. On one host and across two, a
// connection is closed cleanly and the next dial builds on the segment it
// released (on one host the monitor's free list shows the draw; across
// hosts the dialer's list is last in, first out). The stale Conn's Send,
// Recv — past a receive deadline too — and second Close fail as on any
// closed socket, while the new connection echoes byte-exact between the
// pokes.
func TestPublicAPIStaleConnAfterReuse(t *testing.T) {
	for _, inter := range []bool{false, true} {
		name := "intra"
		if inter {
			name = "inter"
		}
		t.Run(name, func(t *testing.T) {
			cl := newCluster(t)
			a := cl.AddHost("alpha")
			srvHost, dst := a, "alpha"
			if inter {
				srvHost, dst = cl.AddHost("beta"), "beta"
				sd.PeerMonitors(a, srvHost)
			}
			echoServe(t, srvHost.NewProcess("server", 0), 80, 2)
			pattern := bytes.Repeat([]byte("stale conn "), 150)
			a.NewProcess("client", 1000).Go("main", func(t2 *sd.T) {
				t2.Sleep(10 * sd.Microsecond)
				echo := func(c *sd.Conn, poke func()) {
					if _, err := c.Send(pattern); err != nil {
						t.Errorf("send: %v", err)
					}
					poke()
					got := make([]byte, len(pattern))
					if n, err := c.RecvFull(got); err != nil || !bytes.Equal(got[:n], pattern) {
						t.Errorf("echo of %d bytes: %d back, %v", len(pattern), n, err)
					}
					poke()
				}
				stale, err := t2.Dial(dst, 80)
				if err != nil {
					t.Errorf("dial: %v", err)
					return
				}
				echo(stale, func() {})
				stale.Close()
				t2.Sleep(sd.Millisecond) // the server closed too: the connection is released
				idle := a.Mon.IdleIntraSocks()
				c, err := t2.Dial(dst, 80)
				if err != nil {
					t.Errorf("dial: %v", err)
					return
				}
				if !inter && (idle != 1 || a.Mon.IdleIntraSocks() != 0) {
					t.Errorf("idle IntraSocks %d, then %d after the dial: want 1, then 0", idle, a.Mon.IdleIntraSocks())
				}
				poke := func() {
					stale.SetRecvDeadline(t2.Now() + 1)
					if _, err := stale.Send([]byte("stale")); !errors.Is(err, core.ErrShutdown) {
						t.Errorf("send on the closed conn: want ErrShutdown, got %v", err)
					}
					if _, err := stale.Recv(make([]byte, 64)); err != sd.EOF {
						t.Errorf("recv on the closed conn: want EOF, got %v", err)
					}
					if err := stale.Close(); !errors.Is(err, core.ErrBadFD) {
						t.Errorf("close of the closed conn: want ErrBadFD, got %v", err)
					}
				}
				echo(c, poke)
				echo(c, poke)
				c.Close()
			})
			cl.Run()
		})
	}
}

// TestStaleConnSocketServesTheNextConn: once a closed Conn's connection is
// released, the next dial's Conn is made over the same Socket, on one host
// and across two. Every method of the stale Conn then returns what it
// returned before its Socket moved on — Send, SendBatch and SendVA
// ErrShutdown, Recv, RecvBatch, RecvFull and RecvVA EOF, Close ErrBadFD, the
// old FD, Readable — and none of them reaches the new connection: its bytes
// echo exact, and the O_NONBLOCK and deadlines set through the stale Conn
// end none of its waits.
func TestStaleConnSocketServesTheNextConn(t *testing.T) {
	for _, inter := range []bool{false, true} {
		name := "intra"
		if inter {
			name = "inter"
		}
		t.Run(name, func(t *testing.T) {
			cl := newCluster(t)
			a := cl.AddHost("alpha")
			srvHost, dst := a, "alpha"
			if inter {
				srvHost, dst = cl.AddHost("beta"), "beta"
				sd.PeerMonitors(a, srvHost)
			}
			echoServe(t, srvHost.NewProcess("server", 0), 80, 2)
			pattern := bytes.Repeat([]byte("next conn "), 150)
			a.NewProcess("client", 1000).Go("main", func(t2 *sd.T) {
				t2.Sleep(10 * sd.Microsecond)
				va, buf := t2.Alloc(4096), make([]byte, 64)
				echo := func(c *sd.Conn, poke func()) {
					if _, err := c.Send(pattern); err != nil {
						t.Errorf("send: %v", err)
					}
					poke()
					got := make([]byte, len(pattern))
					if n, err := c.RecvFull(got); err != nil || !bytes.Equal(got[:n], pattern) {
						t.Errorf("echo of %d bytes: %d back, %v", len(pattern), n, err)
					}
					poke()
				}
				stale, err := t2.Dial(dst, 80)
				if err != nil {
					t.Errorf("dial: %v", err)
					return
				}
				echo(stale, func() {})
				stale.Close()
				t2.Sleep(sd.Millisecond) // the server closed too: the connection is released
				// call runs every method of the stale Conn and reports what each returned.
				call := func() []string {
					stale.SetNonblock(true)
					stale.SetSendDeadline(t2.Now() + 1)
					stale.SetRecvDeadline(t2.Now() + 1)
					var out []string
					note := func(op string, n int, err error) { out = append(out, fmt.Sprintf("%s %d %v", op, n, err)) }
					n, err := stale.Send(pattern)
					note("Send", n, err)
					n, err = stale.SendBatch([][]byte{pattern})
					note("SendBatch", n, err)
					n, err = stale.SendVA(va, 4096)
					note("SendVA", n, err)
					n, err = stale.WithT(t2).Send(pattern)
					note("WithT.Send", n, err)
					n, err = stale.Recv(buf)
					note("Recv", n, err)
					n, err = stale.RecvBatch([][]byte{buf}, nil)
					note("RecvBatch", n, err)
					n, err = stale.RecvFull(buf)
					note("RecvFull", n, err)
					n, err = stale.RecvVA(va, 4096)
					note("RecvVA", n, err)
					note("Close", 0, stale.Close())
					return append(out, fmt.Sprintf("FD %d Readable %v Fallback %v", stale.FD(), stale.Readable(), stale.Fallback()))
				}
				before := call()
				for i, want := range []error{core.ErrShutdown, core.ErrShutdown, core.ErrShutdown, core.ErrShutdown,
					sd.EOF, sd.EOF, sd.EOF, sd.EOF, core.ErrBadFD} {
					if w := fmt.Sprintf("0 %v", want); !bytes.HasSuffix([]byte(before[i]), []byte(w)) {
						t.Errorf("closed Conn: %s, want %s", before[i], w)
					}
				}
				c, err := t2.Dial(dst, 80)
				if err != nil {
					t.Errorf("dial: %v", err)
					return
				}
				if sd.ConnSocket(c) != sd.ConnSocket(stale) {
					t.Error("the next Conn is not made over the closed Conn's Socket")
				}
				poke := func() {
					if after := call(); !slices.Equal(after, before) {
						t.Errorf("the stale Conn now returns %q, before its Socket moved on %q", after, before)
					}
				}
				poke()
				if c.Readable() {
					t.Error("the new connection reads as readable before anything was sent")
				}
				echo(c, poke)
				echo(c, poke)
				c.Close()
			})
			cl.Run()
		})
	}
}

// TestDialCycleAllocs: warm, a dial, 8-byte echo and close through the
// public API, on one host or across two, allocates only the application's
// two handles, one Conn each end: every Socket comes back from its
// library's free list (4 a cycle while each end's Socket was new). The
// request and reply buffers are the test's, made once.
func TestDialCycleAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	// A cycle retires two sdstat rows: after obs.ClosedFlows cycles every
	// new row reuses the record of one it evicts.
	const warm, cycles = obs.ClosedFlows, 100
	for _, inter := range []bool{false, true} {
		name := "intra"
		if inter {
			name = "inter"
		}
		t.Run(name, func(t *testing.T) {
			cl := newCluster(t)
			a := cl.AddHost("alpha")
			srvHost, dst := a, "alpha"
			if inter {
				srvHost, dst = cl.AddHost("beta"), "beta"
				sd.PeerMonitors(a, srvHost)
			}
			echoServe(t, srvHost.NewProcess("server", 0), 80, warm+cycles)
			var allocs uint64
			a.NewProcess("client", 1000).Go("main", func(t2 *sd.T) {
				t2.Sleep(10 * sd.Microsecond)
				req, reply := []byte("8 bytes!"), make([]byte, 8)
				for i := 0; i < warm+cycles; i++ {
					if i == warm {
						allocs = mallocs()
					}
					c, err := t2.Dial(dst, 80)
					if err != nil {
						t.Errorf("dial %d: %v", i, err)
						return
					}
					if _, err := c.Send(req); err != nil {
						t.Errorf("send %d: %v", i, err)
					}
					if _, err := c.RecvFull(reply); err != nil {
						t.Errorf("recv %d: %v", i, err)
					}
					c.Close()
				}
				allocs = mallocs() - allocs
			})
			cl.Run()
			per := float64(allocs) / cycles
			t.Logf("%.2f allocations per dial-echo-close cycle", per)
			if per > 2.05 {
				t.Errorf("%.2f allocations per cycle, want 2: the two Conns", per)
			}
		})
	}
}

// mallocs is the process's count of heap allocations so far.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}
