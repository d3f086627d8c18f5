package experiments

import (
	"errors"
	"fmt"
	"testing"

	sd "socksdirect"
	"socksdirect/internal/fault"
	"socksdirect/internal/telemetry"
)

// TestStreamRidesOutAPartition: an echo pair whose RDMA link is cut for
// 5 s, and for 30 s, keeps its sockets. Recovery retries its splice with
// capped backoff for as long as the partition lasts, so the stream stalls,
// re-splices its QP once the link heals and finishes byte-exact at both
// ends, and the world ends holding nothing. A receive deadline that falls
// inside the partition fires as exactly one ETIMEDOUT; cleared, the same
// receive completes after the heal.
func TestStreamRidesOutAPartition(t *testing.T) {
	for _, dur := range []int64{5_000_000_000, 30_000_000_000} {
		t.Run(fmt.Sprintf("%ds", dur/1e9), func(t *testing.T) {
			r := rideOut(dur)
			t.Logf("finished at %.2f s virtual, %d recoveries", float64(r.doneAt)/1e9, r.recoveries)
			for _, c := range []check{
				expect("both ends finish", r.cli && r.srv, "client %v, server %v", r.cli, r.srv),
				byteExact(r.mismatches == 0, "%d mismatched chunks", r.mismatches),
				expect("the stream finishes after the heal", r.doneAt > partitionAt+dur, "done at %d", r.doneAt),
				expect("a QP re-established", r.recoveries >= 1, "recoveries=%d", r.recoveries),
				oneTimeout(r.exact, 1, r.extra),
				nothingLeft(r.Left),
			} {
				if !c.ok {
					t.Error(c)
				}
			}
		})
	}
}

const partitionAt = 50_000_000

type rideOutResult struct {
	cli, srv     bool
	mismatches   int
	doneAt       int64
	recoveries   int64
	exact, extra int // ETIMEDOUTs: the one the deadline owed, and any more
	worldEnd
}

// rideOut runs three echo rounds, a fourth whose echo is sent into the
// partition and first awaited under a 100 ms receive deadline, and three
// more after the heal.
func rideOut(dur int64) rideOutResult {
	const chunk, rounds, cut = 1024, 7, 3
	w := newWorld()
	inj := fault.New(w.a.Clk)
	inj.AddLink("rdma", w.a.NIC.Port("hostB"), w.b.NIC.Port("hostA"))
	if err := inj.Run([]fault.Event{{At: partitionAt, Kind: fault.Partition, Link: "rdma", Dur: dur}}); err != nil {
		panic("rideout: " + err.Error())
	}
	var r rideOutResult
	pr := newPair(w.hb, w.ha, "", 7660)
	v := verifier{state: seedFor(pr.port, 1)}
	pr.srv.Go("srv", func(t *sd.T) {
		c, err := accept1(t, pr.port)
		if err != nil {
			return
		}
		buf := make([]byte, chunk)
		for echoed := 0; echoed < rounds*chunk; {
			n, err := c.Recv(buf)
			if err != nil {
				return
			}
			if _, err := c.Send(buf[:n]); err != nil {
				return
			}
			echoed += n
		}
		r.srv = true
	})
	pr.cli.Go("cli", func(t *sd.T) {
		t.Sleep(10_000)
		c, err := t.Dial(pr.dst, pr.port)
		if err != nil {
			return
		}
		out, got := make([]byte, chunk), make([]byte, chunk)
		state := seedFor(pr.port, 1)
		for i := 0; i < rounds; i++ {
			if i == cut {
				t.Sleep(partitionAt + 10_000_000 - t.Now())
			}
			xorshiftFill(out, &state)
			if _, err := c.Send(out); err != nil {
				return
			}
			if i == cut {
				c.SetRecvDeadline(t.Now() + 100_000_000)
				n, err := c.RecvFull(got)
				switch {
				case n == 0 && errors.Is(err, sd.ETIMEDOUT):
					r.exact++
				case err != nil:
					r.extra++
				}
				c.SetRecvDeadline(0)
				if err == nil {
					v.check(got)
					continue
				}
			}
			if _, err := c.RecvFull(got); err != nil {
				if errors.Is(err, sd.ETIMEDOUT) {
					r.extra++
				}
				return
			}
			v.check(got)
		}
		r.cli, r.doneAt = true, t.Now()
		c.Close()
	})
	tl := startTally()
	w.sim.Run()
	d, _, _ := tl.end()
	r.mismatches = v.mismatches
	r.recoveries = d[telemetry.FaultRecoveries]
	r.worldEnd = endWorld(w.cl)
	return r
}
