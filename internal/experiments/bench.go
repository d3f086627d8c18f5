package experiments

import (
	"errors"
	"fmt"
	"runtime"
	"sort"

	sd "socksdirect"
	"socksdirect/internal/ctlmsg"
	"socksdirect/internal/telemetry"
)

// BenchSchema versions the BENCH JSON layout. Bump it on any field
// rename/removal; `sdbench compare` refuses to diff mismatched schemas.
const BenchSchema = "socksdirect-bench/2"

// BenchRTT is the telemetry distribution the bench workloads observe
// per-message latency into; P50Ns/P99Ns come from its quantiles.
const BenchRTT = "sd/bench/rtt_ns"

// benchWarm is the number of warm-up operations run before the measured
// window of every workload. Warm-up pays the one-time costs — connection
// setup, credit exchange, CQ/packet-pool growth, lazily allocated batch
// rings — so the measured AllocsPerOp is the steady-state per-op number,
// not world construction amortized over the round count (which is what
// made short-mode runs report phantom alloc regressions).
const benchWarm = 64

// benchRefill ops run between the pre-window runtime.GC() and the m0
// MemStats read. The GC empties no free list, so they refill nothing, but
// they are part of every row's virtual-time run, which must not move.
const benchRefill = 8

// memWindow reads MemStats at up to three marks around two back-to-back
// measurement windows and reports the per-window MINIMUM of each alloc
// metric. MemStats counters are process-global: runtime background work
// and other simulated threads contribute a handful of stray allocations
// nondeterministically, which would otherwise print a phantom 0.01
// allocs/op on a genuinely zero-alloc path. A real per-op allocation
// shows up in every window, so the minimum keeps regressions visible
// while filtering one-off noise.
type memWindow struct {
	m [3]runtime.MemStats
	i int
}

func (w *memWindow) mark() {
	if w.i < len(w.m) {
		runtime.ReadMemStats(&w.m[w.i])
		w.i++
	}
}

func (w *memWindow) perOp(n int) (allocs, bytes float64) {
	if w.i < 2 || n <= 0 {
		return 0, 0
	}
	allocs = float64(w.m[1].Mallocs - w.m[0].Mallocs)
	bytes = float64(w.m[1].TotalAlloc - w.m[0].TotalAlloc)
	if w.i == 3 {
		if a2 := float64(w.m[2].Mallocs - w.m[1].Mallocs); a2 < allocs {
			allocs = a2
		}
		if b2 := float64(w.m[2].TotalAlloc - w.m[1].TotalAlloc); b2 < bytes {
			bytes = b2
		}
	}
	return allocs / float64(n), bytes / float64(n)
}

// measure runs op in the sequence the single-client workloads share:
// warm operations, a runtime.GC() and benchRefill more, then n operations
// each timed into dist, then n more, with mw marked around both windows
// of n. It returns the virtual time the timed window took, or 0 if op
// reports a failure (a wrong errno, say) anywhere: the zero rate fails
// the compare gate instead of shipping a bogus number.
func measure(t *sd.T, mw *memWindow, dist *telemetry.Distribution, warm, n int, op func() bool) int64 {
	run := func(k int) bool {
		for i := 0; i < k; i++ {
			if !op() {
				return false
			}
		}
		return true
	}
	if !run(warm) {
		return 0
	}
	runtime.GC()
	if !run(benchRefill) {
		return 0
	}
	mw.mark()
	start := t.Now()
	for i := 0; i < n; i++ {
		t0 := t.Now()
		if !op() {
			return 0
		}
		dist.Observe(t.Now() - t0)
	}
	elapsed := t.Now() - start
	mw.mark()
	if !run(n) {
		return 0
	}
	mw.mark()
	return elapsed
}

// BenchEntry is one measured workload in a BENCH report. Msgs, the rate
// and the latency come from the simulator's virtual clock: identical on
// every machine and run. AllocsPerOp counts Go heap allocations per
// message over the measured (post-warm-up) window.
type BenchEntry struct {
	Name        string  `json:"name"`
	MsgBytes    int     `json:"msg_bytes"`
	Msgs        int     `json:"msgs"`
	MsgsPerSec  float64 `json:"msgs_per_sec"`
	P50Ns       int64   `json:"p50_ns"`
	P99Ns       int64   `json:"p99_ns"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
}

// BenchReport is the top-level BENCH_<timestamp>.json document.
type BenchReport struct {
	Schema    string       `json:"schema"`
	Tool      string       `json:"tool"`
	GoVersion string       `json:"go_version"`
	Short     bool         `json:"short"`
	Entries   []BenchEntry `json:"entries"`
}

// RunBenchSuite runs the continuous-benchmark workloads and returns the
// report: the ones the ledger (benchmark/) does not run — the vectored op
// path, the connection-scale drill, cold cluster dials and the overload
// fast paths. The plain ping-pongs, streams, ring and QP are the ledger's
// rows. short scales every message count down ~10x for CI smoke runs;
// compare a -short report only against another -short report.
func RunBenchSuite(short bool) BenchReport {
	scale := func(n int) int {
		if short {
			return n / 10
		}
		return n
	}
	rep := BenchReport{
		Schema:    BenchSchema,
		Tool:      "sdbench bench",
		GoVersion: runtime.Version(),
		Short:     short,
	}
	add := func(e BenchEntry) { rep.Entries = append(rep.Entries, e) }
	add(BurstPingPong("sd_intra_burst_32x64B", 32, 64, true, scale(1000)))
	add(BurstPingPong("sd_inter_burst_32x64B", 32, 64, false, scale(1000)))
	for _, e := range benchConnScale(short) {
		add(e)
	}
	for _, e := range benchCluster(short) {
		add(e)
	}
	for _, e := range benchOverload(short) {
		add(e)
	}
	return rep
}

// benchCluster measures the two cluster-plane operations the chaos soak
// bounds, on a healthy N-host routed fabric: a cross-host dial through
// the full monitor control plane (KConnect -> KMSyn -> KMSynAck over the
// monitor channels), and an 8B echo RTT over the established RDMA
// socket. Every client host exercises every server host, so the numbers
// cover the fabric.Net switch path, not one hand-picked link. Each client
// is a fresh process, so its first dial to each server opens a QP pair
// cold and the rest reuse the pair the last close parked: the dial
// entry's p50 is a warm dial and its p99 a cold one, hence its name (the
// ledger's cluster_dial times dials after a warm-up). Virtual time
// throughout; world construction and per-dial socket setup are billed to
// the dial entry (like connscale).
func benchCluster(short bool) []BenchEntry {
	servers, clients, rounds := 3, 3, 40
	if short {
		servers, clients, rounds = 2, 2, 10
	}
	cl := sd.NewCluster(sd.Defaults())
	srvs := make([]*sd.Host, servers)
	for i := range srvs {
		srvs[i] = cl.AddHost(fmt.Sprintf("bsrv%d", i))
	}
	clis := make([]*sd.Host, clients)
	for i := range clis {
		clis[i] = cl.AddHost(fmt.Sprintf("bcli%d", i))
	}
	for _, c := range clis {
		for _, s := range srvs {
			sd.PeerMonitors(c, s)
		}
	}
	const port = 7400
	for _, s := range srvs {
		sp := s.NewProcess("esrv", 0)
		sp.Go("main", func(t *sd.T) {
			acceptLoop(t, port, 0, func(c *sd.Conn) {
				t.Pr.Go("conn", func(ct *sd.T) {
					cc := c.WithT(ct)
					buf := make([]byte, 64)
					defer cc.Close() // both ends closed: the connection is reclaimed
					for {
						n, err := cc.Recv(buf)
						if err != nil {
							return
						}
						if _, err := cc.Send(buf[:n]); err != nil {
							return
						}
					}
				})
			})
		})
	}

	var dialLat, echoLat []int64
	var elapsed int64
	runtime.GC()
	var w memWindow
	w.mark()
	for ci := range clis {
		cp := clis[ci].NewProcess("ecli", 0)
		cp.Go("main", func(t *sd.T) {
			t.Sleep(10_000)
			start := t.Now()
			msg := make([]byte, 8)
			buf := make([]byte, 64)
			var dl, el []int64
			var st dialStats
			for s := 0; s < servers; s++ {
				for r := 0; r < rounds; r++ {
					c, err := st.dial(t, fmt.Sprintf("bsrv%d", s), port)
					if err != nil {
						return
					}
					dl = append(dl, st.lastNs)
					t0 := t.Now()
					if _, err := c.Send(msg); err != nil {
						return
					}
					if _, err := c.Recv(buf); err != nil {
						return
					}
					el = append(el, t.Now()-t0)
					c.Close()
				}
			}
			span := t.Now() - start
			dialLat = append(dialLat, dl...)
			echoLat = append(echoLat, el...)
			if span > elapsed {
				elapsed = span
			}
		})
	}
	cl.Run()
	w.mark()

	q := func(lat []int64, p float64) int64 {
		if len(lat) == 0 {
			return 0
		}
		s := append([]int64(nil), lat...)
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		return s[int(p*float64(len(s)-1))]
	}
	allocs, bytes := w.perOp(len(dialLat))
	dial := BenchEntry{
		Name: "cluster_dial_cold", Msgs: len(dialLat),
		P50Ns: q(dialLat, 0.50), P99Ns: q(dialLat, 0.99),
		AllocsPerOp: allocs, BytesPerOp: bytes,
	}
	echo := BenchEntry{
		Name: "cluster_echo_8B", MsgBytes: 8, Msgs: len(echoLat),
		P50Ns: q(echoLat, 0.50), P99Ns: q(echoLat, 0.99),
	}
	if elapsed > 0 {
		dial.MsgsPerSec = float64(len(dialLat)) / (float64(elapsed) / 1e9)
		echo.MsgsPerSec = float64(len(echoLat)) / (float64(elapsed) / 1e9)
	}
	return []BenchEntry{dial, echo}
}

// benchConnScale runs a scaled-down connection-scale drill (the full
// 10^5-socket version lives behind `sdbench connscale`) and reports it
// as one entry per metric surface: connect throughput+latency, accept
// throughput+latency, and one dispatch-latency entry per monitor shard.
// The per-shard entries are the CI tripwire for the sharded control
// plane — a shard whose p99 collapses into the others' (or whose event
// count drops to zero) means dispatch stopped spreading.
func benchConnScale(short bool) []BenchEntry {
	pop, churn := 20_000, 8_000
	if short {
		pop, churn = 2_000, 800
	}
	runtime.GC()
	var w memWindow
	w.mark()
	cs, _ := connScale(ConnScaleConfig{Population: pop, Churn: churn})
	w.mark()
	// The whole drill's allocations are billed to the connect entry
	// (each dial constructs the socket pair, rings, and FD entries; the
	// accept side's share rides along rather than being double-counted).
	allocs, bytes := w.perOp(cs.Connects)
	entries := []BenchEntry{
		{
			Name: "connscale_connect", Msgs: cs.Connects,
			MsgsPerSec: cs.ConnectsPerSec,
			P50Ns:      cs.ConnectP50Ns, P99Ns: cs.ConnectP99Ns,
			AllocsPerOp: allocs, BytesPerOp: bytes,
		},
		{
			Name: "connscale_accept", Msgs: cs.Accepts,
			MsgsPerSec: cs.AcceptsPerSec,
			P50Ns:      cs.AcceptP50Ns, P99Ns: cs.AcceptP99Ns,
		},
	}
	for _, sh := range cs.Shards {
		e := BenchEntry{
			Name:     fmt.Sprintf("connscale_shard%d_dispatch", sh.Shard),
			MsgBytes: ctlmsg.Size, Msgs: int(sh.Events),
			P50Ns: sh.P50Ns, P99Ns: sh.P99Ns,
		}
		if cs.ElapsedNs > 0 {
			e.MsgsPerSec = float64(sh.Events) / (float64(cs.ElapsedNs) / 1e9)
		}
		entries = append(entries, e)
	}
	return entries
}

// benchOverload measures the two overload fast paths the backpressure
// work added — the "cost of saying no", which must stay cheap for
// shedding to protect anything:
//
//   - overload_shed: a nonblocking send against a full ring returning
//     EWOULDBLOCK. This is the per-op price a load-shedding sender pays
//     on every spin, so it must be near the raw ring-probe cost and
//     allocation-free.
//   - dial_refused: a dial bounced by a saturated listener backlog with
//     ECONNREFUSED. This bounds the monitor-side work per turned-away
//     SYN — the number that decides whether a SYN flood starves the
//     control plane or is absorbed at line rate.
//
// Both run on virtual time (deterministic) so CI can diff them tightly.
func benchOverload(short bool) []BenchEntry {
	n := 4000
	if short {
		n = 400
	}

	// --- overload_shed: EWOULDBLOCK on a full ring -------------------
	shedDist := freshDist("sd/bench/shed_ns")
	var shedMW memWindow
	var shedElapsed int64
	{
		w := newWorld()
		w.a.Limits.RingCap = 16 * 1024
		sp := w.ha.NewProcess("srv", 0)
		cp := w.ha.NewProcess("cli", 0)
		sp.Go("srv", func(st *sd.T) {
			if _, err := accept1(st, 7900); err != nil {
				return
			}
			// Never recv: the ring fills and stays full for the whole
			// measured window.
			st.Sleep(2_000_000_000)
		})
		cp.Go("cli", func(t *sd.T) {
			t.Sleep(10_000)
			c, err := t.Dial("hostA", 7900)
			if err != nil {
				return
			}
			c.SetNonblock(true)
			buf := make([]byte, 64)
			for { // fill until the first EWOULDBLOCK (warm-up rides along)
				if _, err := c.Send(buf); errors.Is(err, sd.EWOULDBLOCK) {
					break
				}
			}
			shedElapsed = measure(t, &shedMW, shedDist, 0, n, func() bool {
				_, err := c.Send(buf)
				return errors.Is(err, sd.EWOULDBLOCK)
			})
		})
		w.sim.Run()
	}

	// --- dial_refused: ECONNREFUSED off a full backlog ---------------
	refDist := freshDist("sd/bench/refused_ns")
	var refMW memWindow
	var refElapsed int64
	refN := n / 4 // a dial is heavier than a ring probe; keep runs short
	{
		w := newWorld()
		w.a.Limits.Backlog = 1
		sp := w.ha.NewProcess("srv", 0)
		cp := w.ha.NewProcess("cli", 0)
		sp.Go("srv", func(st *sd.T) {
			if _, err := st.Listen(7901); err != nil {
				return
			}
			// Never accept: the first dispatched connection pins the
			// single backlog slot, so every later SYN is refused.
			st.Sleep(2_000_000_000)
		})
		cp.Go("cli", func(t *sd.T) {
			t.Sleep(10_000)
			// Pin the single backlog slot: the dial is dispatched into the
			// accept queue (occupying the slot) but the listener never
			// accepts, so Wait-Server times out client-side. The monitor's
			// slot stays held — exactly the saturation this bench needs.
			if _, err := t.DialDeadline("hostA", 7901, t.Now()+1_000_000); !errors.Is(err, sd.ETIMEDOUT) {
				return
			}
			refElapsed = measure(t, &refMW, refDist, benchWarm, refN, func() bool {
				_, err := t.Dial("hostA", 7901)
				return errors.Is(err, sd.ECONNREFUSED)
			})
		})
		w.sim.Run()
	}

	shedAllocs, shedBytes := shedMW.perOp(n)
	refAllocs, refBytes := refMW.perOp(refN)
	entries := []BenchEntry{
		{
			Name: "overload_shed", MsgBytes: 64, Msgs: n,
			P50Ns: shedDist.Quantile(0.50), P99Ns: shedDist.Quantile(0.99),
			AllocsPerOp: shedAllocs, BytesPerOp: shedBytes,
		},
		{
			Name: "dial_refused", Msgs: refN,
			P50Ns: refDist.Quantile(0.50), P99Ns: refDist.Quantile(0.99),
			AllocsPerOp: refAllocs, BytesPerOp: refBytes,
		},
	}
	if shedElapsed > 0 {
		entries[0].MsgsPerSec = float64(n) / (float64(shedElapsed) / 1e9)
	}
	if refElapsed > 0 {
		entries[1].MsgsPerSec = float64(refN) / (float64(refElapsed) / 1e9)
	}
	return entries
}

// BurstPingPong measures the vectored op path (SendBatch/RecvBatch):
// each round moves a batch of `batch` messages of `size` bytes to the
// server and back, so per-message overhead — token check, flow-table
// update, doorbell — is paid once per batch. Latency is observed once
// per round (the whole-batch RTT); AllocsPerOp is per message over the
// steady-state window. Exported so bench_test.go's testing.B wrapper
// reuses the same workload.
func BurstPingPong(name string, batch, size int, intra bool, rounds int) BenchEntry {
	w := newWorld()
	dist := freshDist(BenchRTT)
	var mw memWindow
	var elapsed int64

	serverHost, clientHost, serverName := w.hb, w.ha, "hostB"
	if intra {
		serverHost, serverName = w.ha, "hostA"
	}
	const port = 7300
	newBufs := func() [][]byte {
		bufs := make([][]byte, batch)
		for i := range bufs {
			bufs[i] = make([]byte, size)
		}
		return bufs
	}
	// sendAll/recvAll resubmit the tail after a partial batch (a full or
	// momentarily empty ring returns a short count by design).
	sendAll := func(c *sd.Conn, bufs [][]byte) bool {
		for sent := 0; sent < len(bufs); {
			n, err := c.SendBatch(bufs[sent:])
			if err != nil {
				return false
			}
			sent += n
		}
		return true
	}
	recvAll := func(c *sd.Conn, bufs [][]byte, lens []int) bool {
		for got := 0; got < len(bufs); {
			n, err := c.RecvBatch(bufs[got:], lens[got:])
			if err != nil {
				return false
			}
			got += n
		}
		return true
	}

	sp := serverHost.NewProcess("srv", 0)
	cp := clientHost.NewProcess("cli", 0)
	sp.Go("srv", func(t *sd.T) {
		c, err := accept1(t, port)
		if err != nil {
			return
		}
		bufs, lens := newBufs(), make([]int, batch)
		for r := 0; r < benchWarm+benchRefill+2*rounds; r++ {
			if !recvAll(c, bufs, lens) || !sendAll(c, bufs) {
				return
			}
		}
	})
	cp.Go("cli", func(t *sd.T) {
		t.Sleep(10_000)
		c, err := t.Dial(serverName, port)
		if err != nil {
			return
		}
		bufs, lens := newBufs(), make([]int, batch)
		elapsed = measure(t, &mw, dist, benchWarm, rounds, func() bool {
			return sendAll(c, bufs) && recvAll(c, bufs, lens)
		})
	})
	w.sim.Run()

	msgs := rounds * batch
	allocs, bytes := mw.perOp(msgs)
	e := BenchEntry{
		Name:        name,
		MsgBytes:    size,
		Msgs:        msgs,
		P50Ns:       dist.Quantile(0.50),
		P99Ns:       dist.Quantile(0.99),
		AllocsPerOp: allocs,
		BytesPerOp:  bytes,
	}
	if elapsed > 0 {
		e.MsgsPerSec = float64(msgs) / (float64(elapsed) / 1e9)
	}
	return e
}

// BenchRegression is one threshold violation found by CompareBench.
type BenchRegression struct {
	Entry  string
	Metric string
	Old    float64
	New    float64
}

func (r BenchRegression) String() string {
	switch r.Metric {
	case "missing":
		return fmt.Sprintf("%s: entry missing from current report", r.Entry)
	case "unbaselined":
		return fmt.Sprintf("%s: entry has no baseline (regenerate the baseline to gate it)", r.Entry)
	case "p50_zero":
		return fmt.Sprintf("%s: p50_ns is zero (latency not measured — harness bug)", r.Entry)
	case "msgs":
		return fmt.Sprintf("%s: msgs %.0f -> %.0f (a virtual-time count is fixed: the run stopped early or did other work)",
			r.Entry, r.Old, r.New)
	}
	return fmt.Sprintf("%s: %s regressed %.4g -> %.4g", r.Entry, r.Metric, r.Old, r.New)
}

// CompareBench diffs two reports entry-by-entry. A regression is a
// throughput drop, or a latency/allocation rise, beyond the relative
// threshold (e.g. 0.25 = 25%). AllocsPerOp gets +1 absolute slack so
// near-zero baselines don't trip on noise; the tight gate is
// CompareBenchAllocs. An entry reporting p50_ns == 0 is rejected
// outright: every suite workload measures latency, so a zero quantile
// means the harness stopped measuring, not that the system got infinitely
// fast. See compareEntries for what both gates check first.
func CompareBench(old, cur BenchReport, threshold float64) ([]BenchRegression, error) {
	return compareEntries(old, cur, func(o, n BenchEntry) (regs []BenchRegression) {
		if n.AllocsPerOp > o.AllocsPerOp*(1+threshold)+1 {
			regs = append(regs, BenchRegression{o.Name, "allocs_per_op", o.AllocsPerOp, n.AllocsPerOp})
		}
		if n.Msgs > 0 && n.P50Ns == 0 {
			regs = append(regs, BenchRegression{Entry: o.Name, Metric: "p50_zero"})
		}
		if o.MsgsPerSec > 0 && n.MsgsPerSec < o.MsgsPerSec*(1-threshold) {
			regs = append(regs, BenchRegression{o.Name, "msgs_per_sec", o.MsgsPerSec, n.MsgsPerSec})
		}
		if o.P99Ns > 0 && float64(n.P99Ns) > float64(o.P99Ns)*(1+threshold) {
			regs = append(regs, BenchRegression{o.Name, "p99_ns", float64(o.P99Ns), float64(n.P99Ns)})
		}
		return regs
	})
}

// CompareBenchAllocs is the allocation gate: it checks only AllocsPerOp,
// with an *absolute* slack instead of CompareBench's relative-plus-one
// slack. The difference matters exactly where the gate matters — a
// committed 0 allocs/op budget: under the relative rule 0 -> 0.99 would
// pass; under an absolute slack of 0.05 anything above 0.05 fails.
//
// For entries whose baseline is far from zero the absolute rule is too
// tight in the other direction: the connscale drill allocates hundreds
// of objects per connection *by design* (sockets, rings, FD entries),
// and world-construction noise amortized over the connection count
// wobbles by more than 0.05. The effective slack is therefore
// max(slack, 10% of the baseline): unchanged for zero-alloc budgets,
// proportional for allocation-heavy drills.
func CompareBenchAllocs(old, cur BenchReport, slack float64) ([]BenchRegression, error) {
	return compareEntries(old, cur, func(o, n BenchEntry) []BenchRegression {
		eff := max(slack, 0.10*o.AllocsPerOp)
		if n.AllocsPerOp > o.AllocsPerOp+eff {
			return []BenchRegression{{o.Name, "allocs_per_op", o.AllocsPerOp, n.AllocsPerOp}}
		}
		return nil
	})
}

// compareEntries pairs each baseline entry with the current entry of the
// same name and returns what check finds in each pair. A baseline entry
// the current report lacks is a "missing" regression, so a silently
// dropped workload fails the gate, and a current entry the baseline lacks
// is an "unbaselined" one, so a new workload is not left ungated; a pair
// whose message counts differ is
// a "msgs" regression, because every workload runs on virtual time and
// its count is fixed: a different one means the run stopped early (a
// client giving up on a failed dial) or did other work, and its quantiles
// describe a different run. Returns an error on schema or mode (short)
// mismatch.
func compareEntries(old, cur BenchReport, check func(o, n BenchEntry) []BenchRegression) ([]BenchRegression, error) {
	if err := checkComparable(old, cur); err != nil {
		return nil, err
	}
	curByName := make(map[string]BenchEntry, len(cur.Entries))
	for _, e := range cur.Entries {
		curByName[e.Name] = e
	}
	var regs []BenchRegression
	for _, o := range old.Entries {
		n, ok := curByName[o.Name]
		if !ok {
			regs = append(regs, BenchRegression{Entry: o.Name, Metric: "missing"})
			continue
		}
		delete(curByName, o.Name)
		if n.Msgs != o.Msgs {
			regs = append(regs, BenchRegression{o.Name, "msgs", float64(o.Msgs), float64(n.Msgs)})
		}
		regs = append(regs, check(o, n)...)
	}
	for _, n := range cur.Entries { // in report order, not map order
		if _, ok := curByName[n.Name]; ok {
			regs = append(regs, BenchRegression{Entry: n.Name, Metric: "unbaselined"})
		}
	}
	return regs, nil
}

func checkComparable(old, cur BenchReport) error {
	if old.Schema != BenchSchema || cur.Schema != BenchSchema {
		return fmt.Errorf("schema mismatch: baseline %q vs current %q (want %q)",
			old.Schema, cur.Schema, BenchSchema)
	}
	if old.Short != cur.Short {
		return fmt.Errorf("mode mismatch: baseline short=%v vs current short=%v", old.Short, cur.Short)
	}
	return nil
}
