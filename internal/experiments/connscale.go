package experiments

import (
	"fmt"

	sd "socksdirect"
	"socksdirect/internal/monitor"
	"socksdirect/internal/monitor/shard"
	"socksdirect/internal/telemetry"
)

// The connection-scale drill: hold ~10^5 SocksDirect sockets open at
// once while connect/close churn keeps flowing, all through one host's
// sharded monitor control plane. The paper's §6 numbers (1.4 M
// connections/s per app thread, monitor 5.3 M/s) assume the monitor's
// dispatch scales with cores; this drill is the repo's proof that the
// per-shard dispatch loops actually share that load — it reports
// connect/accept throughput plus each shard's dispatch latency
// distribution, and `sdbench bench` gates all of it in CI.

// Names of the drill's private latency distributions (reset per run).
const (
	connScaleDialNs   = "sd/connscale/dial_ns"
	connScaleAcceptNs = "sd/connscale/accept_ns"
)

// ConnScaleConfig parameterizes the drill. Zero values pick defaults
// sized so every monitor shard and every listener port sees traffic.
type ConnScaleConfig struct {
	// Population is the number of sockets held open simultaneously at
	// peak (client side; the accepting side holds the same number).
	Population int
	// Churn is the number of extra dial+close cycles run while the full
	// population is held open.
	Churn int
	// Servers is the number of listener processes, each on its own port
	// (ports spread across the monitor's port shards).
	Servers int
	// Dialers is the number of client processes dialing concurrently.
	Dialers int
	// Cores bounds the simulated host's core count (host.SetCores), so
	// app threads and monitor shard loops contend for CPUs the way a
	// real machine's would. Default 16.
	Cores int
	// RingCap overrides the per-socket SHM ring capacity for the drill's
	// sockets (monitor.SetSockRingCap). Holding 10^5 sockets at the
	// default 128 KiB rings would cost ~25 GB of backing store; the drill
	// moves no data on held connections, so tiny rings are faithful.
	// Default 256 bytes; restored on return.
	RingCap int
}

// ConnScaleShard is one monitor shard's share of the drill: how many
// control messages its dispatch loop handled and its dispatch latency.
type ConnScaleShard struct {
	Shard  int   `json:"shard"`
	Events int64 `json:"events"`
	P50Ns  int64 `json:"p50_ns"`
	P99Ns  int64 `json:"p99_ns"`
}

// ConnScaleResult is the drill's measurement.
type ConnScaleResult struct {
	Population     int // sockets held open at peak (after rounding)
	Churn          int // dial+close cycles run at peak (after rounding)
	PeakConcurrent int // max simultaneously open client sockets observed
	Connects       int
	Accepts        int
	DialRetries    int // dials retried because a listener was not up yet
	ElapsedNs      int64
	ConnectsPerSec float64
	AcceptsPerSec  float64
	ConnectP50Ns   int64
	ConnectP99Ns   int64
	AcceptP50Ns    int64
	AcceptP99Ns    int64
	Dispatched     int // monitor connection dispatches (ConnsDispatched)
	Shards         []ConnScaleShard
}

// ConnScaleDrill runs the connection-scale drill (§6: "An application
// thread with libsd can create 1.4 M new connections per second"). SHM
// connections avoid QP creation by construction, so every dial is a pure
// control-plane transaction: KConnect on the connection shard, listener
// pick on the port shard, KNewConn dispatch back out. Population and
// Churn round up so each dialer sends an equal, server-divisible count —
// the accept quota per listener is then exact and the drill terminates
// deterministically.
func ConnScaleDrill(cfg ConnScaleConfig) ConnScaleResult {
	if cfg.Servers <= 0 {
		cfg.Servers = shard.DefaultCount
	}
	if cfg.Dialers <= 0 {
		cfg.Dialers = 2 * cfg.Servers
	}
	if cfg.Cores <= 0 {
		cfg.Cores = 16
	}
	if cfg.RingCap <= 0 {
		cfg.RingCap = 256
	}
	// Per-dialer counts, rounded up to a multiple of Servers so each
	// dialer spreads exactly evenly over the listener ports.
	per := func(total int) int {
		if total <= 0 {
			return 0
		}
		unit := cfg.Dialers * cfg.Servers
		return (total + unit - 1) / unit * cfg.Servers
	}
	popPer, churnPer := per(cfg.Population), per(cfg.Churn)
	quota := (popPer + churnPer) * cfg.Dialers / cfg.Servers

	old := monitor.SetSockRingCap(cfg.RingCap)
	defer monitor.SetSockRingCap(old)
	telemetry.Default.Reset()

	w := newWorld()
	w.a.SetCores(cfg.Cores)
	dialDist := telemetry.D(connScaleDialNs)
	acceptDist := telemetry.D(connScaleAcceptNs)

	const basePort = 7500
	res := ConnScaleResult{
		Population: popPer * cfg.Dialers,
		Churn:      churnPer * cfg.Dialers,
	}
	var st dialStats // every dialer's attempts
	var open int
	track := func(d int) {
		// Sim threads interleave cooperatively, so plain counters are
		// exact (every tool-visible experiment in this package relies on
		// the same serialization).
		open += d
		if open > res.PeakConcurrent {
			res.PeakConcurrent = open
		}
	}

	var dialStart, dialEnd, acceptEnd int64
	dialStart = int64(^uint64(0) >> 1) // MaxInt64
	ramped := 0                        // dialers that finished their ramp share
	for i := 0; i < cfg.Servers; i++ {
		i := i
		srv := w.ha.NewProcess(fmt.Sprintf("srv%d", i), 0)
		srv.Go("acceptor", func(t *sd.T) {
			ln, err := t.Listen(basePort + uint16(i))
			if err != nil {
				return
			}
			held := make([]*sd.Conn, 0, quota)
			for k := 0; k < quota; k++ {
				s0 := t.Now()
				c, err := ln.Accept()
				if err != nil {
					return
				}
				acceptDist.Observe(t.Now() - s0)
				res.Accepts++
				if t.Now() > acceptEnd {
					acceptEnd = t.Now()
				}
				held = append(held, c)
			}
		})
	}
	for d := 0; d < cfg.Dialers; d++ {
		d := d
		cli := w.ha.NewProcess(fmt.Sprintf("cli%d", d), 1000+d)
		cli.Go("dialer", func(t *sd.T) {
			t.Sleep(20_000) // give the listeners a head start
			if t.Now() < dialStart {
				dialStart = t.Now()
			}
			// A dial retries while its listener is not up yet (at most 100
			// times, 20 us apart); nil means it never came up: abandon.
			dial := func(k int) *sd.Conn {
				c, err := st.connect(t, "hostA", basePort+uint16((d+k)%cfg.Servers), 100, 20_000)
				if err != nil {
					return nil
				}
				dialDist.Observe(st.lastNs)
				track(+1)
				return c
			}
			// Ramp: dial and hold the population share.
			held := make([]*sd.Conn, 0, popPer)
			for k := 0; k < popPer; k++ {
				c := dial(k)
				if c == nil {
					return
				}
				held = append(held, c)
			}
			// Barrier: churn (and the final close-down) must not start
			// until every dialer holds its full share, so the churn
			// cycles genuinely run at peak population.
			ramped++
			for ramped < cfg.Dialers {
				t.Sleep(10_000)
			}
			// Churn at peak: extra dial+close cycles while the full
			// population stays open.
			for k := 0; k < churnPer; k++ {
				c := dial(k)
				if c == nil {
					return
				}
				c.Close()
				track(-1)
			}
			if t.Now() > dialEnd {
				dialEnd = t.Now()
			}
			for _, c := range held {
				c.Close()
				track(-1)
			}
		})
	}
	w.sim.Run()

	res.Connects, res.DialRetries = st.connected, st.failed
	res.ElapsedNs = dialEnd - dialStart
	if res.ElapsedNs > 0 {
		res.ConnectsPerSec = float64(res.Connects) / (float64(res.ElapsedNs) / 1e9)
	}
	if span := acceptEnd - dialStart; span > 0 {
		res.AcceptsPerSec = float64(res.Accepts) / (float64(span) / 1e9)
	}
	res.ConnectP50Ns = dialDist.Quantile(0.50)
	res.ConnectP99Ns = dialDist.Quantile(0.99)
	res.AcceptP50Ns = acceptDist.Quantile(0.50)
	res.AcceptP99Ns = acceptDist.Quantile(0.99)
	res.Dispatched = w.ma.ConnsDispatched

	snap := telemetry.Capture()
	for i := 0; i < shard.DefaultCount; i++ {
		dd := telemetry.D(telemetry.MonShardDispatch(i))
		res.Shards = append(res.Shards, ConnScaleShard{
			Shard:  i,
			Events: snap[telemetry.MonShardEvents(i)],
			P50Ns:  dd.Quantile(0.50),
			P99Ns:  dd.Quantile(0.99),
		})
	}
	return res
}
