package experiments

import (
	"errors"
	"fmt"

	sd "socksdirect"
	"socksdirect/internal/bufpool"
	"socksdirect/internal/mem"
	"socksdirect/internal/monitor"
	"socksdirect/internal/monitor/shard"
	"socksdirect/internal/telemetry"
)

// Overload is the overload-survival drill: every bounded queue and
// shedding decision in the stack is pushed past its limit at once, and
// the drill asserts that the system degrades by *refusing work with a
// precise errno* instead of by hanging, leaking, or collapsing healthy
// traffic. Four storms share one cluster:
//
//   - slow-receiver storm: senders fill small rings against receivers
//     that stall, with a send deadline armed — each must see exactly one
//     ETIMEDOUT, then switch to O_NONBLOCK and finish the byte-exact
//     stream via EWOULDBLOCK + epoll EPOLLOUT round-trips;
//   - dial flood: a burst of dials against one listener with a tiny
//     monitor-side backlog cap — overflow dials get a retryable
//     ECONNREFUSED, and every dial eventually succeeds;
//   - remote dial race: inter-host dials with the monitor shard inbox
//     capped, exercising the router-level SYN shed (StatusBacklogFull
//     handback without ever queueing);
//   - quota squeeze: a sender whose staging exceeds the bufpool byte
//     quota sees ENOBUFS, resubmits under the quota, and delivers
//     byte-exact — with zero admitted-byte drift at the end.
//
// Healthy streaming pairs run throughout; their send p99 is the
// collateral-damage gauge (backpressure must not become head-of-line
// blocking for flows that are keeping up).

// OverloadConfig parameterizes the drill. Zero values pick defaults
// sized for a fast CI run; the soak (`sdbench overload`, TestOverloadSoak)
// turns the dial flood up to 10k.
type OverloadConfig struct {
	HealthyPairs int   // streaming pairs that must stay unaffected
	SlowPairs    int   // slow-receiver pairs: deadline sender, then nonblock+epoll
	Dials        int   // dial-flood attempts against the capped listener
	Flooders     int   // concurrent dialer processes in the flood
	RemoteDials  int   // inter-host dials racing the capped shard inbox
	BacklogCap   int   // monitor.SetListenerBacklogCap for the run
	InboxCap     int   // monitor.SetMonInboxCap for the run
	QuotaBytes   int64 // bufpool send-staging quota for the squeeze
	Chunk        int   // stream chunk size (bytes)
	Rounds       int   // chunks per streaming pair
	RingCap      int   // per-socket ring size (small, so rings fill)
	// HealthyP99Bound caps the healthy pairs' per-send p99 (ns).
	HealthyP99Bound int64
}

func (c *OverloadConfig) defaults() {
	if c.HealthyPairs <= 0 {
		c.HealthyPairs = 4
	}
	if c.SlowPairs <= 0 {
		c.SlowPairs = 4
	}
	if c.Dials <= 0 {
		c.Dials = 200
	}
	if c.Flooders <= 0 {
		c.Flooders = 8
	}
	if c.RemoteDials <= 0 {
		c.RemoteDials = 24
	}
	if c.BacklogCap <= 0 {
		c.BacklogCap = 4
	}
	if c.InboxCap <= 0 {
		c.InboxCap = 2
	}
	if c.QuotaBytes <= 0 {
		c.QuotaBytes = 1024
	}
	if c.Chunk <= 0 {
		c.Chunk = 1024
	}
	if c.Rounds <= 0 {
		c.Rounds = 64
	}
	if c.RingCap <= 0 {
		// Must exceed the Writable() headroom (maxInline + slack), or
		// EPOLLOUT could never fire on a fully drained ring.
		c.RingCap = 16 * 1024
	}
	if c.HealthyP99Bound <= 0 {
		c.HealthyP99Bound = 2_000_000 // 2 ms virtual
	}
}

// overloadHealthyNs is the drill-private distribution of healthy-pair
// send latencies (reset per run).
const overloadHealthyNs = "sd/overload/healthy_send_ns"

// OverloadResult is the drill's measurement.
type OverloadResult struct {
	HealthyPairs, SlowPairs, Dials, RemoteDials int
	RunNs                                       int64

	// Slow-receiver storm.
	Timeouts      int   // senders that saw exactly one ETIMEDOUT
	ExtraTimeouts int   // ETIMEDOUTs past the first on any sender (want 0)
	WouldBlocks   int   // EWOULDBLOCK returns observed by nonblock senders
	EpollRetries  int   // sends completed after an EPOLLOUT wakeup
	SlowDelivered int64 // bytes verified byte-exact by stalled receivers
	SlowPrefixBad int   // slow receivers whose stream mismatched

	// Healthy pairs.
	HealthyDone  int   // pairs that delivered their full stream byte-exact
	HealthyBad   int   // pairs with a mismatch or unexpected errno
	HealthyP99Ns int64 // per-send p99 across healthy senders

	// Dial flood.
	FloodSuccess int // dials that eventually connected
	FloodRefused int // retryable ECONNREFUSED handbacks absorbed on the way

	// Remote dial race.
	RemoteSuccess int
	RemoteRefused int

	// Quota squeeze.
	QuotaRejected  int   // ENOBUFS returns observed (want >= 1)
	QuotaDelivered int64 // bytes delivered byte-exact after resubmission
	QuotaBad       int
	QuotaDrift     int64 // bufpool.AdmittedBytes at quiescence (want 0)
	PoolLeak       int64 // bufpool.Outstanding delta (want 0)

	Hung int // workers that never reached their end state

	// Counter deltas across the run (telemetry cross-check).
	CtrTimeouts     int64 // sd/core/deadline_timeouts
	CtrEWouldBlock  int64 // sd/core/ewouldblock
	CtrConnRefused  int64 // sd/core/conn_refused
	CtrQuotaRejects int64 // sd/mem/pool/quota_rejects
	CtrInboxShed    int64 // sum of sd/monitor/shard/<i>/inbox_shed
}

// verdict is the drill's acceptance bar.
func (r OverloadResult) verdict() verdict {
	return verdict{
		fmt.Sprintf("overload: %d healthy + %d slow pairs, %d flood dials, %d remote dials in %.2fs virtual",
			r.HealthyPairs, r.SlowPairs, r.Dials, r.RemoteDials, float64(r.RunNs)/1e9),
		[]check{
			expect("every worker reached its end state", r.Hung == 0, "hung=%d", r.Hung),
			// Deadlines: exactly one ETIMEDOUT per stalled sender, and the
			// stream still completes byte-exact afterwards.
			oneTimeout(r.Timeouts, r.SlowPairs, r.ExtraTimeouts),
			expect("O_NONBLOCK + EPOLLOUT finishes a stalled stream", r.WouldBlocks > 0 && r.EpollRetries > 0,
				"%d EWOULDBLOCK, %d epoll retries", r.WouldBlocks, r.EpollRetries),
			byteExact(r.SlowPrefixBad == 0, "slow streams: %d bytes exact, %d mismatched",
				r.SlowDelivered, r.SlowPrefixBad),
			// Healthy flows: untouched and fast.
			expect("healthy flows untouched", r.HealthyDone == r.HealthyPairs && r.HealthyBad == 0,
				"%d/%d done, %d bad, p99=%.1fus",
				r.HealthyDone, r.HealthyPairs, r.HealthyBad, float64(r.HealthyP99Ns)/1e3),
			// Shedding: refusals happened and every refused dial retried
			// to success.
			expect("flood: the backlog cap refuses, every dial retries to success",
				r.FloodSuccess == r.Dials && r.FloodRefused > 0,
				"%d/%d connected after %d refusals", r.FloodSuccess, r.Dials, r.FloodRefused),
			expect("remote race: every dial retries to success", r.RemoteSuccess == r.RemoteDials,
				"%d/%d after %d refusals (inbox shed=%d)",
				r.RemoteSuccess, r.RemoteDials, r.RemoteRefused, r.CtrInboxShed),
			// Memory admission: ENOBUFS observed, stream still delivered,
			// no admitted-byte drift, no pooled-buffer leak.
			expect("quota: ENOBUFS, then byte-exact after resubmission", r.QuotaRejected >= 1 && r.QuotaBad == 0,
				"%d ENOBUFS, %d bytes exact, %d bad", r.QuotaRejected, r.QuotaDelivered, r.QuotaBad),
			noDrift("quota", r.QuotaDrift),
			noDrift("bufpool", r.PoolLeak),
			// Telemetry agrees with what the workers observed.
			atLeast(telemetry.CoreDeadlineTimeouts, r.CtrTimeouts, int64(r.Timeouts)),
			atLeast(telemetry.CoreEWouldBlock, r.CtrEWouldBlock, int64(r.WouldBlocks)),
			atLeast(telemetry.CoreConnRefused, r.CtrConnRefused, int64(r.FloodRefused)),
			atLeast(telemetry.MemPoolQuotaRejects, r.CtrQuotaRejects, int64(r.QuotaRejected)),
		},
	}
}

// Passed reports whether the drill met the acceptance bar.
func (r OverloadResult) Passed() bool   { return r.verdict().Passed() }
func (r OverloadResult) String() string { return r.verdict().String() }

// Drill phase timing (virtual ns).
const (
	overloadStall     = 5_000_000 // slow receivers stall this long after accept
	overloadDeadline  = 500_000   // send deadline armed by stalled-pair senders
	overloadFloodPace = 20_000    // accepter delay per flood accept (keeps backlog full)
	overloadBackoff   = 50_000    // dialer retry backoff after a refusal
)

// Overload runs the drill.
func Overload(cfg OverloadConfig) OverloadResult {
	cfg.defaults()
	res := OverloadResult{
		HealthyPairs: cfg.HealthyPairs, SlowPairs: cfg.SlowPairs,
		Dials: cfg.Dials, RemoteDials: cfg.RemoteDials,
	}

	oldRing := monitor.SetSockRingCap(cfg.RingCap)
	defer monitor.SetSockRingCap(oldRing)
	oldBacklog := monitor.SetListenerBacklogCap(cfg.BacklogCap)
	defer monitor.SetListenerBacklogCap(oldBacklog)
	oldInbox := monitor.SetMonInboxCap(cfg.InboxCap)
	defer monitor.SetMonInboxCap(oldInbox)
	oldQuota := bufpool.SetQuotaBytes(cfg.QuotaBytes)
	defer bufpool.SetQuotaBytes(oldQuota)
	telemetry.Default.Reset()

	o := &overloadRun{w: newWorld(), cfg: cfg, res: &res}
	tl := startTally()
	healthyDist := telemetry.D(overloadHealthyNs)

	healthy := make([]*flowOutcome, cfg.HealthyPairs)
	for i := range healthy {
		healthy[i] = o.healthyPair(7600+uint16(i), healthyDist)
	}
	for i := 0; i < cfg.SlowPairs; i++ {
		o.slowPair(7650 + uint16(i))
	}
	// Dial flood: the listener's monitor-side backlog is capped. Remote dial
	// race: inter-host dials against a capped shard inbox as well, so
	// refusals come from the router-level SYN shed or from pickListener.
	flood := o.dialStorm("ovl-flood", 7700, o.w.ha, cfg.Dials, cfg.Flooders)
	remote := o.dialStorm("ovl-rem", 7701, o.w.hb, cfg.RemoteDials, 1)
	o.quota(7702)

	res.RunNs = o.w.sim.Run()

	res.Hung = o.hung
	for _, h := range healthy {
		if h.completed && h.mismatches == 0 {
			res.HealthyDone++
		}
		res.HealthyBad += h.opErrors + min(h.mismatches, 1)
	}
	res.HealthyP99Ns = healthyDist.Quantile(0.99)
	res.FloodSuccess, res.FloodRefused = flood.connected, flood.refused
	res.RemoteSuccess, res.RemoteRefused = remote.connected, remote.refused
	var d telemetry.Snapshot
	d, res.PoolLeak, _ = tl.end()
	res.CtrTimeouts = d[telemetry.CoreDeadlineTimeouts]
	res.CtrEWouldBlock = d[telemetry.CoreEWouldBlock]
	res.CtrConnRefused = d[telemetry.CoreConnRefused]
	res.CtrQuotaRejects = d[telemetry.MemPoolQuotaRejects]
	for i := 0; i < shard.DefaultCount; i++ {
		res.CtrInboxShed += d[telemetry.MonShardInboxShed(i)]
	}
	res.QuotaDrift = bufpool.AdmittedBytes()
	return res
}

// overloadRun is the state the drill's storms share.
type overloadRun struct {
	w    *world
	cfg  OverloadConfig
	res  *OverloadResult
	hung int // workers started and not yet returned
}

// worker runs fn as a thread of p; Hung reports the workers that never
// return.
func (o *overloadRun) worker(p *sd.Process, name string, fn func(t *sd.T)) {
	o.hung++
	p.Go(name, func(t *sd.T) {
		defer func() { o.hung-- }()
		fn(t)
	})
}

// overloadDial dials with refusal-aware retry: under the drill's global
// backlog cap, even well-behaved pairs can have their one dial land while
// another storm transiently fills a shard, so everyone retries refusals.
func overloadDial(t *sd.T, host string, port uint16) (*sd.Conn, error) {
	var st dialStats
	return st.connect(t, host, port, 400, overloadBackoff)
}

// healthyPair streams Rounds*Chunk bytes to a receiver that keeps up; each
// send's latency lands in dist.
func (o *overloadRun) healthyPair(port uint16, dist *telemetry.Distribution) *flowOutcome {
	cfg := o.cfg
	seed := seedFor(port, 3)
	out := &flowOutcome{verifier: verifier{state: seed}}
	pr := newPair(o.w.ha, o.w.ha, "ovl-h", port)
	o.worker(pr.srv, "srv", func(t *sd.T) {
		out.recvStream(t, port, cfg.Chunk, int64(cfg.Rounds*cfg.Chunk), false)
	})
	o.worker(pr.cli, "cli", func(t *sd.T) {
		c, err := overloadDial(t, pr.dst, port)
		if err != nil {
			out.opErrors++
			return
		}
		buf, state := make([]byte, cfg.Chunk), seed
		for i := 0; i < cfg.Rounds; i++ {
			xorshiftFill(buf, &state)
			s0 := t.Now()
			if _, err := c.Send(buf); err != nil {
				out.opErrors++
				return
			}
			dist.Observe(t.Now() - s0)
			t.Sleep(5_000) // pace: the receiver keeps up, the ring stays shallow
		}
	})
	return out
}

// slowPair: the receiver stalls after accepting; the sender arms a
// deadline, absorbs exactly one ETIMEDOUT against the full ring, then
// finishes the stream in O_NONBLOCK mode via epoll EPOLLOUT.
func (o *overloadRun) slowPair(port uint16) {
	cfg, res := o.cfg, o.res
	total := cfg.Rounds * cfg.Chunk
	seed := seedFor(port, 5)
	payload, state := make([]byte, total), seed
	xorshiftFill(payload, &state)

	pr := newPair(o.w.ha, o.w.ha, "ovl-s", port)
	o.worker(pr.srv, "srv", func(t *sd.T) {
		c, err := accept1(t, port)
		if err != nil {
			return
		}
		t.Sleep(overloadStall) // the stall that fills the sender's ring
		v := verifier{state: seed}
		if err := v.drain(c, make([]byte, cfg.Chunk), int64(total)); err != nil || v.mismatches > 0 {
			res.SlowPrefixBad++
			return
		}
		res.SlowDelivered += int64(total)
	})
	o.worker(pr.cli, "cli", func(t *sd.T) {
		c, err := overloadDial(t, pr.dst, port)
		if err != nil {
			res.SlowPrefixBad++
			return
		}
		c.SetSendDeadline(t.Now() + overloadDeadline)
		sent, timeouts := 0, 0
		// Phase 1: blocking sends against the filling ring until the
		// deadline fires.
		for sent < total && timeouts == 0 {
			n, err := c.Send(payload[sent:min(sent+cfg.Chunk, total)])
			sent += n
			if err != nil {
				if errors.Is(err, sd.ETIMEDOUT) {
					timeouts++
					continue
				}
				res.SlowPrefixBad++
				return
			}
		}
		if timeouts == 1 {
			res.Timeouts++
		}
		// Phase 2: clear the deadline, go nonblocking, and finish the
		// stream on EPOLLOUT wakeups.
		c.SetSendDeadline(0)
		c.SetNonblock(true)
		ep := t.Epoll()
		if err := ep.Add(c.FD(), sd.EPOLLOUT); err != nil {
			res.SlowPrefixBad++
			return
		}
		evs := make([]sd.Event, 4)
		waited := false
		for sent < total {
			n, err := c.Send(payload[sent:min(sent+cfg.Chunk, total)])
			sent += n
			if err == nil {
				if waited {
					res.EpollRetries++
					waited = false
				}
				continue
			}
			if errors.Is(err, sd.EWOULDBLOCK) {
				res.WouldBlocks++
				if _, werr := ep.Wait(evs); werr != nil {
					res.SlowPrefixBad++
					return
				}
				waited = true
				continue
			}
			if errors.Is(err, sd.ETIMEDOUT) {
				res.ExtraTimeouts++
				continue
			}
			res.SlowPrefixBad++
			return
		}
	})
}

// dialStorm: `dials` dials, split over `dialers` processes on host from,
// against one listener on hostA:port. The acceptor drains slowly so the
// caps genuinely refuse; every refusal must be retryable to success.
func (o *overloadRun) dialStorm(tag string, port uint16, from *sd.Host, dials, dialers int) *dialStats {
	st := &dialStats{}
	o.worker(o.w.ha.NewProcess(tag+"-srv", 0), "acceptor", func(t *sd.T) {
		acceptLoop(t, port, dials, func(c *sd.Conn) {
			c.Close()
			t.Sleep(overloadFloodPace)
		})
	})
	per := (dials + dialers - 1) / dialers
	for f, left := 0, dials; left > 0; f++ {
		share := min(per, left)
		left -= share
		o.worker(from.NewProcess(fmt.Sprintf("%s-cli%d", tag, f), 0), "dialer", func(t *sd.T) {
			t.Sleep(10_000)
			for k := 0; k < share; k++ {
				c, err := st.connect(t, "hostA", port, 2000, overloadBackoff)
				if err != nil {
					return // not a refusal, or out of retries: the dial stays unsuccessful
				}
				c.Close()
			}
		})
	}
	return st
}

// quota: the sender's first staging attempt exceeds the bufpool byte quota
// (ENOBUFS), then resubmits in under-quota slices and the receiver
// verifies the full stream byte-exact.
func (o *overloadRun) quota(port uint16) {
	res := o.res
	slice := int(o.cfg.QuotaBytes)
	total := 4 * slice
	seed := seedFor(port, 9)
	payload, state := make([]byte, total), seed
	xorshiftFill(payload, &state)

	sp := o.w.ha.NewProcess("ovl-quota-srv", 0)
	cp := o.w.ha.NewProcess("ovl-quota-cli", 0)
	o.worker(sp, "srv", func(t *sd.T) {
		c, err := accept1(t, port)
		if err != nil {
			return
		}
		v := verifier{state: seed}
		if err := v.drain(c, make([]byte, slice), int64(total)); err != nil || v.mismatches > 0 {
			res.QuotaBad++
			return
		}
		res.QuotaDelivered += int64(total)
	})
	o.worker(cp, "cli", func(t *sd.T) {
		c, err := overloadDial(t, "hostA", port)
		if err != nil {
			res.QuotaBad++
			return
		}
		addr := t.Alloc(total)
		if err := t.WriteMem(addr, payload); err != nil {
			res.QuotaBad++
			return
		}
		// One oversized staging attempt: must be refused, not admitted.
		if _, err := c.SendVA(addr, total); !errors.Is(err, sd.ENOBUFS) {
			res.QuotaBad++
			return
		}
		res.QuotaRejected++
		// Resubmit in slices the quota admits.
		for off := 0; off < total; off += slice {
			if _, err := c.SendVA(addr+mem.VAddr(off), slice); err != nil {
				res.QuotaBad++
				return
			}
		}
	})
}
