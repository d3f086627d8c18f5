package experiments

import (
	"errors"
	"fmt"
	"io"
	"strings"

	sd "socksdirect"
	"socksdirect/internal/exec"
	"socksdirect/internal/monitor"
	"socksdirect/internal/telemetry"
)

// The scenario kit: the parts the drills in this package (chaos, crash,
// mrestart, cluster, overload, connscale, obssmoke) are assembled from, each
// written once. Flows: one payload source (seedFor, xorshiftFill), one
// verifier, and three traffic shapes — pair.stream, pair.echo, and a
// dialing thread (dialStats, served by acceptLoop). Schedule: killAt and
// timeline; link faults stay with internal/fault. Invariants: functions
// that return a named check; the resource ones read the one census
// (monitor.Census), and every drill ends its world through the crash path
// and judges what is left (nothingLeft). A drill's verdict lists its checks
// once and both Passed and String derive from it, so no number is printed
// without being judged or judged without being printed. A body only one
// drill needs stays in that drill and uses these parts.

// seedFor derives a flow's payload seed from its port and a per-shape
// salt, so no two flows of a run carry the same stream.
func seedFor(port uint16, salt uint64) uint64 {
	return uint64(port)*0x9E3779B97F4A7C15 + salt
}

// xorshiftFill writes deterministic pseudo-random bytes (xorshift64*).
// The generator is byte-sequential: any block sizes give the same stream.
func xorshiftFill(b []byte, state *uint64) {
	s := *state
	for i := range b {
		s ^= s << 13
		s ^= s >> 7
		s ^= s << 17
		b[i] = byte((s * 0x2545F4914F6CDD1D) >> 56)
	}
	*state = s
}

// verifier compares received bytes with the stream of the same seed, in
// lockstep: a lost, duplicated, reordered or corrupted byte misaligns the
// two, so everything from that offset on mismatches.
type verifier struct {
	state uint64
	want  [256]byte // current block of the expected stream
	rem   int       // bytes of want not yet compared

	delivered  int64 // bytes compared so far
	mismatches int   // check calls that found a wrong byte
	badAt      int64 // stream offset of the first wrong byte (when mismatches > 0)
}

// check compares the next len(b) bytes and reports whether all matched.
func (v *verifier) check(b []byte) bool {
	ok := true
	for _, c := range b {
		if v.rem == 0 {
			xorshiftFill(v.want[:], &v.state)
			v.rem = len(v.want)
		}
		if c != v.want[len(v.want)-v.rem] && ok {
			ok = false
			if v.mismatches == 0 {
				v.badAt = v.delivered
			}
		}
		v.rem--
		v.delivered++
	}
	if !ok {
		v.mismatches++
	}
	return ok
}

// drain receives from c through buf, checking every byte, until total
// bytes have arrived (total 0: until an errno, which it returns).
func (v *verifier) drain(c *sd.Conn, buf []byte, total int64) error {
	for total == 0 || v.delivered < total {
		n, err := c.Recv(buf)
		if err != nil {
			return err
		}
		v.check(buf[:n])
	}
	return nil
}

// pair is the two processes of one flow. The server process is created
// first: creation order fixes simulated core numbering, which the drills'
// virtual-time results depend on.
type pair struct {
	srv, cli *sd.Process
	dst      string // the server host, as the client dials it
	port     uint16
}

func newPair(srvHost, cliHost *sd.Host, tag string, port uint16) pair {
	return pair{
		srv:  srvHost.NewProcess(fmt.Sprintf("%ssrv%d", tag, port), 0),
		cli:  cliHost.NewProcess(fmt.Sprintf("%scli%d", tag, port), 0),
		dst:  srvHost.H.Name,
		port: port,
	}
}

// flowOutcome is what the observing end(s) of one data flow saw.
type flowOutcome struct {
	verifier
	severed   bool // the schedule cuts this flow: it owes a reset, not completion
	completed bool // the whole payload arrived (and was checked)
	opErrors  int  // socket calls that failed on an end no kill was aimed at
	errored   bool // an established end was stopped by an errno
	goodReset bool // that errno was exactly one ECONNRESET, then EOF/EPIPE
}

// ended records the errno that stopped an established end. A dead peer
// owes its survivor exactly one ECONNRESET, after which the same call made
// again must find the socket terminal: io.EOF for a receiver, EPIPE for a
// sender. A second ECONNRESET, or any other first errno, is a bad
// sequence; a survivor that never gets an errno never calls this (hung).
func (o *flowOutcome) ended(err error, again func() error, terminal error) {
	o.opErrors++
	o.errored = true
	if errors.Is(err, sd.ECONNRESET) {
		o.goodReset = errors.Is(again(), terminal)
	}
}

// accept1 listens on port and accepts its first connection.
func accept1(t *sd.T, port uint16) (*sd.Conn, error) {
	ln, err := t.Listen(port)
	if err != nil {
		return nil, err
	}
	return ln.Accept()
}

// streamFlow is the first flow shape: the client dials, then sends the
// seed's stream one chunk per pace; the server verifies it in lockstep.
// One direction only, so the blocked-sender (full ring) and the
// blocked-receiver (empty ring) wake paths stay distinguishable.
type streamFlow struct {
	seed   uint64
	chunk  int
	chunks int   // sends in the full payload; 0 streams until an errno
	pace   int64 // virtual ns between sends
	// victim is the end a scheduled kill reaps (nil: neither). The kill
	// unwinds its thread; what its calls return on the way out is not an
	// observation.
	victim *sd.Process
	// handoff, when set, runs before every send. Returning true means the
	// rest of the stream is sent from elsewhere (cluster's live
	// migration, continuing from *state) and this thread is done.
	handoff func(t *sd.T, c *sd.Conn, next int, state *uint64) bool
}

func (pr pair) stream(f streamFlow) *flowOutcome {
	o := &flowOutcome{verifier: verifier{state: f.seed}}
	pr.srv.Go("srv", func(t *sd.T) {
		o.recvStream(t, pr.port, f.chunk, int64(f.chunk)*int64(f.chunks), f.victim == pr.srv)
	})
	pr.cli.Go("cli", func(t *sd.T) {
		t.Sleep(10_000) // the listener is up by then
		c, err := t.Dial(pr.dst, pr.port)
		if err != nil {
			o.opErrors++
			return
		}
		out := make([]byte, f.chunk)
		state := f.seed
		for i := 0; f.chunks == 0 || i < f.chunks; i++ {
			if f.handoff != nil && f.handoff(t, c, i, &state) {
				return
			}
			xorshiftFill(out, &state)
			if _, err := c.Send(out); err != nil {
				if f.victim != pr.cli {
					o.ended(err, func() error { _, err := c.Send(out); return err }, sd.EPIPE)
				}
				return
			}
			t.Sleep(f.pace)
		}
	})
	return o
}

// recvStream is the stream shape's receiving end: accept on port, then
// verify every byte until total have arrived (total 0: until an errno).
func (o *flowOutcome) recvStream(t *sd.T, port uint16, chunk int, total int64, victim bool) {
	c, err := accept1(t, port)
	if err != nil {
		o.opErrors++
		return
	}
	buf := make([]byte, chunk)
	if err := o.drain(c, buf, total); err != nil {
		if !victim {
			o.ended(err, func() error { _, err := c.Recv(buf); return err }, io.EOF)
		}
		return
	}
	o.completed = true
}

// echo is the second flow shape: the client sends rounds chunks of the
// seed's stream, reads each back whole and verifies it (one check per
// chunk), pace apart; the server echoes exactly rounds*chunk bytes and
// exits, so the simulation quiesces.
func (pr pair) echo(seed uint64, rounds, chunk int, pace int64) *flowOutcome {
	o := &flowOutcome{verifier: verifier{state: seed}}
	total := rounds * chunk
	pr.srv.Go("srv", func(t *sd.T) {
		c, err := accept1(t, pr.port)
		if err != nil {
			return
		}
		buf := make([]byte, chunk)
		for echoed := 0; echoed < total; {
			n, err := c.Recv(buf)
			if err != nil {
				return
			}
			if _, err := c.Send(buf[:n]); err != nil {
				return
			}
			echoed += n
		}
	})
	pr.cli.Go("cli", func(t *sd.T) {
		t.Sleep(10_000)
		c, err := t.Dial(pr.dst, pr.port)
		if err != nil {
			return
		}
		out, got := make([]byte, chunk), make([]byte, chunk)
		state := seed
		for i := 0; i < rounds; i++ {
			xorshiftFill(out, &state)
			if _, err := c.Send(out); err != nil {
				return
			}
			if _, err := c.RecvFull(got); err != nil {
				return
			}
			o.check(got)
			if pace > 0 {
				t.Sleep(pace)
			}
		}
		o.completed = true
	})
	return o
}

// flowSums totals a drill's data flows.
type flowSums struct {
	delivered                   int64
	mismatched, completed       int // flows
	opErrors                    int
	goodResets, badErrnos, hung int // severed flows, by how they ended
}

func sumFlows(flows []*flowOutcome) (s flowSums) {
	for _, o := range flows {
		s.delivered += o.delivered
		if o.mismatches > 0 {
			s.mismatched++
		}
		if o.completed {
			s.completed++
		}
		s.opErrors += o.opErrors
		switch {
		case !o.severed:
		case !o.errored:
			s.hung++
		case o.goodReset:
			s.goodResets++
		default:
			s.badErrnos++
		}
	}
	return s
}

// dialStats is the third flow shape's outcome: threads that dial over and
// over, every attempt timed and classed by errno. One record serves all of
// a drill's dialers: simulated threads interleave cooperatively, so plain
// counters are exact.
type dialStats struct {
	connected int   // attempts that returned a socket
	failed    int   // attempts that returned an errno, of which:
	refused   int   // ECONNREFUSED: a full backlog or inbox shed the SYN
	down      int   // ErrMonitorDown: ETIMEDOUT/EAGAIN from a silent control plane
	echoed    int   // connections whose probe byte came back intact
	lastNs    int64 // latency of the latest attempt
	worstNs   int64 // slowest single attempt
}

// dial makes one attempt.
func (st *dialStats) dial(t *sd.T, dst string, port uint16) (*sd.Conn, error) {
	began := t.Now()
	c, err := t.Dial(dst, port)
	st.lastNs = t.Now() - began
	st.worstNs = max(st.worstNs, st.lastNs)
	switch {
	case err == nil:
		st.connected++
		return c, nil
	case errors.Is(err, sd.ECONNREFUSED):
		st.refused++
	case errors.Is(err, sd.ErrMonitorDown):
		st.down++
	}
	st.failed++
	return nil, err
}

// connect dials until it connects, sleeping backoff after each refusal —
// ECONNREFUSED from a shed SYN, retryable by contract, or a listener that
// is not up yet. It gives up after the given number of retries, or on any
// other errno.
func (st *dialStats) connect(t *sd.T, dst string, port uint16, retries int, backoff int64) (*sd.Conn, error) {
	for tries := 0; ; tries++ {
		c, err := st.dial(t, dst, port)
		refusal := errors.Is(err, sd.ECONNREFUSED) || errors.Is(err, sd.ErrNoListener)
		if !refusal || tries >= retries {
			return c, err
		}
		t.Sleep(backoff)
	}
}

// probe sends one byte to an echoOnce server and counts it if it comes
// back intact.
func (st *dialStats) probe(c *sd.Conn) {
	b := []byte{0x5a}
	if _, err := c.Send(b); err != nil {
		return
	}
	if n, err := c.Recv(b); err == nil && n == 1 && b[0] == 0x5a {
		st.echoed++
	}
}

// acceptLoop is the serving end of the dial shape: it accepts n
// connections on port (n 0: until the listener fails) and hands each to
// serve.
func acceptLoop(t *sd.T, port uint16, n int, serve func(c *sd.Conn)) {
	ln, err := t.Listen(port)
	if err != nil {
		return
	}
	for k := 0; n == 0 || k < n; k++ {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		serve(c)
	}
}

// echoOnce returns the first message on c to its sender.
func echoOnce(c *sd.Conn) {
	b := make([]byte, 1)
	if n, err := c.Recv(b); err == nil {
		c.Send(b[:n])
	}
}

// killAt has reaper SIGKILL victim at virtual time at, from a thread of
// its own (one per victim, so kills cannot delay each other).
func killAt(reaper *sd.Process, port uint16, at int64, victim *sd.Process) {
	reaper.Go(fmt.Sprintf("kill%d", port), func(t *sd.T) {
		t.Sleep(at)
		t.Kill(victim)
	})
}

// action is one step of a timeline: do runs at virtual time at.
type action struct {
	at int64
	do func()
}

// timeline runs acts, which must be in time order, on one simulator
// thread that belongs to no host — so it survives every kill and monitor
// stop it performs.
func timeline(sim *exec.Sim, name string, acts ...action) {
	sim.Spawn(name, func(ctx exec.Context) {
		now := int64(0)
		for _, a := range acts {
			ctx.Sleep(a.at - now)
			now = a.at
			a.do()
		}
	})
}

// freshDist is the named distribution, emptied: the process registry is
// shared, so a run reports the quantiles of its own observations only.
func freshDist(name string) *telemetry.Distribution {
	d := telemetry.D(name)
	d.Reset()
	return d
}

// tally brackets a run: the telemetry counters and the census's
// process-wide columns as they stood before it.
type tally struct {
	counters telemetry.Snapshot
	base     monitor.Census
}

func startTally() tally {
	return tally{counters: telemetry.Capture(), base: monitor.TakeCensus()}
}

// end reads the run's books once the simulation has quiesced: every
// counter's movement; the census's pooled buffers taken and not returned
// (no frame or timer remains, so a nonzero value is a reference-count leak,
// not traffic in flight); and the first CrashConverged error among mons — a
// listener slot, token waiter or connection record that still
// refers to a dead process — or "" when all converged.
func (t tally) end(mons ...*monitor.Monitor) (delta telemetry.Snapshot, poolLeak int64, unconverged string) {
	for _, m := range mons {
		if m == nil {
			unconverged = "restart controller never ran"
			break
		}
		if err := m.CrashConverged(); err != nil {
			unconverged = err.Error()
			break
		}
	}
	return telemetry.Capture().Diff(t.counters), monitor.TakeCensus().Bufs - t.base.Bufs, unconverged
}

// check is one named requirement judged on one run, with the numbers
// behind the verdict.
type check struct {
	name   string
	ok     bool
	detail string
}

func expect(name string, ok bool, format string, a ...any) check {
	return check{name: name, ok: ok, detail: fmt.Sprintf(format, a...)}
}

// String renders the check as one verdict line.
func (c check) String() string {
	mark := "ok  "
	if !c.ok {
		mark = "FAIL"
	}
	return fmt.Sprintf("%s %s: %s", mark, c.name, c.detail)
}

// The system's invariants, each stated once.

// byteExact: every byte a receiver got was the stream's next byte — no
// loss, duplication, reordering or corruption on any flow.
func byteExact(ok bool, format string, a ...any) check {
	return expect("byte-exact delivery", ok, format, a...)
}

// oneReset: each of the want severed flows gave its survivor exactly one
// ECONNRESET and then EOF (receiver) or EPIPE (sender) — none saw another
// errno sequence, none was left waiting.
func oneReset(good, want, bad, hung int) check {
	return expect("exactly one ECONNRESET, then EOF/EPIPE", good == want && bad == 0 && hung == 0,
		"%d good resets / %d severed, %d bad errnos, %d hung", good, want, bad, hung)
}

// oneTimeout: each of the armed deadlines fired as exactly one ETIMEDOUT.
func oneTimeout(exact, armed, extra int) check {
	return expect("exactly one ETIMEDOUT per armed deadline", exact == armed && extra == 0,
		"%d/%d exactly-one ETIMEDOUT (extra=%d)", exact, armed, extra)
}

// noDrift: what a run took of something shared — the census's pooled
// buffers, a host's admitted quota bytes — is back at its baseline once the
// run has quiesced.
func noDrift(what string, drift int64) check {
	return expect("zero "+what+" drift", drift == 0, "%d", drift)
}

// worldEnd is how a drill's world ended (endWorld): the census it left, and
// the counters as they stood before, which are the drill's own.
type worldEnd struct {
	Left     monitor.Census
	counters *telemetry.Snapshot // a pointer keeps a Result comparable
}

func endWorld(cl *sd.Cluster) worldEnd {
	at := telemetry.Capture()
	return worldEnd{cl.End(), &at}
}

// Counters returns the counters as the drill left them, before its world
// ended.
func (e worldEnd) Counters() telemetry.Snapshot { return *e.counters }

// nothingLeft: the world, ended through the crash path (sd.Cluster.End),
// holds nothing — ARCHITECTURE.md "One census".
func nothingLeft(left monitor.Census) check {
	if left == (monitor.Census{}) {
		return expect("zero census at world end", true, "nothing held")
	}
	return expect("zero census at world end", false, "%+v", left)
}

// converged: no monitor state still refers to a dead process (unconverged
// is tally.end's report).
func converged(unconverged string) check {
	if unconverged == "" {
		return expect("monitor convergence", true, "converged")
	}
	return expect("monitor convergence", false, "%s", unconverged)
}

// boundedWait: no control-plane call blocked past its bound; a silent
// monitor must surface as a bounded ETIMEDOUT/EAGAIN, never as a hang.
func boundedWait(ok bool, format string, a ...any) check {
	return expect("no wait beyond the bound", ok, format, a...)
}

// atLeast cross-checks a telemetry counter against what the workers
// observed: the stack must have counted every event they saw.
func atLeast(counter string, got, floor int64) check {
	return expect(counter, got >= floor, "%d (want >= %d)", got, floor)
}

// verdict is one run judged against a drill's acceptance bar: a headline
// and the checks. Every drill Result builds one; its Passed and String are
// the verdict's.
type verdict struct {
	head   string
	checks []check
}

func (v verdict) Passed() bool {
	for _, c := range v.checks {
		if !c.ok {
			return false
		}
	}
	return true
}

// String renders the headline, one line per check, and PASS or FAIL.
func (v verdict) String() string {
	var b strings.Builder
	b.WriteString(v.head)
	for _, c := range v.checks {
		b.WriteString("\n  " + c.String())
	}
	if v.Passed() {
		return b.String() + "\n  PASS"
	}
	return b.String() + "\n  FAIL"
}
