package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"socksdirect/internal/ctlmsg"
)

// TestRingOverflowDropsOldest: the span ring must retain exactly the last
// DefaultRingCap spans, count the overwritten ones, and never grow.
func TestRingOverflowDropsOldest(t *testing.T) {
	Reset()
	defer Reset()
	const extra = 100
	base := mDropped.Load()
	for i := 0; i < DefaultRingCap+extra; i++ {
		Record(Span{Trace: 1, Span: uint64(i + 1), Start: int64(i), End: int64(i + 1), Host: "h", PID: 7})
	}
	got := AllSpans()
	if len(got) != DefaultRingCap {
		t.Fatalf("ring retained %d spans, want %d", len(got), DefaultRingCap)
	}
	// Oldest-first: the first retained span is the (extra+1)-th recorded.
	if got[0].Span != extra+1 {
		t.Fatalf("oldest retained span id = %d, want %d (drop-oldest)", got[0].Span, extra+1)
	}
	if got[len(got)-1].Span != DefaultRingCap+extra {
		t.Fatalf("newest retained span id = %d, want %d", got[len(got)-1].Span, DefaultRingCap+extra)
	}
	if d := mDropped.Load() - base; d != extra {
		t.Fatalf("dropped counter advanced by %d, want %d", d, extra)
	}
}

// TestEventRingOverflowDropsOldest: events share the span ring and its
// drop-oldest bound, and Reset empties it.
func TestEventRingOverflowDropsOldest(t *testing.T) {
	Reset()
	defer Reset()
	const extra = 100
	base := mDropped.Load()
	for i := 0; i < DefaultRingCap; i++ {
		Record(Span{Trace: 1, Span: uint64(i + 1), Start: int64(i), End: int64(i + 1), Host: "h", PID: 7})
	}
	for i := 0; i < extra; i++ {
		Emit("h", 7, EvZCRemap, 0, int64(i), int64(i), 0)
	}
	got := AllSpans()
	if len(got) != DefaultRingCap {
		t.Fatalf("ring retained %d records after events, want %d", len(got), DefaultRingCap)
	}
	if got[0].Span != extra+1 {
		t.Fatalf("oldest retained span id = %d, want %d (events drop the oldest)", got[0].Span, extra+1)
	}
	for i, sp := range got[DefaultRingCap-extra:] {
		if sp.Hop != HopEvent || sp.Parent != uint64(i) {
			t.Fatalf("record %d from the end = %+v, want event %d", extra-i, sp, i)
		}
	}
	if d := mDropped.Load() - base; d != extra {
		t.Fatalf("dropped counter advanced by %d, want %d", d, extra)
	}
	Reset()
	if n := len(AllSpans()); n != 0 {
		t.Fatalf("Reset left %d records behind", n)
	}
	Emit("h", 7, EvZCRemap, 0, 99, 1, 0)
	if got := AllSpans(); len(got) != 1 || got[0].Start != 99 {
		t.Fatalf("after Reset read back %+v, want the one new event", got)
	}
}

// TestRingBackedAsItFills: a ring starts as its 64-span head and is
// backed one 1 024-span piece at a time, five allocations in all; it reads
// back oldest-first across the head's growth, every piece boundary and the
// wrap, and counts what the wrap overwrote.
func TestRingBackedAsItFills(t *testing.T) {
	defer Reset()
	for _, n := range []int{1, ringHead, ringHead + 1, ringPiece, ringPiece + 1,
		2*ringPiece + 5, DefaultRingCap, DefaultRingCap + 1, DefaultRingCap + ringPiece + 7, 3 * DefaultRingCap} {
		Reset()
		base := mDropped.Load()
		r := ringFor("h", 3)
		for i := 1; i <= n; i++ {
			Record(Span{Trace: 1, Span: uint64(i), Host: "h", PID: 3})
		}
		want := min(n, DefaultRingCap)
		got := AllSpans()
		if len(got) != want {
			t.Fatalf("%d spans recorded, %d retained, want %d", n, len(got), want)
		}
		for k, sp := range got {
			if id := uint64(n - want + k + 1); sp.Span != id {
				t.Fatalf("%d spans recorded: retained[%d] is span %d, want %d", n, k, sp.Span, id)
			}
		}
		if d := mDropped.Load() - base; d != int64(n-want) {
			t.Errorf("%d spans recorded: dropped counter advanced by %d, want %d", n, d, n-want)
		}

		pieces := 0
		for _, p := range r.pieces {
			if len(p) == ringPiece {
				pieces++
			}
		}
		if wantPieces := min((n+ringPiece-1)/ringPiece, len(r.pieces)); n > ringHead && pieces != wantPieces {
			t.Errorf("%d spans backed %d pieces, want %d", n, pieces, wantPieces)
		}
		lifetime := func() {
			r := &ring{}
			r.pieces[0] = r.head[:]
			for range n {
				r.record(Span{})
			}
		}
		if allocs := testing.AllocsPerRun(20, lifetime); allocs > float64(1+pieces) {
			t.Errorf("a ring's life with %d spans made %.0f allocations, want at most %d", n, allocs, 1+pieces)
		}
	}
}

// TestConcurrentWriters hammers the rings from many goroutines while a
// reader snapshots them; run with -race to verify the locking.
func TestConcurrentWriters(t *testing.T) {
	Reset()
	defer Reset()
	const writers = 8
	const perWriter = 2000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				RecordHop("h", int64(w%3), HopProcRing, 1, uint64(w+1), 0, int64(i), int64(i+1))
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			_ = AllSpans()
			_ = Flows()
		}
	}()
	wg.Wait()
	<-done
	// PIDs 0 and 1 take three writers each and fill their rings; PID 2
	// takes two, 4000 spans, which fit.
	if n := len(AllSpans()); n != 2*DefaultRingCap+2*perWriter {
		t.Fatalf("%d spans retained after concurrent writes, want %d", n, 2*DefaultRingCap+2*perWriter)
	}
}

// TestConcurrentEventWriters: events emitted into one ring from many
// goroutines, while a reader snapshots it, fill the ring exactly and
// count every overwritten event; run with -race to verify the locking.
func TestConcurrentEventWriters(t *testing.T) {
	Reset()
	defer Reset()
	const writers = 4
	const perWriter = 2000
	base := mDropped.Load()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				Emit("h", 1, EvReset, 0, int64(i), int64(w), 0)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			_ = AllSpans()
		}
	}()
	wg.Wait()
	<-done
	if n := len(AllSpans()); n != DefaultRingCap {
		t.Fatalf("%d events retained after concurrent emits, want %d", n, DefaultRingCap)
	}
	if d := mDropped.Load() - base; d != writers*perWriter-DefaultRingCap {
		t.Fatalf("dropped counter advanced by %d, want %d", d, writers*perWriter-DefaultRingCap)
	}
}

// TestDisabledRecordingAllocFree: with tracing off, the hot-path entry
// points must not allocate (the pingpong bench rides on this).
func TestDisabledRecordingAllocFree(t *testing.T) {
	Reset()
	defer Reset()
	SetEnabled(false)
	defer SetEnabled(true)
	allocs := testing.AllocsPerRun(1000, func() {
		op := BeginOp("h", 1, OpConnect, 10)
		RecordHop("h", 1, HopProcRing, 1, op.Trace, op.Span, 10, 20)
		op.End(30, true)
		Emit("h", 1, EvTokenTakeover, 0, 30, 9, 1)
	})
	if allocs != 0 {
		t.Fatalf("disabled tracing allocates %.1f per op, want 0", allocs)
	}
	// Flow accounting is always on and must be alloc-free too.
	f := RegisterFlow(FlowKey{Host: "h", PID: 1, QID: 9}, "h", &fixedProbe{})
	allocs = testing.AllocsPerRun(1000, func() {
		f.AddTxN(1, 64)
		f.AddRxN(1, 64)
	})
	if allocs != 0 {
		t.Fatalf("flow accounting allocates %.1f per op, want 0", allocs)
	}
}

// TestEnabledRecordingAllocFree: recording itself writes into the ring,
// which is backed by the time it wraps — steady-state span recording is
// alloc-free as well.
func TestEnabledRecordingAllocFree(t *testing.T) {
	Reset()
	defer Reset()
	for i := 0; i < DefaultRingCap; i++ { // warm up: create and back the ring
		RecordHop("h", 1, HopProcRing, 1, 1, 0, 0, 1)
	}
	allocs := testing.AllocsPerRun(1000, func() {
		RecordHop("h", 1, HopProcRing, 1, 1, 0, 10, 20)
	})
	if allocs != 0 {
		t.Fatalf("enabled hop recording allocates %.1f per op, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(1000, func() {
		Emit("h", 1, EvCtl, uint8(ctlmsg.KConnect), 10, 42, 0)
	})
	if allocs != 0 {
		t.Fatalf("enabled event recording allocates %.1f per op, want 0", allocs)
	}
}

// TestSpanIs72Bytes: events ride in the span record's padding; every
// workload allocates its rings inside a measured repetition, so a bigger
// Span would show in the ledger's rep_bytes_per_op.
func TestSpanIs72Bytes(t *testing.T) {
	if n := unsafe.Sizeof(Span{}); n != 72 {
		t.Fatalf("Span is %d bytes, want 72", n)
	}
}

// TestFlowFitsIn144Bytes: every dial registers a Flow, so a Flow past the
// 144 B size class (the next is 160 B) would show in connect_churn's
// rep_bytes_per_op. Freezing a whole FlowSnapshot made it 280 B.
func TestFlowFitsIn144Bytes(t *testing.T) {
	if n := unsafe.Sizeof(Flow{}); n > 144 {
		t.Fatalf("Flow is %d bytes, want at most 144", n)
	}
}

// TestEventCatalogCoversEveryEvent pins the event catalog to the enum, in
// the style of ctlmsg's TestCatalogCoversEveryKind: every event has a
// distinct name, a component and named arguments, and ARCHITECTURE.md's
// event table has one row per event, naming it in backticks (a handled
// message's as `ctl/<kind>`).
func TestEventCatalogCoversEveryEvent(t *testing.T) {
	raw, err := os.ReadFile("../../ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	const heading = "#### Event catalog"
	_, section, ok := strings.Cut(string(raw), heading)
	if !ok {
		t.Fatalf("ARCHITECTURE.md lost its %q section", heading)
	}
	section, _, _ = strings.Cut(section, "\n#")
	rows := strings.Count(section, "\n| `")
	seen := map[string]bool{}
	for ev := Event(1); ev < numEvents; ev++ {
		e := events[ev]
		if e.name == "" || ev.Component() == "" || e.args[0] == "" {
			t.Errorf("event %d lacks a name, component or argument name: %+v", ev, e)
			continue
		}
		if seen[e.name] {
			t.Errorf("event name %q used twice", e.name)
		}
		seen[e.name] = true
		name := e.name
		if strings.HasSuffix(name, "/") {
			name += "<kind>"
		}
		if !strings.Contains(section, "| `"+name+"` | "+ev.Component()+" |") {
			t.Errorf("the event catalog has no row `%s` | %s", name, ev.Component())
		}
	}
	if rows != int(numEvents)-1 {
		t.Errorf("the event catalog has %d rows, the enum %d events", rows, numEvents-1)
	}
}

// TestEventsFollowTheOneSwitch: events are recorded by default, and
// SetEnabled, the switch spans obey, turns them off.
func TestEventsFollowTheOneSwitch(t *testing.T) {
	Reset()
	defer Reset()
	Emit("h", 1, EvReset, 0, 10, 1, 0)
	SetEnabled(false)
	Emit("h", 1, EvReset, 0, 20, 2, 0)
	SetEnabled(true)
	if got := AllSpans(); len(got) != 1 || got[0].Start != 10 {
		t.Fatalf("recorded %+v, want only the event emitted while enabled", got)
	}
}

// TestEventOrderAndArgs: events emitted into different rings read back in
// emission order by Span, with their names (a handled message's built
// from its ctlmsg kind) and arguments.
func TestEventOrderAndArgs(t *testing.T) {
	Reset()
	defer Reset()
	Emit("hostB", 0, EvCtl, uint8(ctlmsg.KConnect), 50, 7, 0)
	Emit("hostA", 3, EvTokenTakeover, 0, 40, 11, 1)
	Emit("hostA", 0, EvRemote, uint8(ctlmsg.KMSyn), 60, 7600, 0)
	Emit("hostB", 0, EvRetransmit, 0, 70, 5, 2)
	got := AllSpans()
	slices.SortFunc(got, func(a, b Span) int { return int(a.Span) - int(b.Span) })
	want := []struct {
		comp, name string
		args       map[string]int64
	}{
		{"monitor", "ctl/connect", map[string]int64{"pid": 7}},
		{"core", "token_takeover", map[string]int64{"qid": 11, "dir": 1}},
		{"monitor", "remote/msyn", map[string]int64{"port": 7600}},
		{"rdma", "retransmit", map[string]int64{"qpn": 5, "inflight": 2}},
	}
	if len(got) != len(want) {
		t.Fatalf("read %d events, want %d", len(got), len(want))
	}
	for i, sp := range got {
		w := want[i]
		if sp.Trace != 0 || sp.Ev.Component() != w.comp || sp.Name() != w.name || !mapsEqual(sp.Args(), w.args) {
			t.Errorf("event %d = %s %s %v, want %s %s %v", i, sp.Ev.Component(), sp.Name(), sp.Args(), w.comp, w.name, w.args)
		}
	}
}

func mapsEqual(a, b map[string]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

// TestEventsStayOutOfTraces: MergeAll builds timelines from spans alone,
// while a flight-recorder dump carries the spans and the events.
func TestEventsStayOutOfTraces(t *testing.T) {
	Reset()
	defer Reset()
	op := BeginOp("hostA", 3, OpConnect, 100)
	Emit("hostA", 0, EvCtl, uint8(ctlmsg.KConnect), 110, 3, 0)
	RecordHop("hostA", 0, HopMonDispatch, uint8(ctlmsg.KConnect), op.Trace, op.Span, 110, 150)
	Emit("hostA", 3, EvReset, 0, 160, 9, 0)
	op.End(200, true)
	tvs := MergeAll()
	if len(tvs) != 1 || len(tvs[0].Spans) != 2 {
		t.Fatalf("MergeAll = %+v, want one trace of two spans", tvs)
	}
	for _, sp := range tvs[0].Spans {
		if sp.Hop == HopEvent {
			t.Fatalf("an event joined trace %d", tvs[0].Trace)
		}
	}
	d := ForceDump(TrigManual, 300, "both")
	var spans, evs int
	for _, sp := range d.Spans {
		if sp.Hop == HopEvent {
			evs++
		} else {
			spans++
		}
	}
	if spans != 2 || evs != 2 {
		t.Fatalf("dump carries %d spans and %d events, want 2 and 2", spans, evs)
	}
}

// TestMergeTelescoping builds a synthetic cross-host connect trace and
// checks the spine order and the exact telescoping of the breakdown.
func TestMergeTelescoping(t *testing.T) {
	Reset()
	defer Reset()
	op := BeginOp("hostA", 10, OpConnect, 100)
	// libsd -> monitor A queue hop, then monitor A dispatch, mchan flight,
	// peer dispatch, server libsd queue hop.
	s1 := RecordHop("hostA", 0, HopProcRing, 1, op.Trace, op.Span, 100, 120)
	s2 := RecordHop("hostA", 0, HopMonDispatch, 1, op.Trace, s1, 120, 150)
	s3 := RecordHop("hostB", 0, HopMchanFlight, 2, op.Trace, s2, 150, 200)
	s4 := RecordHop("hostB", 0, HopPeerDispatch, 2, op.Trace, s3, 200, 240)
	RecordHop("hostB", 20, HopProcRing, 3, op.Trace, s4, 240, 300)
	op.End(400, true)

	tvs := MergeAll()
	if len(tvs) != 1 {
		t.Fatalf("MergeAll found %d traces, want 1", len(tvs))
	}
	tv := tvs[0]
	if !tv.Complete(5) {
		t.Fatalf("trace incomplete: hops=%d ok=%v", tv.HopCount(), tv.Root.OK)
	}
	if tv.Duration() != 300 {
		t.Fatalf("duration = %d, want 300", tv.Duration())
	}
	var sum int64
	for _, h := range tv.Hops {
		sum += h.Ns
	}
	if sum != tv.Duration() {
		t.Fatalf("hop latencies sum to %d, want exactly %d", sum, tv.Duration())
	}
	wantSpine := []Hop{HopApp, HopProcRing, HopMonDispatch, HopMchanFlight, HopPeerDispatch, HopProcRing}
	if len(tv.Hops) != len(wantSpine) {
		t.Fatalf("spine has %d hops, want %d", len(tv.Hops), len(wantSpine))
	}
	for i, h := range tv.Hops {
		if h.Hop != wantSpine[i] {
			t.Fatalf("spine[%d] = %s, want %s", i, h.Hop, wantSpine[i])
		}
	}
	if !strings.Contains(tv.Format(), "op=connect") {
		t.Fatalf("Format missing op name:\n%s", tv.Format())
	}
}

// TestRecordHopUntraced: untraced messages (trace 0) record nothing and
// propagate the parent unchanged.
func TestRecordHopUntraced(t *testing.T) {
	Reset()
	defer Reset()
	if got := RecordHop("h", 1, HopProcRing, 1, 0, 42, 0, 1); got != 42 {
		t.Fatalf("untraced RecordHop returned %d, want parent 42", got)
	}
	if n := len(AllSpans()); n != 0 {
		t.Fatalf("untraced RecordHop recorded %d spans", n)
	}
}

// probeFunc is a function as a Prober.
type probeFunc func() FlowProbe

func (fn probeFunc) Probe() FlowProbe { return fn() }

// TestFlowTable exercises registration, accounting and snapshots: transport
// and state come from the prober, and a frozen row keeps its last reading.
func TestFlowTable(t *testing.T) {
	Reset()
	defer Reset()
	live := FlowProbe{RingHW: 4096, Epoch: 2, Transport: ctlmsg.TransportRDMA, State: FlowReset}
	f := RegisterFlow(FlowKey{Host: "hostA", PID: 3, QID: 77}, "hostB", probeFunc(func() FlowProbe { return live }))
	f.AddTxN(1, 100)
	f.AddTxN(1, 50)
	f.AddRxN(1, 30)
	f.Takeover()
	f.NoteReset()
	var nilFlow *Flow
	nilFlow.AddTxN(1, 1) // all methods must be nil-safe
	nilFlow.NoteReset()
	nilFlow.Freeze()

	row := func() FlowSnapshot {
		t.Helper()
		flows := Flows()
		if len(flows) != 1 {
			t.Fatalf("flow table has %d rows, want 1", len(flows))
		}
		return flows[0]
	}
	fs := row()
	if fs.BytesTx != 150 || fs.MsgsTx != 2 || fs.BytesRx != 30 || fs.MsgsRx != 1 {
		t.Fatalf("counters wrong: %+v", fs)
	}
	if fs.Takeovers != 1 || fs.Resets != 1 || fs.State != "reset" {
		t.Fatalf("events wrong: %+v", fs)
	}
	if fs.RingHW != 4096 || fs.Epoch != 2 {
		t.Fatalf("probe fields wrong: %+v", fs)
	}
	if fs.Transport != "rdma" || fs.Peer != "hostB" {
		t.Fatalf("identity wrong: %+v", fs)
	}

	live.Transport, live.State = ctlmsg.TransportSHM, FlowClosed
	if fs = row(); fs.Transport != "shm" || fs.State != "closed" {
		t.Fatalf("a live row does not read its prober: %+v", fs)
	}
	f.Freeze()
	live = FlowProbe{RingHW: 1, Epoch: 9, Transport: ctlmsg.TransportRDMA, State: FlowEstablished}
	if fs = row(); fs.RingHW != 4096 || fs.Epoch != 2 || fs.Transport != "shm" || fs.State != "closed" {
		t.Fatalf("a frozen row did not keep its last reading: %+v", fs)
	}
}

// fixedProbe is a Prober that reads back its own value.
type fixedProbe FlowProbe

func (p *fixedProbe) Probe() FlowProbe { return FlowProbe(*p) }

// TestClosedFlowRowsAreBounded: the table keeps the ClosedFlows most recent
// closed rows, with their final readings, beside the live ones; an evicted
// record serves the next registration, so steady churn allocates nothing;
// and no record is ever shared by two registrations, even of one key.
func TestClosedFlowRowsAreBounded(t *testing.T) {
	Reset()
	defer Reset()
	const live, closes = 3, 10 * ClosedFlows
	for q := uint64(0); q < live; q++ {
		RegisterFlow(FlowKey{Host: "h", PID: 1, QID: q}, "h", &fixedProbe{})
	}
	for q := 0; q < closes; q++ {
		f := RegisterFlow(FlowKey{Host: "h", PID: 2, QID: uint64(q)}, "h", &fixedProbe{RingHW: int64(q), State: FlowClosed})
		f.AddTxN(1, int64(q))
		f.Freeze()
	}
	rows := Flows()
	if len(rows) != live+ClosedFlows {
		t.Fatalf("%d rows after %d closes, want the %d live ones and %d closed", len(rows), closes, live, ClosedFlows)
	}
	for _, r := range rows[live:] {
		if r.QID < closes-ClosedFlows || r.RingHW != int64(r.QID) || r.BytesTx != int64(r.QID) || r.State != "closed" {
			t.Fatalf("retained row %+v: want one of the last %d closes, with its final reading", r, ClosedFlows)
		}
	}

	p := &fixedProbe{}
	key := FlowKey{Host: "h", PID: 3, QID: 1}
	if allocs := testing.AllocsPerRun(1000, func() { RegisterFlow(key, "h", p).Freeze() }); allocs != 0 {
		t.Errorf("a register/freeze cycle allocates %.1f, want 0", allocs)
	}

	a := RegisterFlow(key, "h", p)
	b := RegisterFlow(key, "h", p)
	if a == b {
		t.Fatal("two registrations of one live key share a record")
	}
	a.AddTxN(1, 5)
	b.AddTxN(1, 7)
	a.Freeze()
	for q := 0; q < ClosedFlows; q++ { // evict a
		RegisterFlow(FlowKey{Host: "h", PID: 4, QID: uint64(q)}, "h", p).Freeze()
	}
	var got []FlowSnapshot
	for _, r := range Flows() {
		if r.PID == key.PID {
			got = append(got, r)
		}
	}
	if len(got) != 1 || got[0].BytesTx != 7 {
		t.Errorf("the key's rows after its first record was evicted: %+v, want the second's, with 7 bytes", got)
	}
	if b.bytesTx.Load() != 7 {
		t.Errorf("counting on one record showed on the other: %d bytes", b.bytesTx.Load())
	}

	Reset()
	if flows.next != 0 || flows.closed != [ClosedFlows]*Flow{} || len(flows.free) != 0 || len(Flows()) != 0 {
		t.Errorf("Reset left %d rows, %d free records and the closed ring at %d", len(Flows()), len(flows.free), flows.next)
	}
}

// TestRecorderCooldown: anomalies inside the cooldown window coalesce
// into a single dump; ForceDump bypasses; disarming suppresses.
func TestRecorderCooldown(t *testing.T) {
	Reset()
	defer Reset()
	var dumps []Dump
	SetSink(func(d Dump) { dumps = append(dumps, d) })
	Record(Span{Trace: 1, Span: 1, Start: 0, End: 5, Host: "h", PID: 1, Hop: HopApp, Op: OpConnect, OK: true})

	if !Trigger(TrigQPRecovery, 1_000, "first") {
		t.Fatal("first trigger did not dump")
	}
	if Trigger(TrigReset, 2_000, "cascade") {
		t.Fatal("trigger inside cooldown dumped")
	}
	if !Trigger(TrigReset, 1_000+DefaultCooldown, "later") {
		t.Fatal("trigger after cooldown did not dump")
	}
	SetArmed(false)
	if Trigger(TrigReset, 10*DefaultCooldown, "disarmed") {
		t.Fatal("disarmed trigger dumped")
	}
	fd := ForceDump(TrigMonitorRestart, 11*DefaultCooldown, "forced")
	if len(fd.Spans) != 1 {
		t.Fatalf("forced dump carries %d spans, want 1", len(fd.Spans))
	}
	if len(dumps) != 3 {
		t.Fatalf("sink saw %d dumps, want 3", len(dumps))
	}
	if dumps[0].Name != "qp_recovery" || dumps[0].Note != "first" {
		t.Fatalf("first dump wrong: %+v", dumps[0])
	}
}

// TestDumpChromeFormat: the Chrome trace output must be valid JSON with
// one event per span plus thread-name metadata.
func TestDumpChromeFormat(t *testing.T) {
	Reset()
	defer Reset()
	Record(Span{Trace: 1, Span: 1, Start: 100, End: 400, Host: "hostA", PID: 3, Hop: HopApp, Op: OpConnect, OK: true})
	Record(Span{Trace: 1, Span: 2, Parent: 1, Start: 120, End: 150, Host: "hostA", PID: 0, Hop: HopMonDispatch, Kind: 1})
	d := ForceDump(TrigReset, 500, "test")
	var buf bytes.Buffer
	if err := d.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		Reason      string           `json:"reason"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if doc.Reason != "reset" {
		t.Fatalf("reason = %q", doc.Reason)
	}
	var x, m int
	for _, ev := range doc.TraceEvents {
		switch ev["ph"] {
		case "X":
			x++
		case "M":
			m++
		}
	}
	if x != 2 || m != 2 {
		t.Fatalf("chrome trace has %d X events and %d M events, want 2 and 2", x, m)
	}
}

// chromeDoc writes d as Chrome trace_event JSON and parses it back.
func chromeDoc(t *testing.T, d Dump) []map[string]any {
	t.Helper()
	var buf bytes.Buffer
	if err := d.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.TraceEvents == nil {
		t.Fatalf("chrome trace has no traceEvents array:\n%s", buf.String())
	}
	return doc.TraceEvents
}

// TestDumpChromeEvents: every event becomes one "i" entry on its
// (host, pid) track, named and with its arguments.
func TestDumpChromeEvents(t *testing.T) {
	Reset()
	defer Reset()
	Record(Span{Trace: 1, Span: 100, Start: 100, End: 400, Host: "hostA", PID: 3, Hop: HopApp, Op: OpConnect, OK: true})
	Emit("hostA", 3, EvRecoveryAttempt, 0, 1500, 12, 2)
	Emit("hostA", 0, EvCtl, uint8(ctlmsg.KListen), 2500, 3, 0)
	var inst []map[string]any
	for _, ev := range chromeDoc(t, ForceDump(TrigManual, 3000, "events")) {
		if ev["ph"] == "i" {
			inst = append(inst, ev)
		}
	}
	if len(inst) != 2 {
		t.Fatalf("%d instant entries, want one per event: %v", len(inst), inst)
	}
	a, b := inst[0], inst[1]
	if a["name"] != "recovery_attempt" || a["cat"] != "core" || a["ts"] != 1.5 || a["s"] != "t" {
		t.Errorf("first instant = %v", a)
	}
	if args, _ := a["args"].(map[string]any); args["qid"] != 12.0 || args["attempt"] != 2.0 {
		t.Errorf("first instant args = %v, want qid 12 attempt 2", a["args"])
	}
	if b["name"] != "ctl/listen" || b["cat"] != "monitor" || b["tid"] == a["tid"] {
		t.Errorf("second instant = %v, want ctl/listen on the monitor's track", b)
	}
}

// TestDumpChromeEmpty: an empty dump still writes a valid document with
// an empty event array.
func TestDumpChromeEmpty(t *testing.T) {
	Reset()
	defer Reset()
	if evs := chromeDoc(t, Capture(TrigManual, 0, "empty")); len(evs) != 0 {
		t.Fatalf("empty dump wrote %d entries", len(evs))
	}
}
