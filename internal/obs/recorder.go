package obs

import (
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"socksdirect/internal/telemetry"
)

var (
	mDumps    = telemetry.C(telemetry.ObsDumps)
	mTriggers = telemetry.C(telemetry.ObsTriggers)
)

// TrigReason says why the flight recorder dumped.
type TrigReason uint8

// Flight-recorder trigger reasons.
const (
	TrigReset          TrigReason = iota + 1 // ECONNRESET surfaced on a socket
	TrigQPRecovery                           // a QP recovery completed
	TrigMonitorRestart                       // monitor came back in a new epoch
	TrigManual                               // ForceDump from a soak driver or CLI
	TrigOverloadShed                         // bounded queue shed work under overload
)

var trigNames = [...]string{
	TrigReset:          "reset",
	TrigQPRecovery:     "qp_recovery",
	TrigMonitorRestart: "monitor_restart",
	TrigManual:         "manual",
	TrigOverloadShed:   "overload_shed",
}

// String returns the reason's stable lower-case name.
func (t TrigReason) String() string {
	if int(t) < len(trigNames) && trigNames[t] != "" {
		return trigNames[t]
	}
	return "unknown"
}

// Dump is one flight-recorder artifact: every span and event the rings
// and every row the flow table held at trigger time.
type Dump struct {
	Reason TrigReason
	Name   string
	At     int64 // virtual time of the trigger
	Note   string
	Spans  []Span // spans and events, by time
	Flows  []FlowSnapshot
}

// DefaultCooldown spaces dumps apart: cascading anomalies (a reset on
// every socket a crash ends) produce one artifact, not a stampede.
const DefaultCooldown = 50_000_000 // 50 ms virtual

var recorder struct {
	mu       sync.Mutex
	sink     func(Dump)
	lastDump int64 // virtual time of the last dump; -1 = never
	armed    atomic.Bool
	cooldown atomic.Int64
}

func init() {
	recorder.lastDump = -1
	recorder.armed.Store(true)
	recorder.cooldown.Store(DefaultCooldown)
}

// SetCooldown sets the minimum virtual-time gap between dumps.
func SetCooldown(ns int64) { recorder.cooldown.Store(ns) }

// SetArmed enables or disables anomaly-triggered dumps (ForceDump still
// works). Soaks that induce faults on purpose disarm the recorder for
// their warm-up, then re-arm.
func SetArmed(v bool) { recorder.armed.Store(v) }

// SetSink routes every dump to fn. Tests and drills use it to observe
// dumps in-process; cmd/sdbench writes the ones it keeps to files.
func SetSink(fn func(Dump)) {
	recorder.mu.Lock()
	recorder.sink = fn
	recorder.mu.Unlock()
}

// Trigger reports an anomaly at virtual time now. If the recorder is
// armed and outside the cooldown window it captures and delivers a dump;
// the return value says whether a dump was produced.
func Trigger(reason TrigReason, now int64, note string) bool {
	mTriggers.Inc()
	if !recorder.armed.Load() {
		return false
	}
	recorder.mu.Lock()
	cd := recorder.cooldown.Load()
	if recorder.lastDump >= 0 && now-recorder.lastDump < cd {
		recorder.mu.Unlock()
		return false
	}
	recorder.lastDump = now
	recorder.mu.Unlock()
	deliver(Capture(reason, now, note))
	return true
}

// ForceDump captures and delivers a dump unconditionally (soak drivers
// call it when an assertion fails, so the failure ships its own
// evidence). The dump is also returned for in-process inspection.
func ForceDump(reason TrigReason, now int64, note string) Dump {
	d := Capture(reason, now, note)
	deliver(d)
	return d
}

// Capture snapshots the rings and the flow table without delivering or
// counting a dump (sdbench -trace writes one at exit).
func Capture(reason TrigReason, now int64, note string) Dump {
	spans := AllSpans()
	slices.SortFunc(spans, func(a, b Span) int {
		return cmp.Or(cmp.Compare(a.Start, b.Start), cmp.Compare(a.Span, b.Span))
	})
	return Dump{
		Reason: reason, Name: reason.String(), At: now, Note: note,
		Spans: spans, Flows: Flows(),
	}
}

func deliver(d Dump) {
	mDumps.Inc()
	recorder.mu.Lock()
	sink := recorder.sink
	recorder.mu.Unlock()
	if sink != nil {
		sink(d)
	}
}

// resetRecorder restores defaults (called from Reset).
func resetRecorder() {
	recorder.mu.Lock()
	recorder.sink = nil
	recorder.lastDump = -1
	recorder.mu.Unlock()
	recorder.armed.Store(true)
	recorder.cooldown.Store(DefaultCooldown)
}

// chromeSpan is one "X" (complete) event of the Chrome trace_event
// format; each (host, pid) gets its own track via metadata events.
type chromeSpan struct {
	Name  string            `json:"name"`
	Cat   string            `json:"cat"`
	Phase string            `json:"ph"`
	TS    float64           `json:"ts"`  // microseconds
	Dur   float64           `json:"dur"` // microseconds
	PID   int               `json:"pid"`
	TID   int               `json:"tid"`
	Args  map[string]uint64 `json:"args,omitempty"`
}

// chromeMark is an "i" (instant) event — an obs Event with its arguments
// by name, scoped to its track — or the "M" metadata entry naming a track.
type chromeMark struct {
	Name  string  `json:"name"`
	Cat   string  `json:"cat,omitempty"`
	Phase string  `json:"ph"`
	Scope string  `json:"s,omitempty"`
	TS    float64 `json:"ts"` // microseconds
	PID   int     `json:"pid"`
	TID   int     `json:"tid"`
	Args  any     `json:"args"`
}

// WriteChrome serializes the dump as Chrome trace_event JSON (open in
// chrome://tracing or Perfetto): one track per (host, process), spans as
// complete events with trace/span IDs in args, events as instant events
// with their arguments.
func (d *Dump) WriteChrome(w io.Writer) error {
	type track struct {
		host string
		pid  int64
	}
	tids := map[track]int{}
	var keys []track
	for _, sp := range d.Spans {
		if k := (track{sp.Host, sp.PID}); tids[k] == 0 {
			tids[k] = -1
			keys = append(keys, k)
		}
	}
	slices.SortFunc(keys, func(a, b track) int {
		return cmp.Or(strings.Compare(a.host, b.host), cmp.Compare(a.pid, b.pid))
	})
	out := make([]any, 0, len(d.Spans)+len(keys))
	for i, k := range keys {
		tids[k] = i + 1
		name := fmt.Sprintf("%s/pid%d", k.host, k.pid)
		if k.pid == 0 {
			name = k.host + "/monitor"
		}
		out = append(out, chromeMark{
			Name: "thread_name", Phase: "M", PID: 1, TID: i + 1,
			Args: map[string]string{"name": name},
		})
	}
	for _, sp := range d.Spans {
		tid := tids[track{sp.Host, sp.PID}]
		if sp.Hop == HopEvent {
			out = append(out, chromeMark{
				Name: sp.Name(), Cat: sp.Ev.Component(), Phase: "i", Scope: "t",
				TS: float64(sp.Start) / 1e3, PID: 1, TID: tid, Args: sp.Args(),
			})
			continue
		}
		out = append(out, chromeSpan{
			Name: sp.Name(), Cat: "obs", Phase: "X",
			TS:  float64(sp.Start) / 1e3,
			Dur: float64(sp.End-sp.Start) / 1e3,
			PID: 1, TID: tid,
			Args: map[string]uint64{
				"trace": sp.Trace, "span": sp.Span, "parent": sp.Parent,
				"kind": uint64(sp.Kind),
			},
		})
	}
	enc := json.NewEncoder(w)
	doc := struct {
		TraceEvents []any  `json:"traceEvents"`
		Unit        string `json:"displayTimeUnit"`
		Reason      string `json:"reason"`
		Note        string `json:"note"`
	}{TraceEvents: out, Unit: "ns", Reason: d.Name, Note: d.Note}
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("obs: write chrome trace: %w", err)
	}
	return nil
}
