// Package fault is the deterministic fault-injection layer: scripted,
// virtual-time schedules of network and device faults driven through the
// runtime-mutable knobs of fabric.Endpoint and arbitrary named hooks
// (forced QP errors, monitor pauses). Everything executes on the exec
// clock, so in Sim mode an identical schedule with an identical seed
// replays bit-for-bit — chaos runs are regression tests, not dice rolls.
//
// A schedule is a flat list of Events. Link faults name a registered link
// and mutate its endpoints — both directions by default, or only one when
// the event's Dir selects it — for Dur nanoseconds before restoring the
// pre-fault values; hook faults name a registered hook and invoke it.
// The injector records every applied fault under sd/fault/injected (plus a
// per-kind suffix) so experiments can assert on what actually happened.
package fault

import (
	"fmt"

	"socksdirect/internal/exec"
	"socksdirect/internal/fabric"
	"socksdirect/internal/telemetry"
)

var mInjected = telemetry.C(telemetry.FaultInjected)

// Kind names a fault class.
type Kind string

// The fault classes of the schedule format (see EXPERIMENTS.md).
const (
	LossBurst    Kind = "loss_burst"    // Link, Rate, Dur
	DelaySpike   Kind = "delay_spike"   // Link, Delay (extra one-way ns), Dur
	Partition    Kind = "partition"     // Link, Dur
	Flap         Kind = "flap"          // Link, Count cycles of (down Dur, up Gap)
	QPError      Kind = "qp_error"      // Hook
	MonitorPause Kind = "monitor_pause" // Hook
)

// Dir selects which registered endpoints of a link a fault hits. The
// default (Both) preserves the historical behaviour: every endpoint
// registered under the link name. Forward and Reverse select only the
// first or second registered endpoint, modelling asymmetric failures — a
// cable that drops frames one way, a switch port whose TX queue wedged —
// which partition only one direction of the duplex.
type Dir int

const (
	Both    Dir = iota // every registered endpoint (symmetric fault)
	Forward            // first registered endpoint only (A->B direction)
	Reverse            // second registered endpoint only (B->A direction)
)

// Event is one scheduled fault.
type Event struct {
	At   int64 // virtual ns after Run at which the fault starts
	Kind Kind
	Link string // target link (LossBurst/DelaySpike/Partition/Flap)
	Hook string // target hook (QPError/MonitorPause)
	Dir  Dir    // which direction(s) of the link the fault hits

	Dur   int64   // active duration; for Flap, the down time per cycle
	Gap   int64   // Flap only: up time between cycles (default Dur)
	Rate  float64 // LossBurst: drop probability while active
	Delay int64   // DelaySpike: extra one-way delay while active
	Count int     // Flap: number of down/up cycles (default 1)
}

// link is both directions of one registered full-duplex link.
type link struct {
	eps []*fabric.Endpoint
}

// sel returns the endpoints a fault with the given direction mutates.
// Forward/Reverse on a link registered with fewer endpoints than the
// selection needs fall back to everything registered — a one-endpoint
// link has no second direction to select.
func (l *link) sel(d Dir) []*fabric.Endpoint {
	switch d {
	case Forward:
		if len(l.eps) >= 1 {
			return l.eps[:1]
		}
	case Reverse:
		if len(l.eps) >= 2 {
			return l.eps[1:2]
		}
	}
	return l.eps
}

// Injector binds a schedule to concrete links and hooks.
type Injector struct {
	clk   exec.Clock
	links map[string]*link
	hooks map[string]func()
}

// New creates an injector on the given clock.
func New(clk exec.Clock) *Injector {
	return &Injector{
		clk:   clk,
		links: make(map[string]*link),
		hooks: make(map[string]func()),
	}
}

// AddLink registers the endpoints of one named link. Pass both sides of a
// full-duplex link so partitions and loss bursts hit both directions; the
// registration order is meaningful to directional events — Dir Forward
// selects the first endpoint registered, Reverse the second — so register
// the A->B transmitter first and the B->A transmitter second.
func (in *Injector) AddLink(name string, eps ...*fabric.Endpoint) {
	l := in.links[name]
	if l == nil {
		l = &link{}
		in.links[name] = l
	}
	l.eps = append(l.eps, eps...)
}

// AddHook registers a named side-effect (e.g. NIC.FailAllQPs, a monitor
// pause) that QPError/MonitorPause events invoke.
func (in *Injector) AddHook(name string, fn func()) {
	in.hooks[name] = fn
}

// Run schedules every event of the schedule on the clock and returns
// immediately; faults fire as virtual time reaches them. An event naming
// an unregistered link or hook is an error (a chaos run that silently
// injects nothing must not look green).
func (in *Injector) Run(sched []Event) error {
	for i := range sched {
		ev := sched[i] // copy: the closure outlives the caller's slice
		switch ev.Kind {
		case LossBurst, DelaySpike, Partition, Flap:
			l := in.links[ev.Link]
			if l == nil {
				return fmt.Errorf("fault: event %d (%s) names unregistered link %q", i, ev.Kind, ev.Link)
			}
			in.clk.After(ev.At, func() { in.applyLink(l, ev) })
		case QPError, MonitorPause:
			fn := in.hooks[ev.Hook]
			if fn == nil {
				return fmt.Errorf("fault: event %d (%s) names unregistered hook %q", i, ev.Kind, ev.Hook)
			}
			in.clk.After(ev.At, func() {
				in.record(ev.Kind)
				fn()
			})
		default:
			return fmt.Errorf("fault: event %d has unknown kind %q", i, ev.Kind)
		}
	}
	return nil
}

func (in *Injector) record(k Kind) {
	mInjected.Inc()
	telemetry.C(telemetry.FaultInjected + "/" + string(k)).Inc()
}

func (in *Injector) applyLink(l *link, ev Event) {
	in.record(ev.Kind)
	eps := l.sel(ev.Dir)
	switch ev.Kind {
	case LossBurst:
		for _, ep := range eps {
			ep.SetLossRate(ev.Rate)
		}
		in.clk.After(ev.Dur, func() {
			for _, ep := range eps {
				ep.SetLossRate(0)
			}
		})
	case DelaySpike:
		for _, ep := range eps {
			ep.SetExtraDelay(ev.Delay)
		}
		in.clk.After(ev.Dur, func() {
			for _, ep := range eps {
				ep.SetExtraDelay(0)
			}
		})
	case Partition:
		for _, ep := range eps {
			ep.SetPartitioned(true)
		}
		in.clk.After(ev.Dur, func() {
			for _, ep := range eps {
				ep.SetPartitioned(false)
			}
		})
	case Flap:
		count := ev.Count
		if count <= 0 {
			count = 1
		}
		gap := ev.Gap
		if gap <= 0 {
			gap = ev.Dur
		}
		in.flapCycle(l, ev, count, gap)
	}
}

// flapCycle runs one down/up cycle and chains the next. Cycles after the
// first record their own injection so the counter reflects every outage.
func (in *Injector) flapCycle(l *link, ev Event, remaining int, gap int64) {
	eps := l.sel(ev.Dir)
	for _, ep := range eps {
		ep.SetPartitioned(true)
	}
	in.clk.After(ev.Dur, func() {
		for _, ep := range eps {
			ep.SetPartitioned(false)
		}
		if remaining <= 1 {
			return
		}
		in.clk.After(gap, func() {
			in.record(ev.Kind)
			in.flapCycle(l, ev, remaining-1, gap)
		})
	})
}
