package obs

import (
	"fmt"
	"sort"
	"strings"
)

// TraceView is one merged operation timeline: the root span, every hop
// span gathered from all per-process rings, and the telescoped per-hop
// latency breakdown along the causal spine.
type TraceView struct {
	Trace uint64
	Root  Span
	Spans []Span // causal (DFS) order, root first
	Hops  []HopLatency
}

// HopLatency is one leg of the breakdown. For spine hop i the latency is
// the gap from that hop's start to the next hop's start (the final entry
// closes back to the root span's end), so the entries telescope: they
// sum exactly to the root span's duration.
type HopLatency struct {
	Hop  Hop
	Kind uint8 // ctlmsg kind on the wire for this leg (0 for app legs)
	Host string
	Ns   int64
}

// Duration returns the end-to-end operation latency.
func (tv *TraceView) Duration() int64 { return tv.Root.End - tv.Root.Start }

// HopCount returns the number of spans on the causal spine, including
// the root — the "≥5 causally-ordered hops" of a cross-host connect.
func (tv *TraceView) HopCount() int { return len(tv.Hops) }

// Complete reports whether the trace finished (root closed OK) and its
// spine visits at least minHops spans.
func (tv *TraceView) Complete(minHops int) bool {
	return tv.Root.OK && tv.Root.End > tv.Root.Start && tv.HopCount() >= minHops
}

// MergeAll merges every trace that has a closed root span, most recent
// first. Events belong to no trace and are left out.
func MergeAll() []TraceView {
	byTrace := map[uint64][]Span{}
	for _, sp := range AllSpans() {
		if sp.Trace != 0 {
			byTrace[sp.Trace] = append(byTrace[sp.Trace], sp)
		}
	}
	var out []TraceView
	for id, spans := range byTrace {
		if tv, ok := mergeSpans(id, spans); ok {
			out = append(out, tv)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Root.Start > out[j].Root.Start })
	return out
}

func mergeSpans(trace uint64, spans []Span) (TraceView, bool) {
	tv := TraceView{Trace: trace}
	var root *Span
	children := map[uint64][]Span{}
	for i := range spans {
		sp := spans[i]
		if sp.Hop == HopApp && sp.Parent == 0 {
			root = &spans[i]
			continue
		}
		children[sp.Parent] = append(children[sp.Parent], sp)
	}
	if root == nil {
		return tv, false
	}
	tv.Root = *root
	for _, kids := range children {
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	}
	// DFS from the root, children in start order.
	var walk func(sp Span)
	walk = func(sp Span) {
		tv.Spans = append(tv.Spans, sp)
		for _, kid := range children[sp.Span] {
			walk(kid)
		}
	}
	walk(*root)

	// The causal spine: follow the last-started child at every level.
	spine := []Span{*root}
	cur := root.Span
	for {
		kids := children[cur]
		if len(kids) == 0 {
			break
		}
		last := kids[len(kids)-1]
		spine = append(spine, last)
		cur = last.Span
	}
	// Telescoped breakdown: each leg runs from a spine span's start to
	// the next span's start; the final leg closes to the root's end, so
	// the legs sum exactly to the root duration.
	for i := 0; i < len(spine); i++ {
		var ns int64
		if i+1 < len(spine) {
			ns = spine[i+1].Start - spine[i].Start
		} else {
			ns = tv.Root.End - spine[i].Start
		}
		tv.Hops = append(tv.Hops, HopLatency{
			Hop: spine[i].Hop, Kind: spine[i].Kind, Host: spine[i].Host, Ns: ns,
		})
	}
	return tv, true
}

// Format renders the merged trace as an indented per-hop table.
func (tv *TraceView) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace %d: op=%s host=%s pid=%d dur=%dns ok=%v\n",
		tv.Trace, tv.Root.Op, tv.Root.Host, tv.Root.PID, tv.Duration(), tv.Root.OK)
	for _, h := range tv.Hops {
		fmt.Fprintf(&b, "  %-13s %-10s %8dns\n", h.Hop, h.Host, h.Ns)
	}
	return b.String()
}
