package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	sd "socksdirect"
	"socksdirect/internal/mem"
)

// The workloads never touch sd.T / sd.Listener / sd.Conn directly: they go
// through the shims below, which forward the call and, on a traced
// repetition, record a span around it. On untraced repetitions the lane is
// nil and a shim costs one nil check.

type spanName uint8

const (
	spOp spanName = iota // root: one measured op on a client thread
	spDial
	spAccept
	spSend
	spRecv
	spSendVA
	spRecvVA
	spClose
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"op", "core.dial", "core.accept", "core.send", "core.recv",
	"core.sendva", "core.recvva", "core.close",
}

// span is one recorded interval on both clocks. Host times are ns since the
// repetition started, sim times are virtual ns. id is the span's index in
// tracer.spans plus one; parent 0 means none.
type span struct {
	name        spanName
	server      bool
	op          int32 // measured-op index; every span of one op shares it
	parent      int32
	host0, sim0 int64
	host1, sim1 int64
}

// tracer holds the spans of one traced repetition in a slice sized before
// the run, so recording never allocates inside the window.
type tracer struct {
	base   time.Time
	spans  []span
	rootOf []int32 // op index -> id of its root span, 0 until it opens
	lanes  []*lane
	active bool
}

// lane is one simulated thread's view of the tracer.
type lane struct {
	tr     *tracer
	server bool
	// op is the op the thread is working on; -1 when a server thread does
	// not know yet (it learns it from the sequence number it receives).
	op int32
	// pending are this lane's spans recorded while op was -1.
	pending []int32
	// Client lanes: the open root span, and the op index the next root
	// takes (a lane's ops are numbered opNext, opNext+opStride, ...).
	root                      int32
	opFirst, opNext, opStride int32
}

// clientLane registers a thread that completes measured ops. Its k-th op
// has index first+k*stride, so several client threads interleave without
// colliding.
func (tr *tracer) clientLane(first, stride int) *lane {
	if tr == nil {
		return nil
	}
	ln := &lane{tr: tr, op: -1, opFirst: int32(first), opNext: int32(first), opStride: int32(stride)}
	tr.lanes = append(tr.lanes, ln)
	return ln
}

func (tr *tracer) serverLane() *lane {
	if tr == nil {
		return nil
	}
	return &lane{tr: tr, server: true, op: -1, pending: make([]int32, 0, 8)}
}

func (tr *tracer) add(s span) int32 {
	tr.spans = append(tr.spans, s)
	return int32(len(tr.spans))
}

func (tr *tracer) hostNow() int64 { return time.Since(tr.base).Nanoseconds() }

// open starts recording and opens the first root span of every client lane.
func (tr *tracer) open(sim int64) {
	tr.active = true
	h := tr.hostNow()
	for _, ln := range tr.lanes {
		ln.openRoot(h, sim)
	}
}

func (ln *lane) openRoot(host, sim int64) {
	ln.op = ln.opNext
	ln.opNext += ln.opStride
	ln.root = ln.tr.add(span{name: spOp, op: ln.op, host0: host, sim0: sim})
	ln.tr.rootOf[ln.op] = ln.root
}

// nextOp closes the lane's root span and opens the next one at the same
// instant, so a lane's roots tile its share of the window with no gaps.
// last is set by the op that closes the window: recording stops.
func (ln *lane) nextOp(sim int64, last bool) {
	h := ln.tr.hostNow()
	r := &ln.tr.spans[ln.root-1]
	r.host1, r.sim1 = h, sim
	if last {
		ln.tr.active = false
	}
	if int(ln.opNext) < len(ln.tr.rootOf) {
		ln.openRoot(h, sim)
	}
}

// setOp tells a server lane which op it is serving. Spans it recorded since
// the previous op ended (an Accept, the Recv that carried the sequence
// number) are assigned to it too.
func (ln *lane) setOp(op int) {
	if ln == nil {
		return
	}
	if op < 0 || op >= len(ln.tr.rootOf) {
		ln.op, ln.pending = -1, ln.pending[:0]
		return
	}
	ln.op = int32(op)
	for _, id := range ln.pending {
		s := &ln.tr.spans[id-1]
		s.op, s.parent = ln.op, ln.tr.rootOf[op]
	}
	ln.pending = ln.pending[:0]
}

// T, Listener and Conn are the span-recording shims over the sd types.
type T struct {
	*sd.T
	ln *lane
}

type Listener struct {
	l *sd.Listener
	t T
}

type Conn struct {
	c *sd.Conn
	t T
}

// begin opens a child span and returns its id, 0 when nothing is recorded.
func (t T) begin(name spanName) int32 {
	ln := t.ln
	if ln == nil || !ln.tr.active {
		return 0
	}
	s := span{name: name, server: ln.server, op: ln.op, host0: ln.tr.hostNow(), sim0: t.Now()}
	switch {
	case !ln.server:
		s.parent = ln.root
	case ln.op >= 0:
		s.parent = ln.tr.rootOf[ln.op]
	}
	id := ln.tr.add(s)
	if ln.server && ln.op < 0 {
		ln.pending = append(ln.pending, id)
	}
	return id
}

func (t T) end(id int32) {
	if id == 0 {
		return
	}
	s := &t.ln.tr.spans[id-1]
	s.host1, s.sim1 = t.ln.tr.hostNow(), t.Now()
}

func (t T) Dial(host string, port uint16) (Conn, error) {
	id := t.begin(spDial)
	c, err := t.T.Dial(host, port)
	t.end(id)
	return Conn{c, t}, err
}

func (t T) Listen(port uint16) (Listener, error) {
	l, err := t.T.Listen(port)
	return Listener{l, t}, err
}

func (l Listener) Accept() (Conn, error) {
	id := l.t.begin(spAccept)
	c, err := l.l.Accept()
	l.t.end(id)
	return Conn{c, l.t}, err
}

func (c Conn) Send(b []byte) (int, error) {
	id := c.t.begin(spSend)
	n, err := c.c.Send(b)
	c.t.end(id)
	return n, err
}

// Recv reads exactly len(b) bytes: one span around the whole message, as
// the application sees it.
func (c Conn) Recv(b []byte) (int, error) {
	id := c.t.begin(spRecv)
	n, err := c.c.RecvFull(b)
	c.t.end(id)
	return n, err
}

func (c Conn) SendVA(addr mem.VAddr, n int) (int, error) {
	id := c.t.begin(spSendVA)
	m, err := c.c.SendVA(addr, n)
	c.t.end(id)
	return m, err
}

// RecvVA receives exactly n bytes into simulated memory.
func (c Conn) RecvVA(addr mem.VAddr, n int) (int, error) {
	id := c.t.begin(spRecvVA)
	got := 0
	var err error
	for got < n && err == nil {
		var m int
		m, err = c.c.RecvVA(addr+mem.VAddr(got), n-got)
		got += m
	}
	c.t.end(id)
	return got, err
}

func (c Conn) Close() error {
	id := c.t.begin(spClose)
	err := c.c.Close()
	c.t.end(id)
	return err
}

// spanStat sums the spans of one name.
type spanStat struct {
	n         int
	host, sim int64
}

func (s spanStat) hostMean() float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.host) / float64(s.n)
}

func (s spanStat) simMean() float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.sim) / float64(s.n)
}

// stats sums closed spans by name; rootSelf is the client roots' time not
// covered by their own thread's child spans.
func (tr *tracer) stats() (by [numSpanNames]spanStat, rootSelf spanStat) {
	for i := range tr.spans {
		s := &tr.spans[i]
		if s.host1 == 0 {
			continue // still open when the window closed
		}
		st := &by[s.name]
		st.n++
		st.host += s.host1 - s.host0
		st.sim += s.sim1 - s.sim0
		switch {
		case s.name == spOp:
			rootSelf.n++
			rootSelf.host += s.host1 - s.host0
			rootSelf.sim += s.sim1 - s.sim0
		case !s.server:
			rootSelf.host -= s.host1 - s.host0
			rootSelf.sim -= s.sim1 - s.sim0
		}
	}
	return by, rootSelf
}

// checkTiling asserts what makes the span file trustworthy: on every client
// lane the root spans follow each other without gap or overlap from the
// window's open, and the last one to end ends with the window — exactly on
// the simulated clock, within 1 % of the window on the host clock (the
// window and the tracer read the host clock separately).
func (tr *tracer) checkTiling(r *rep) error {
	hostOpen := r.hostOpen.Sub(tr.base).Nanoseconds()
	hostClose := r.hostClose.Sub(tr.base).Nanoseconds()
	slack := (hostClose - hostOpen) / 100
	var roots int
	var lastSim, lastHost int64
	for _, ln := range tr.lanes {
		sim, host := r.simOpen, int64(-1)
		for op := int(ln.opFirst); op < len(tr.rootOf); op += int(ln.opStride) {
			id := tr.rootOf[op]
			if id == 0 {
				return fmt.Errorf("op %d has no root span", op)
			}
			s := &tr.spans[id-1]
			if s.sim0 != sim || (host >= 0 && s.host0 != host) {
				return fmt.Errorf("root span of op %d starts at sim %d, previous ended at %d", op, s.sim0, sim)
			}
			if host < 0 && abs(s.host0-hostOpen) > slack {
				return fmt.Errorf("first root span starts %d host ns from the window open", s.host0-hostOpen)
			}
			sim, host = s.sim1, s.host1
			roots++
		}
		if sim > lastSim {
			lastSim = sim
		}
		if host > lastHost {
			lastHost = host
		}
	}
	if roots != r.ops {
		return fmt.Errorf("%d root spans for %d ops", roots, r.ops)
	}
	if lastSim != r.simClose {
		return fmt.Errorf("root spans end at sim %d, window at %d", lastSim, r.simClose)
	}
	if abs(lastHost-hostClose) > slack {
		return fmt.Errorf("root spans end %d host ns from the window close", lastHost-hostClose)
	}
	return nil
}

func abs(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// spanJSON is the file form of a span.
type spanJSON struct {
	ID        int    `json:"id"`
	Parent    int32  `json:"parent"`
	Name      string `json:"name"`
	Side      string `json:"side"`
	Op        int32  `json:"op"`
	HostStart int64  `json:"host_start_ns"`
	HostEnd   int64  `json:"host_end_ns"`
	SimStart  int64  `json:"sim_start_ns"`
	SimEnd    int64  `json:"sim_end_ns"`
}

// write stores the repetition's spans as <dir>/<workload>.spans.json.
func (tr *tracer) write(dir string, r *rep) (err error) {
	f, err := os.Create(filepath.Join(dir, r.w.name+".spans.json"))
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	fmt.Fprintf(f, `{"workload":%q,"seed":%d,"ops":%d,"window_host_ns":[%d,%d],"window_sim_ns":[%d,%d],"spans":[`,
		r.w.name, r.seed, r.ops, r.hostOpen.Sub(tr.base).Nanoseconds(), r.hostClose.Sub(tr.base).Nanoseconds(), r.simOpen, r.simClose)
	enc := json.NewEncoder(f)
	for i := range tr.spans {
		s := &tr.spans[i]
		if i > 0 {
			fmt.Fprint(f, ",")
		}
		side := "client"
		if s.server {
			side = "server"
		}
		if err := enc.Encode(spanJSON{i + 1, s.parent, spanNames[s.name], side, s.op, s.host0, s.host1, s.sim0, s.sim1}); err != nil {
			return err
		}
	}
	_, err = fmt.Fprintln(f, "]}")
	return err
}
