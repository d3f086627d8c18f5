package core

import (
	"slices"
	"testing"

	"socksdirect/internal/costmodel"
	"socksdirect/internal/ctlmsg"
	"socksdirect/internal/exec"
	"socksdirect/internal/host"
	"socksdirect/internal/shm"
)

// TestCtlQueuesBehindAFullRing is libsd's half of the full-ring rule, against
// a stand-in monitor that only reads and writes the link. A send that finds
// its plane's ring full, and every send on the plane after it, waits in
// ctlOut in order and marks the plane (LibQueued). While the mark stands the
// library is idle; once the monitor has drained the plane and cleared it,
// the library is not, and its next poll writes the rest and rings the
// shard. A plane the monitor marked (MonQueued) rings its shard once pollCtl
// has drained it, and only then.
func TestCtlQueuesBehindAFullRing(t *testing.T) {
	costs := costmodel.Default
	h := host.New("h", exec.NewSim(exec.SimConfig{}), &costs, 1)
	var rung []int
	link := &ProcLink{WakeMonitor: func(s int) { rung = append(rung, s) }}
	for range 4 {
		link.Ds = append(link.Ds, shm.NewDuplex(8<<10))
	}
	l, err := initWith(h.NewProcess("app", 0), link)
	if err != nil {
		t.Fatal(err)
	}
	const plane = 1
	monitorReads := func() (pids []int64) {
		for rx := link.Ds[plane].B().RX; ; {
			msg, ok := rx.TryRecv()
			if !ok {
				return pids
			}
			m, _ := ctlmsg.Unmarshal(msg.Payload)
			pids = append(pids, m.PID)
		}
	}
	var sent []int64
	send := func() {
		m := ctlmsg.Msg{Kind: ctlmsg.KPing, PID: int64(len(sent)), Shard: plane}
		l.sendCtl(&m)
		sent = append(sent, m.PID)
	}
	for l.ctlOutMask == 0 {
		send()
	}
	for range 60 { // more than the ring holds: two rounds to write
		send()
	}
	if link.LibQueued.Load() != 1<<plane || !l.ctlIdle() {
		t.Fatalf("queued %d: mark %b, idle %v; want the plane marked and the library idle",
			len(l.ctlOut[plane]), link.LibQueued.Load(), l.ctlIdle())
	}
	var got []int64
	for round := 0; l.ctlOutMask != 0; round++ {
		if round == 3 {
			t.Fatalf("%d messages still queued after three rounds", len(l.ctlOut[plane]))
		}
		got = append(got, monitorReads()...)
		link.LibQueued.And(^uint32(1 << plane)) // what the shard does after draining
		if l.ctlIdle() {
			t.Fatal("the monitor drained the plane, and the library still calls itself idle")
		}
		rung = nil
		l.pollCtl(exec.Context{})
		if !slices.Contains(rung, plane) {
			t.Errorf("round %d: the poll wrote queued messages and rang %v", round, rung)
		}
	}
	got = append(got, monitorReads()...)
	if !slices.Equal(got, sent) {
		t.Errorf("the monitor read %d messages in the order %v..., want the %d sent in order", len(got), got[:min(len(got), 8)], len(sent))
	}

	// The monitor's side: a message on plane 2, which the monitor marked.
	pong := ctlmsg.Msg{Kind: ctlmsg.KPong, Shard: 2}
	var buf [ctlmsg.Size]byte
	link.Ds[2].B().TX.TrySend(0, 0, pong.Marshal(buf[:]))
	link.MonQueued.Or(1 << 2)
	rung = nil
	l.pollCtl(exec.Context{})
	if !slices.Equal(rung, []int{2}) || link.MonQueued.Load() != 0 {
		t.Errorf("a drained marked plane rang %v and left the mark %b; want shard 2 rung and the mark cleared", rung, link.MonQueued.Load())
	}
	rung = nil
	l.pollCtl(exec.Context{})
	if len(rung) != 0 {
		t.Errorf("an empty poll with no mark rang %v", rung)
	}
}
