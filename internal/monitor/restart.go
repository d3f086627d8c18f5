package monitor

import (
	"sort"

	"socksdirect/internal/ctlmsg"
	"socksdirect/internal/exec"
	"socksdirect/internal/host"
	"socksdirect/internal/obs"
	"socksdirect/internal/shm"
)

// Monitor restart survivability. The monitor is the per-host trusted
// daemon, but it is still a process: it can crash and be restarted. The
// data plane must not care — SHM rings and RDMA QPs are peer-to-peer and
// keep moving bytes — while the control plane's in-memory state (bind
// tables, connection records, token bookkeeping) dies with
// the daemon. Restart brings up incarnation N+1 over the old incarnation's
// per-process control queues (SHM outlives the daemon) and resurrects the
// lost state by asking every live process to re-register what it holds.

// Restart stops the incarnation currently attached to h (if it has not
// already stopped or crashed) and starts its successor with the next
// epoch. The successor adopts every live process's existing control
// duplex — registration survives, no process action needed — and owes
// each one a KReRegister, which the daemon loop sends before touching any
// other work. The predecessor's monitor channels are closed, and the
// successor probes each host it watched: its SYN, from a newer incarnation,
// is never a crossing, so it replaces the survivor's half of the old pair.
// Returns the new incarnation.
func Restart(h *host.Host) *Monitor {
	old, _ := h.Mon.(*Monitor)
	if old == nil {
		return nil
	}
	old.Stop()
	epoch := old.epoch + 1
	adopted := make([]*procChan, 0, len(old.procs))
	for _, pc := range old.procs {
		if !pc.p.Dead() {
			adopted = append(adopted, pc)
		}
	}
	sort.Slice(adopted, func(i, j int) bool { return adopted[i].p.PID < adopted[j].p.PID })

	m := startEpoch(h, old.KS, epoch)
	m.reregOwed = make(map[int]bool, len(adopted))
	for _, pc := range adopted {
		pc.out = nil // what the old incarnation had yet to say died with it
		m.procs[pc.p.PID] = pc
		m.needReReg = append(m.needReReg, pc.p.PID)
		m.reregOwed[pc.p.PID] = true
	}
	for _, p := range old.peerList {
		if p.live.watched() { // as is every host a channel leads to
			p.setChan(nil)
			m.probe(m.peerOf(p.name))
		}
	}
	m.rebuildProcList()
	mRestarts.Inc()
	obs.Trigger(obs.TrigMonitorRestart, h.Clk.Now(), "monitor restart: "+h.Name)
	m.wakeAll()
	return m
}

// reRegister asks one adopted process to replay its control-plane state
// into this incarnation. Every thread of the process also gets one
// spurious wake: a receiver parked across the outage may have missed the
// KWake that died with the old daemon, and a parked thread is the only
// one that will run its control-queue poll and answer the KReRegister.
// Neither side waits on a full ring: the report the handler writes queues
// in libsd behind a full plane, and the shard that drains the plane
// notifies the process to write the rest.
func (m *Monitor) reRegister(ctx exec.Context, pid int) {
	if p := m.H.Process(pid); p != nil && !p.Dead() {
		p.EachThread(func(t *host.Thread) {
			mWakes.Inc()
			m.H.Clk.After(m.H.Costs.ProcessWakeup, t.H.Unpark)
		})
	}
	op := obs.BeginOp(m.H.Name, 0, obs.OpReRegister, ctx.Now())
	rm := ctlmsg.Msg{Kind: ctlmsg.KReRegister, PID: int64(pid),
		TraceID: op.Trace, SpanID: op.Span}
	m.sendTo(ctx, pid, &rm, true)
	op.End(ctx.Now(), true)
}

// onReRegistered consumes one record of a process's re-registration
// report (KReRegistered, sub-typed by Aux; see ctlmsg.ReReg*). Records
// are idempotent — a replayed report, or two endpoints of the same
// intra-host socket each describing it, must converge to one consistent
// entry — because the reporting process may itself retry on its bounded
// wait if the daemon restarts again mid-report.
func (m *Monitor) onReRegistered(ctx exec.Context, pc *procChan, cm *ctlmsg.Msg) {
	pid := pc.p.PID
	switch cm.Aux {
	case ctlmsg.ReRegListen:
		// A live listener: back into the bind table (and the dual kernel
		// listener, which Stop closed to free the port for us).
		m.addListener(cm.Port, pid, int(cm.TID))
	case ctlmsg.ReRegConn:
		c := m.shardOf(cm.QID).conn(cm.QID)
		if c.phase == bare {
			c.advance(adopted)
		}
		if peer := cm.HostStr(); peer != "" && peer != m.H.Name {
			// The channel toward peer is the successor's probe's (Restart).
			c.peerHost = peer
		}
		if cm.Dir == 1 {
			c.pids[1] = pid
		} else {
			c.pids[0] = pid
		}
		if cm.ShmToken != 0 {
			// SHM segment accounting: crash cleanup needs the token to
			// reclaim the socket's segment once no endpoint survives.
			c.shmTok = shm.Token(cm.ShmToken)
		}
	case ctlmsg.ReRegPend:
		// An in-flight connect that was awaiting KConnectRes: restore the
		// reply routing so the server side's KMSynAck (or the client's
		// own re-sent KConnect) can complete it.
		if c := m.shardOf(cm.ConnID).conn(cm.ConnID); c.phase == bare {
			c.advance(pending)
			c.pids[0] = pid
		}
	case ctlmsg.ReRegDone:
		delete(m.reregOwed, pid)
		mRereg.Inc()
	}
}
