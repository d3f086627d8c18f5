package monitor

import (
	"socksdirect/internal/bufpool"
	"socksdirect/internal/core"
	"socksdirect/internal/exec"
	"socksdirect/internal/host"
	"socksdirect/internal/obs"
)

// Census counts what a world's hosts hold: everything a finished
// connection or a dead process must give back, and the free lists that keep
// some of it for reuse, each bounded by a constant. It is the one statement
// of "zero resource drift"; ARCHITECTURE.md "One census" says when it runs.
type Census struct {
	Segs, IdleSegs int   // SHM segments; IntraSocks and interSides on free lists
	QPs, ParkedQPs int   // QPs on the NICs, the parked ones apart
	MRs            int   // MRs, but for the pools of idle interSides
	Pinned, Frames int   // pinned frames; frames in use (off the address spaces' free pools)
	Endpoints      int   // libsd's registered RDMA endpoints
	Closing, Dials int   // inter-host sides closed and awaiting their peer; dials on record
	Records        int   // live monitor connection records
	Flows          int   // live sdstat rows, counted over the process-wide table
	Bufs           int64 // pooled buffers outstanding, process-wide
}

// TakeCensus counts over hosts, and over every process they made: a dead
// one's library holds nothing the kernel did not take back.
func TakeCensus(hosts ...*host.Host) Census {
	c := Census{Flows: obs.LiveFlows(), Bufs: bufpool.Outstanding()}
	pools := 0 // one per idle interSide: its MR, pins and frames are the side's
	for _, h := range hosts {
		c.Segs += h.SHM.Len()
		c.QPs += h.NIC.QPCount()
		c.MRs += h.NIC.MRCount()
		c.Pinned += h.Mem.PinnedCount()
		c.Frames += h.Mem.FrameCount()
		if m, ok := h.Mon.(*Monitor); ok {
			c.IdleSegs += m.IdleIntraSocks()
			c.Records += m.LiveConnRecords()
		}
		h.EachProcess(func(p *host.Process) {
			c.Frames -= p.AS.PoolSize()
			if l, ok := p.Libsd.(*core.Libsd); ok {
				hd := l.Holdings()
				c.IdleSegs += hd.IdleSides
				pools += hd.IdleSides
				c.ParkedQPs += hd.ParkedQPs
				c.Endpoints += hd.Endpoints
				c.Closing += hd.Closing
				c.Dials += hd.Dials
			}
		})
	}
	c.QPs -= c.ParkedQPs
	c.MRs -= pools
	c.Pinned -= pools * core.ZCPoolPages
	c.Frames -= pools * core.ZCPoolPages
	return c
}

// EndWorld ends a world through the crash path and returns the census of
// what is left: every live process on hosts is killed, the monitors run
// crash cleanup, every monitor stops and drops its channels, and sim runs
// until it is quiet. The process-wide columns count from base, the census
// taken when the world was built. A world that leaks nothing leaves the
// zero Census.
func EndWorld(sim *exec.Sim, base Census, hosts ...*host.Host) Census {
	for _, h := range hosts {
		if m, ok := h.Mon.(*Monitor); ok && m.stopped {
			Restart(h) // a live incarnation hears the deaths
		} else if ok {
			m.spawnLoops() // the last Run unwound them
		}
	}
	sim.Spawn("endworld", func(ctx exec.Context) {
		for _, h := range hosts {
			h.EachProcess(func(p *host.Process) {
				if !p.Dead() {
					p.Signal(ctx, host.SIGKILL)
				}
			})
		}
	})
	sim.Run()
	for _, h := range hosts {
		if m, ok := h.Mon.(*Monitor); ok {
			m.Stop()
			for _, p := range m.peerList {
				p.setChan(nil)
			}
		}
	}
	sim.Run()
	c := TakeCensus(hosts...)
	c.Flows -= base.Flows
	c.Bufs -= base.Bufs
	return c
}
