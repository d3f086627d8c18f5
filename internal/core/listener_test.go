package core_test

import (
	"errors"
	"testing"

	"socksdirect/internal/core"
	"socksdirect/internal/exec"
	"socksdirect/internal/host"
)

// TestStaleListenerCloseKeepsSuccessorBound: closing a listener a second
// time, after the port was bound again, must not unregister the listener
// that now holds the port.
func TestStaleListenerCloseKeepsSuccessorBound(t *testing.T) {
	w := newWorld(t)
	sp, sl := proc(t, w.a, "server", 0)
	cp, cl := proc(t, w.a, "client", 1000)
	rebound := false
	var accepted, dialErr error = errors.New("no accept"), errors.New("no dial")
	sp.Spawn("srv", func(ctx exec.Context, th *host.Thread) {
		old, err := sl.ListenOn(ctx, th, 7000)
		if err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		old.Close(ctx)
		live, err := sl.ListenOn(ctx, th, 7000)
		if err != nil {
			t.Errorf("listen again: %v", err)
			return
		}
		old.Close(ctx) // stale
		rebound = true
		_, _, accepted = live.Accept(ctx)
	})
	cp.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
		for !rebound {
			ctx.Sleep(1_000)
		}
		ctx.Sleep(10_000)
		_, _, dialErr = cl.Connect(ctx, th, "hostA", 7000)
	})
	w.sim.Run()
	if dialErr != nil || accepted != nil {
		t.Fatalf("dial after a stale Close: dial %v, accept %v; want both nil", dialErr, accepted)
	}
}

// TestStaleCloseLeavesReusedFD: a descriptor freed by Close and handed to
// a new socket belongs to the new socket. A second Close of the old
// listener must not free it again; a second Close of a connection already
// returns EBADF and leaves it alone.
func TestStaleCloseLeavesReusedFD(t *testing.T) {
	w := newWorld(t)
	sp, sl := proc(t, w.a, "server", 0)
	cp, cl := proc(t, w.a, "client", 1000)
	sp.Spawn("srv", func(ctx exec.Context, th *host.Thread) {
		lst, err := sl.ListenOn(ctx, th, 7001)
		if err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		for range 2 {
			if _, _, err := lst.Accept(ctx); err != nil {
				t.Errorf("accept: %v", err)
			}
		}
	})
	cp.Spawn("cli", func(ctx exec.Context, th *host.Thread) {
		ctx.Sleep(10_000)
		old, err := cl.ListenOn(ctx, th, 7002)
		if err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		old.Close(ctx)
		live, err := cl.ListenOn(ctx, th, 7003)
		if err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		if live.FD() != old.FD() {
			t.Errorf("new listener got fd %d, want the freed %d", live.FD(), old.FD())
		}
		old.Close(ctx) // stale
		next, err := cl.ListenOn(ctx, th, 7004)
		if err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		if next.FD() == live.FD() {
			t.Errorf("a stale listener Close freed fd %d while its successor holds it", live.FD())
		}

		// The control case: a connection closed twice.
		c, _, err := cl.Connect(ctx, th, "hostA", 7001)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		if err := c.Close(ctx, th); err != nil {
			t.Errorf("close: %v", err)
		}
		c2, _, err := cl.Connect(ctx, th, "hostA", 7001)
		if err != nil {
			t.Errorf("dial: %v", err)
			return
		}
		if c2.FD() != c.FD() {
			t.Errorf("new connection got fd %d, want the freed %d", c2.FD(), c.FD())
		}
		if err := c.Close(ctx, th); !errors.Is(err, core.ErrBadFD) {
			t.Errorf("second connection Close: want EBADF, got %v", err)
		}
		last, err := cl.ListenOn(ctx, th, 7005)
		if err != nil {
			t.Errorf("listen: %v", err)
			return
		}
		if last.FD() == c2.FD() {
			t.Errorf("a stale connection Close freed fd %d while its successor holds it", c2.FD())
		}
	})
	w.sim.Run()
}
