package experiments

import (
	"errors"
	"testing"

	sd "socksdirect"
)

// dialUnderKill is one cross-host dial whose server process is SIGKILLed
// killAfter ns into it. With warm set, a first dial → echo → close has left
// the pair's QPs parked, so the killed dial goes out on one of them. It
// reports how the dial ended and whether it had to be put down: the "no
// unbounded wait" invariant says it returns on its own.
func dialUnderKill(warm bool, killAfter int64) (err error, took int64, hung bool) {
	cl := sd.NewCluster(sd.Defaults())
	a, b := cl.AddHost("a"), cl.AddHost("b")
	sd.PeerMonitors(a, b)
	pr := newPair(b, a, "k", 7600)
	pr.srv.Go("srv", func(t *sd.T) {
		acceptLoop(t, pr.port, 0, func(c *sd.Conn) {
			echoOnce(c)
			c.Recv(make([]byte, 1)) // the client's close
			c.Close()
		})
	})
	reaper := a.NewProcess("reaper", 0)
	const bound = 50 * sd.Millisecond // five times the monitor-silence limit
	var st dialStats
	done := false
	pr.cli.Go("cli", func(t *sd.T) {
		t.Sleep(10 * sd.Microsecond)
		if warm {
			c, err := st.dial(t, pr.dst, pr.port)
			if err != nil {
				return
			}
			st.probe(c)
			c.Close()
			t.Sleep(sd.Millisecond) // both QPs are parked, the listener asleep
		}
		killAt(reaper, pr.port, killAfter, pr.srv)
		reaper.Go("watchdog", func(w *sd.T) {
			w.Sleep(bound)
			if !done {
				hung = true
				w.Kill(pr.cli)
			}
		})
		var c *sd.Conn
		c, err = st.dial(t, pr.dst, pr.port)
		took, done = st.lastNs, true
		if c != nil {
			st.probe(c) // the kill came after the answer: a reset, not ours to judge
			c.Close()
		}
	})
	cl.Run()
	return err, took, hung
}

// TestDialReturnsWhenServerDiesMidDial: whenever the server process dies
// during a dial — before the SYN reaches it, inside the 30 µs QP creation of
// its KNewConn handler, after its answer left — the dial returns: connected,
// refused, or reset when the answer was in and the server's MAck was not. A
// dial still waiting for KConnectRes has no socket to mark dead, and used to
// poll on for ever while its own monitor answered every ping.
func TestDialReturnsWhenServerDiesMidDial(t *testing.T) {
	for _, tc := range []struct {
		name       string
		warm       bool
		last, step int64
	}{
		{"cold", false, 300 * sd.Microsecond, 5 * sd.Microsecond},
		{"parked", true, 20 * sd.Microsecond, 500},
	} {
		t.Run(tc.name, func(t *testing.T) {
			connected, refused, reset := 0, 0, 0
			for at := int64(0); at <= tc.last; at += tc.step {
				err, took, hung := dialUnderKill(tc.warm, at)
				switch {
				case hung:
					t.Errorf("%s", boundedWait(false, "server killed %d ns into the dial: it never returned", at).detail)
				case err == nil:
					connected++
				case errors.Is(err, sd.ErrNoListener) || errors.Is(err, sd.ECONNREFUSED):
					refused++
				case errors.Is(err, sd.ECONNRESET):
					reset++
				default:
					t.Errorf("server killed %d ns into the dial: %v after %d ns, want a refusal or a reset", at, err, took)
				}
			}
			t.Logf("%d dials connected, %d were refused, %d reset", connected, refused, reset)
			if connected == 0 || refused == 0 {
				t.Errorf("the kill times do not span the dial: %d connected, %d refused", connected, refused)
			}
		})
	}
}
