package experiments

import (
	"fmt"
	"io"
	"testing"

	sd "socksdirect"
	"socksdirect/internal/bufpool"
)

// TestVerifierFlagsFirstBadOffset: the lockstep verifier must catch the
// three ways a stream goes wrong — a corrupted byte, a lost chunk, a
// duplicated chunk — and name the first affected offset.
func TestVerifierFlagsFirstBadOffset(t *testing.T) {
	const chunk, chunks = 300, 8 // chunk is no multiple of the verifier's block
	seed := seedFor(7400, 7)
	stream, state := make([]byte, chunk*chunks), seed
	xorshiftFill(stream, &state)
	at := func(i int) []byte { return stream[i*chunk : (i+1)*chunk] }

	feed := func(pieces ...[]byte) *verifier {
		v := &verifier{state: seed}
		for _, p := range pieces {
			v.check(p)
		}
		return v
	}
	if v := feed(at(0), at(1), at(2), at(3)); v.mismatches != 0 || v.delivered != 4*chunk {
		t.Fatalf("clean stream: %d mismatches over %d bytes", v.mismatches, v.delivered)
	}

	flipped := append([]byte(nil), at(2)...)
	flipped[17] ^= 0x40
	cases := []struct {
		name       string
		pieces     [][]byte
		badAt      int64
		mismatches int
	}{
		{"flipped byte", [][]byte{at(0), at(1), flipped, at(3)}, 2*chunk + 17, 1},
		{"dropped chunk", [][]byte{at(0), at(1), at(3), at(4)}, 2 * chunk, 2},
		{"duplicated chunk", [][]byte{at(0), at(1), at(1), at(2)}, 2 * chunk, 2},
	}
	for _, c := range cases {
		v := feed(c.pieces...)
		if v.mismatches != c.mismatches || v.badAt != c.badAt {
			t.Errorf("%s: %d mismatching pieces, first bad offset %d; want %d at %d",
				c.name, v.mismatches, v.badAt, c.mismatches, c.badAt)
		}
	}
}

// TestResetSequence: a severed flow's survivor owes exactly one
// ECONNRESET, then io.EOF when it receives again or EPIPE when it sends
// again. Anything else is a bad errno; no errno at all is a hang.
func TestResetSequence(t *testing.T) {
	ends := func(first, second, terminal error) *flowOutcome {
		o := &flowOutcome{severed: true}
		o.ended(first, func() error { return second }, terminal)
		return o
	}
	wrapped := fmt.Errorf("recv: %w", sd.ECONNRESET)
	good := []*flowOutcome{
		ends(sd.ECONNRESET, io.EOF, io.EOF),
		ends(wrapped, sd.EPIPE, sd.EPIPE),
	}
	bad := []*flowOutcome{
		ends(sd.ECONNRESET, sd.ECONNRESET, io.EOF), // a second reset
		ends(io.EOF, nil, io.EOF),                  // a bare EOF: the crash looked like a close
		ends(sd.ECONNRESET, io.EOF, sd.EPIPE),      // a sender must see EPIPE, not EOF
		ends(sd.ECONNRESET, nil, sd.EPIPE),         // the socket still works after its reset
	}
	hung := &flowOutcome{severed: true}     // never reached an errno
	intact := &flowOutcome{completed: true} // not severed: not classed at all

	s := sumFlows(append(append(good, bad...), hung, intact))
	if s.goodResets != len(good) || s.badErrnos != len(bad) || s.hung != 1 || s.completed != 1 {
		t.Fatalf("classed %d good, %d bad, %d hung, %d completed; want %d, %d, 1, 1",
			s.goodResets, s.badErrnos, s.hung, s.completed, len(good), len(bad))
	}
	if c := oneReset(s.goodResets, len(good), s.badErrnos, s.hung); c.ok {
		t.Errorf("oneReset passed with bad errnos and a hang: %s", c.detail)
	}
	if c := oneReset(len(good), len(good), 0, 0); !c.ok {
		t.Errorf("oneReset failed a clean run: %s", c.detail)
	}
}

// TestTallyCountsHeldBuffer: a pooled buffer taken during the run and not
// released is a leak of exactly 1 until it goes back.
func TestTallyCountsHeldBuffer(t *testing.T) {
	tl := startTally()
	b := bufpool.Get(1024)
	if _, leak, _ := tl.end(); leak != 1 {
		t.Errorf("held buffer: leak = %d, want 1", leak)
	}
	if c := noDrift("bufpool", 1); c.ok {
		t.Error("noDrift passed a leak of 1")
	}
	b.Release()
	if _, leak, unconverged := tl.end(); leak != 0 || unconverged != "" {
		t.Errorf("released buffer: leak = %d, unconverged = %q; want 0 and none", leak, unconverged)
	}
}

// TestVerdictPrintsWhatItJudges: Passed and String come from the same
// list, so a failed check fails the verdict and shows on its own line.
func TestVerdictPrintsWhatItJudges(t *testing.T) {
	v := verdict{"demo: 1 run", []check{noDrift("bufpool", 0), atLeast("sd/x", 3, 4)}}
	const want = "demo: 1 run\n  ok   zero bufpool drift: 0\n  FAIL sd/x: 3 (want >= 4)\n  FAIL"
	if v.Passed() || v.String() != want {
		t.Errorf("passed=%v\n%s\nwant:\n%s", v.Passed(), v, want)
	}
}

// TestDrillsRepeat: a drill run twice in one process gives the same
// Result, field for field — virtual run time, byte counts and counter
// deltas included. Comparing runs across seeds and schedules
// (EXPERIMENTS.md "Scenario kit") means nothing unless an unchanged run
// repeats.
//
// Chaos is not here because it does not have the property yet, on the
// parent commit either: host.hostSeq numbers hosts per process, the
// ordinal is folded into connection IDs, and those pick the monitor shard
// and the recovery jitter — so a second Chaos in one process runs
// ~12 ms of virtual time differently from the first (EXPERIMENTS.md
// "Scenario kit").
func TestDrillsRepeat(t *testing.T) {
	if a, b := Crash(1, 1, 1024), Crash(1, 1, 1024); a != b || !a.Passed() {
		t.Errorf("crash runs differ or fail:\n%#v\n%#v", a, b)
	}
	if raceEnabled {
		return // two more 210 ms-virtual runs cost the race job ~90 s for no new interleaving
	}
	if a, b := MRestart(1, 1, 512, 150), MRestart(1, 1, 512, 150); a != b || !a.Passed() {
		t.Errorf("mrestart runs differ or fail:\n%#v\n%#v", a, b)
	}
}
