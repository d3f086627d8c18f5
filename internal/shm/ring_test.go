package shm

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

func TestRingBasicRoundTrip(t *testing.T) {
	r := NewRing(4096)
	if !r.TrySend(1, 2, []byte("hello")) {
		t.Fatal("send failed on empty ring")
	}
	m, ok := r.TryRecv()
	if !ok {
		t.Fatal("recv failed")
	}
	if m.Type != 1 || m.Flags != 2 || string(m.Payload) != "hello" {
		t.Fatalf("got %+v", m)
	}
	if _, ok := r.TryRecv(); ok {
		t.Fatal("recv on empty ring succeeded")
	}
}

func TestRingZeroLengthMessage(t *testing.T) {
	r := NewRing(256)
	if !r.TrySend(7, 0, nil) {
		t.Fatal("send of zero-length message failed")
	}
	m, ok := r.TryRecv()
	if !ok || m.Type != 7 || len(m.Payload) != 0 {
		t.Fatalf("got %+v ok=%v", m, ok)
	}
}

func TestRingGatherSend(t *testing.T) {
	r := NewRing(1024)
	if !r.TrySendV(3, 0, []byte("head"), []byte("body")) {
		t.Fatal("gather send failed")
	}
	m, _ := r.TryRecv()
	if string(m.Payload) != "headbody" {
		t.Fatalf("payload = %q", m.Payload)
	}
}

func TestRingFillsAndDrains(t *testing.T) {
	r := NewRing(1024)
	msg := make([]byte, 56) // 64 bytes per entry with header
	n := 0
	for r.TrySend(1, 0, msg) {
		n++
	}
	if n == 0 {
		t.Fatal("nothing fit")
	}
	// Ring full now. Drain everything and confirm count.
	got := 0
	for {
		if _, ok := r.TryRecv(); !ok {
			break
		}
		got++
	}
	if got != n {
		t.Fatalf("drained %d, sent %d", got, n)
	}
	r.TryRecv() // idle poll returns outstanding credits
	// After drain + credit return, a full round must fit again.
	refit := 0
	for r.TrySend(1, 0, msg) {
		refit++
	}
	if refit < n {
		t.Fatalf("after drain only %d fit, initially %d", refit, n)
	}
}

func TestRingWrapAround(t *testing.T) {
	r := NewRing(512)
	// Offset the cursor so messages straddle the ring boundary, many times.
	payload := make([]byte, 72)
	for i := 0; i < 200; i++ {
		for k := range payload {
			payload[k] = byte(i + k)
		}
		if !r.TrySend(uint8(i%250), 0, payload) {
			// make room
			if _, ok := r.TryRecv(); !ok {
				t.Fatal("full but nothing to recv")
			}
			if !r.TrySend(uint8(i%250), 0, payload) {
				t.Fatal("send failed after making room")
			}
		}
		m, ok := r.TryRecv()
		if !ok {
			t.Fatalf("recv %d failed", i)
		}
		if m.Type != uint8(i%250) || !bytes.Equal(m.Payload, payload) {
			t.Fatalf("iteration %d corrupted: type=%d", i, m.Type)
		}
	}
}

func TestRingMaxMessage(t *testing.T) {
	r := NewRing(1024)
	big := make([]byte, r.MaxMsg())
	for i := range big {
		big[i] = byte(i * 7)
	}
	if !r.TrySend(9, 0, big) {
		t.Fatal("max-size send failed on empty ring")
	}
	m, ok := r.TryRecv()
	if !ok || !bytes.Equal(m.Payload, big) {
		t.Fatal("max-size message corrupted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("oversized send did not panic")
		}
	}()
	r.TrySend(9, 0, make([]byte, r.MaxMsg()+1))
}

func TestRingBackpressure(t *testing.T) {
	r := NewRing(256)
	msg := make([]byte, 100)
	if !r.TrySend(1, 0, msg) {
		t.Fatal("first send failed")
	}
	// Fill until refused.
	for r.TrySend(1, 0, msg) {
	}
	if r.TrySend(1, 0, msg) {
		t.Fatal("send succeeded on full ring")
	}
}

// TestRingFIFOProperty drives the ring with random message sizes and
// verifies perfect FIFO content integrity, exercising wrap markers and
// credit returns at every alignment.
func TestRingFIFOProperty(t *testing.T) {
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := NewRing(1 << 10)
		type sent struct {
			typ uint8
			sum uint64
			n   int
		}
		var q []sent
		var sentTotal, recvTotal int
		for step := 0; step < 2000; step++ {
			if rng.Intn(2) == 0 {
				n := rng.Intn(200)
				p := make([]byte, n)
				var sum uint64
				for i := range p {
					p[i] = byte(rng.Intn(256))
					sum = sum*131 + uint64(p[i])
				}
				typ := uint8(rng.Intn(250))
				if r.TrySend(typ, 0, p) {
					q = append(q, sent{typ, sum, n})
					sentTotal++
				}
			} else {
				m, ok := r.TryRecv()
				if !ok {
					if len(q) != 0 && step > 0 {
						// Could be legitimately empty only if queue empty.
						return false
					}
					continue
				}
				if len(q) == 0 {
					return false
				}
				want := q[0]
				q = q[1:]
				recvTotal++
				var sum uint64
				for _, b := range m.Payload {
					sum = sum*131 + uint64(b)
				}
				if m.Type != want.typ || len(m.Payload) != want.n || sum != want.sum {
					return false
				}
			}
		}
		// Drain remainder.
		for {
			m, ok := r.TryRecv()
			if !ok {
				break
			}
			want := q[0]
			q = q[1:]
			var sum uint64
			for _, b := range m.Payload {
				sum = sum*131 + uint64(b)
			}
			if m.Type != want.typ || sum != want.sum {
				return false
			}
		}
		return len(q) == 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestRingConcurrentStress runs a real producer and consumer goroutine
// pair and checks sequence integrity of a million messages.
func TestRingConcurrentStress(t *testing.T) {
	r := NewRing(1 << 14)
	const total = 200000
	errCh := make(chan error, 1)
	go func() {
		var buf [8]byte
		for i := 0; i < total; {
			for k := range buf {
				buf[k] = byte(i >> (8 * k))
			}
			if r.TrySend(1, 0, buf[:]) {
				i++
			} else {
				runtime.Gosched()
			}
		}
	}()
	go func() {
		for i := 0; i < total; {
			m, ok := r.TryRecv()
			if !ok {
				runtime.Gosched()
				continue
			}
			var v int
			for k := 7; k >= 0; k-- {
				v = v<<8 | int(m.Payload[k])
			}
			if v != i {
				errCh <- fmt.Errorf("message %d carried %d", i, v)
				return
			}
			i++
		}
		errCh <- nil
	}()
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
}

func TestLockedRing(t *testing.T) {
	l := NewLockedRing(4096)
	if !l.TrySend(5, 0, []byte("abc")) {
		t.Fatal("send failed")
	}
	buf := make([]byte, 16)
	m, ok := l.TryRecv(buf)
	if !ok || m.Type != 5 || string(m.Payload) != "abc" {
		t.Fatalf("got %+v", m)
	}
}

func TestRegistryAccessControl(t *testing.T) {
	g := NewRegistry(42)
	seg := g.Create(NewDuplex(1024))
	if _, err := g.Attach(seg.Token); err != nil {
		t.Fatalf("legitimate attach failed: %v", err)
	}
	if _, err := g.Attach(seg.Token ^ 1); err == nil {
		t.Fatal("attach with forged token succeeded")
	}
	g.Remove(seg.Token)
	if _, err := g.Attach(seg.Token); err == nil {
		t.Fatal("attach after removal succeeded")
	}
}

func TestRegistryDeterministicTokens(t *testing.T) {
	a, b := NewRegistry(7), NewRegistry(7)
	for i := 0; i < 5; i++ {
		if a.Create(nil).Token != b.Create(nil).Token {
			t.Fatal("same seed produced different tokens")
		}
	}
}

func TestDuplexSides(t *testing.T) {
	d := NewDuplex(1024)
	a, b := d.A(), d.B()
	a.TX.TrySend(1, 0, []byte("ping"))
	if m, ok := b.RX.TryRecv(); !ok || string(m.Payload) != "ping" {
		t.Fatal("A->B failed")
	}
	b.TX.TrySend(1, 0, []byte("pong"))
	if m, ok := a.RX.TryRecv(); !ok || string(m.Payload) != "pong" {
		t.Fatal("B->A failed")
	}
}

func BenchmarkRingSPSC8B(b *testing.B) {
	r := NewRing(1 << 16)
	payload := make([]byte, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for !r.TrySend(1, 0, payload) {
			for {
				if _, ok := r.TryRecv(); !ok {
					break
				}
			}
		}
		r.TryRecv()
	}
}

func BenchmarkLockedRing8B(b *testing.B) {
	r := NewLockedRing(1 << 16)
	payload := make([]byte, 8)
	buf := make([]byte, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.TrySend(1, 0, payload)
		r.TryRecv(buf)
	}
}

func TestPeekTypeDoesNotConsume(t *testing.T) {
	r := NewRing(512)
	if _, ok := r.PeekType(); ok {
		t.Fatal("peek on empty ring succeeded")
	}
	r.TrySend(7, 0, []byte("abc"))
	r.TrySend(9, 0, []byte("def"))
	for i := 0; i < 3; i++ {
		typ, ok := r.PeekType()
		if !ok || typ != 7 {
			t.Fatalf("peek %d = (%d,%v), want (7,true)", i, typ, ok)
		}
	}
	m, _ := r.TryRecv()
	if m.Type != 7 || string(m.Payload) != "abc" {
		t.Fatalf("recv after peek got %+v", m)
	}
	if typ, _ := r.PeekType(); typ != 9 {
		t.Fatalf("second peek = %d", typ)
	}
}

func TestPeekTypeAcrossWrap(t *testing.T) {
	r := NewRing(256)
	pad := make([]byte, 100)
	// Walk the cursor to straddle the boundary repeatedly.
	for i := 0; i < 20; i++ {
		if !r.TrySend(uint8(i%100+1), 0, pad) {
			r.TryRecv()
			r.TrySend(uint8(i%100+1), 0, pad)
		}
		typ, ok := r.PeekType()
		if !ok {
			t.Fatalf("iteration %d: peek failed", i)
		}
		m, ok2 := r.TryRecv()
		if !ok2 || m.Type != typ {
			t.Fatalf("iteration %d: peek said %d, recv got %d", i, typ, m.Type)
		}
	}
}

// TestRingWrapThenEmpty: a mirrored receiver whose tail ends just past a
// wrap marker (the RDMA mirror can publish one)
// steps over the marker and finds nothing. Only an empty first look returns
// idle credit: the look that consumed the marker leaves the credit alone,
// the next one flushes it. PeekType never flushes; TryRecvN flushes on any
// empty pop.
func TestRingWrapThenEmpty(t *testing.T) {
	// wrapped returns a receiver whose tail is published to 256: two 100 B
	// messages consumed, then the wrap marker the third message left at 224,
	// but not the message behind it.
	wrapped := func() *Ring {
		tx, rx := NewRing(256), NewRing(256)
		msg := make([]byte, 100)
		for i := 0; i < 2; i++ {
			if !tx.TrySend(1, 0, msg) {
				t.Fatalf("send %d failed", i)
			}
		}
		copy(rx.Backing(rx.Cap()), tx.Backing(0))
		rx.SetTail(tx.WriteCursor())
		for i := 0; i < 2; i++ {
			if _, ok := rx.TryRecv(); !ok {
				t.Fatalf("recv %d failed", i)
			}
		}
		tx.InjectCredit(rx.Tail()) // the credit the receiver would return
		if !tx.TrySend(1, 0, msg) {
			t.Fatal("wrapping send failed")
		}
		if tx.WriteCursor() != 256+112 {
			t.Fatalf("wrapping send left the cursor at %d, want 368", tx.WriteCursor())
		}
		copy(rx.Backing(rx.Cap()), tx.Backing(0))
		rx.SetTail(256)
		if rx.Credit() != 0 {
			t.Fatalf("credit %d before the wrap, want 0", rx.Credit())
		}
		return rx
	}

	rx := wrapped()
	if _, ok := rx.TryRecv(); ok {
		t.Fatal("TryRecv returned the message behind an unpublished tail")
	}
	if rx.Credit() != 0 {
		t.Fatalf("TryRecv past the wrap marker flushed credit to %d, want 0", rx.Credit())
	}
	if _, ok := rx.TryRecv(); ok {
		t.Fatal("second TryRecv returned a message")
	}
	if rx.Credit() != 256 {
		t.Fatalf("empty TryRecv left credit at %d, want 256", rx.Credit())
	}

	rx = wrapped()
	if _, ok := rx.PeekType(); ok {
		t.Fatal("PeekType saw the message behind an unpublished tail")
	}
	if rx.Credit() != 0 {
		t.Fatalf("PeekType flushed credit to %d, want 0", rx.Credit())
	}
	var out [4]Msg
	if n := rx.TryRecvN(out[:]); n != 0 {
		t.Fatalf("TryRecvN returned %d messages", n)
	}
	if rx.Credit() != 256 {
		t.Fatalf("empty TryRecvN left credit at %d, want 256", rx.Credit())
	}
}

// allZero reports whether b holds only zero bytes.
func allZero(b []byte) bool {
	for _, x := range b {
		if x != 0 {
			return false
		}
	}
	return true
}

// creditFunc is a CreditHook made of a function.
type creditFunc func(read uint64)

func (f creditFunc) CreditReturned(read uint64) { f(read) }

// TestRingResetScrubsWhatWasWritten: Reset zeroes the whole backing — what
// was sent, a wrapped ring, bytes past every cursor, and bytes a remote
// writer laid down behind SetTailLow32 — clears every cursor, the burst
// state and the credit hook, and leaves a ring that works like a new one.
func TestRingResetScrubsWhatWasWritten(t *testing.T) {
	payload := bytes.Repeat([]byte{0xEE}, 100)

	// Sender-side dirt, short of a wrap, with an open burst and a hook.
	r := NewRing(4096)
	r.SetCreditHook(creditFunc(func(uint64) { t.Error("credit hook survived Reset") }))
	r.TrySend(1, 0, payload)
	r.BeginBurst()
	r.TrySend(1, 0, payload) // staged: written runs ahead of tail
	dirty := int(r.WriteCursor())
	r.Reset()
	if !allZero(r.Backing(0)) {
		t.Fatal("payload survived Reset")
	}
	if r.WriteCursor() != 0 || r.Tail() != 0 || r.Credit() != 0 || r.InBurst() || r.OccHW() != 0 || r.CanRecv() {
		t.Fatal("cursor or burst state survived Reset")
	}
	// Bytes past the dirtied prefix go too: a remote writer leaves some
	// behind no cursor counts.
	r.TrySend(1, 0, payload)
	r.Backing(r.Cap())[dirty+512] = 0x77
	r.Reset()
	if !allZero(r.Backing(0)) {
		t.Fatal("a byte past the dirtied prefix survived Reset")
	}

	// A wrap dirties everything.
	for i := 0; i < 100; i++ {
		for !r.TrySend(1, 0, payload) {
			r.TryRecv()
		}
	}
	for {
		if _, ok := r.TryRecv(); !ok {
			break
		}
	}
	r.Reset()
	if !allZero(r.Backing(0)) {
		t.Fatal("wrapped payload survived Reset")
	}

	// Receiver-side copy: data lands by DMA, only the tail moves.
	copy(r.Backing(len(payload)), payload)
	r.SetTailLow32(uint32(len(payload)))
	r.Reset()
	if !allZero(r.Backing(0)) || r.Tail() != 0 {
		t.Fatal("DMA-written bytes survived Reset")
	}

	// And the ring still works.
	if !r.TrySend(9, 0, []byte("again")) {
		t.Fatal("send after Reset failed")
	}
	if m, ok := r.TryRecv(); !ok || m.Type != 9 || string(m.Payload) != "again" {
		t.Fatalf("after Reset got %+v ok=%v", m, ok)
	}
}

// TestRingIdlePredicates: RecvIdle is "TryRecv would come back empty and
// change nothing" — so not while a consumed message's credit is still to be
// returned, which the empty path does once — and SendStalled is "a TrySend
// failed and would fail again", until the receiver returns credit; a fresh
// ring is not stalled.
func TestRingIdlePredicates(t *testing.T) {
	r := NewRing(256)
	if !r.RecvIdle() {
		t.Fatal("fresh ring is not idle")
	}
	if r.SendStalled() {
		t.Error("stalled before any TrySend found the ring full")
	}
	msg := make([]byte, 100)
	if !r.TrySend(1, 0, msg) || !r.TrySend(1, 0, msg) {
		t.Fatal("two 100-byte messages do not fit 256 bytes")
	}
	if r.TrySend(1, 0, msg) {
		t.Fatal("a third fits")
	}
	if !r.SendStalled() {
		t.Error("no credit came back, but the sender is not stalled")
	}
	if r.RecvIdle() {
		t.Error("idle with two messages to receive")
	}
	r.TryRecv()
	r.TryRecv() // 112 bytes consumed before it: under the half-ring credit threshold
	if r.RecvIdle() || !r.SendStalled() {
		t.Error("idle, or unstalled, with both messages' credit still to return")
	}
	if _, ok := r.TryRecv(); ok {
		t.Fatal("a third message came out")
	}
	if !r.RecvIdle() {
		t.Error("not idle after the empty poll returned the credit")
	}
	if r.SendStalled() {
		t.Error("credit came back, but the sender still counts as stalled")
	}
	if !r.TrySend(1, 0, msg) || r.RecvIdle() {
		t.Error("a new message does not end the idleness")
	}
}
