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
	seg := g.Create("queue", NewDuplex(1024))
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
		if a.Create("x", nil).Token != b.Create("x", nil).Token {
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

// allZero reports whether b holds only zero bytes.
func allZero(b []byte) bool {
	for _, x := range b {
		if x != 0 {
			return false
		}
	}
	return true
}

// TestRingResetScrubsWhatWasWritten: Reset zeroes exactly the dirtied
// prefix — the whole ring once a wrap happened, and also bytes a remote
// writer laid down behind SetTailLow32 — clears every cursor, the burst
// state and the credit hook, and leaves a ring that works like a new one.
func TestRingResetScrubsWhatWasWritten(t *testing.T) {
	payload := bytes.Repeat([]byte{0xEE}, 100)

	// Sender-side dirt, short of a wrap, with an open burst and a hook.
	r := NewRing(4096)
	r.SetCreditHook(func(uint64) { t.Error("credit hook survived Reset") })
	r.TrySend(1, 0, payload)
	r.BeginBurst()
	r.TrySend(1, 0, payload) // staged: written runs ahead of tail
	dirty := int(r.WriteCursor())
	r.Reset()
	if !allZero(r.Data()) {
		t.Fatal("payload survived Reset")
	}
	if r.WriteCursor() != 0 || r.Tail() != 0 || r.Credit() != 0 || r.InBurst() || r.OccHW() != 0 || r.CanRecv() {
		t.Fatal("cursor or burst state survived Reset")
	}
	// Bytes past the dirtied prefix are not Reset's to pay for.
	r.TrySend(1, 0, payload)
	r.Data()[dirty+512] = 0x77
	r.Reset()
	if r.Data()[dirty+512] != 0x77 {
		t.Fatal("Reset scrubbed beyond the dirtied prefix: its cost must follow the bytes sent")
	}
	r.Data()[dirty+512] = 0

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
	if !allZero(r.Data()) {
		t.Fatal("wrapped payload survived Reset")
	}

	// Receiver-side copy: data lands by DMA, only the tail moves.
	copy(r.Data(), payload)
	r.SetTailLow32(uint32(len(payload)))
	r.Reset()
	if !allZero(r.Data()) || r.Tail() != 0 {
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

// TestRegistryRingFreeList: LIFO per capacity, bounded, scrubbed on the
// way in, fresh allocation on a miss.
func TestRegistryRingFreeList(t *testing.T) {
	g := NewRegistry(1)
	a, b := g.GetRing(4096), g.GetRing(4096)
	if a == b {
		t.Fatal("two live rings are one object")
	}
	a.TrySend(1, 0, []byte("secret"))
	g.PutRing(a)
	g.PutRing(b)
	if got := g.GetRing(8192); got == a || got == b || got.Cap() != 8192 {
		t.Fatal("free list crossed capacities")
	}
	if got := g.GetRing(4096); got != b {
		t.Fatal("free list is not LIFO")
	}
	got := g.GetRing(4096)
	if got != a || !allZero(got.Data()) || got.WriteCursor() != 0 {
		t.Fatal("recycled ring not scrubbed")
	}
	if g.GetRing(4096) == a {
		t.Fatal("one ring issued twice")
	}
	// Beyond the bound, rings are dropped rather than kept.
	for i := 0; i < maxIdleRings+10; i++ {
		g.PutRing(NewRing(256))
	}
	if n := len(g.idle[256]); n != maxIdleRings {
		t.Fatalf("free list holds %d rings, bound is %d", n, maxIdleRings)
	}
}

// TestRegistryRingFreeListConcurrent: rings cycle through the free list
// from many goroutines; none is ever in two hands at once.
func TestRegistryRingFreeListConcurrent(t *testing.T) {
	g := NewRegistry(1)
	done := make(chan error, 8)
	for id := byte(1); id <= 8; id++ {
		go func(id byte) {
			for i := 0; i < 2000; i++ {
				r := g.GetRing(1024)
				if r.WriteCursor() != 0 || !allZero(r.Data()[:64]) {
					done <- fmt.Errorf("goroutine %d got a used ring", id)
					return
				}
				r.TrySend(id, 0, []byte{id, id, id})
				runtime.Gosched()
				if m, ok := r.TryRecv(); !ok || m.Type != id || m.Payload[0] != id {
					done <- fmt.Errorf("goroutine %d shares its ring", id)
					return
				}
				g.PutRing(r)
			}
			done <- nil
		}(id)
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestRingIdlePredicates: RecvIdle is "TryRecv would come back empty and
// change nothing" — so not while a consumed message's credit is still to be
// returned, which the empty path does once — and SendStalled is "the failed
// TrySend would fail again", until the receiver returns credit.
func TestRingIdlePredicates(t *testing.T) {
	r := NewRing(256)
	if !r.RecvIdle() {
		t.Fatal("fresh ring is not idle")
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
