package rdma

import "testing"

// TestCQOrderAndReuse: completions come out in push order through partial
// drains; Len follows every push and poll; an Arm on a non-empty queue
// fires at once; and a queue that is never quite drained reclaims its
// consumed prefix instead of growing (PollOne dequeues by a head index).
func TestCQOrderAndReuse(t *testing.T) {
	cq := NewCQ()
	if _, ok := cq.PollOne(); ok || cq.Len() != 0 {
		t.Fatal("fresh CQ is not empty")
	}
	next, want := uint64(0), uint64(0)
	push := func(n int) {
		for i := 0; i < n; i++ {
			cq.push(CQE{WRID: next})
			next++
		}
	}
	poll := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			e, ok := cq.PollOne()
			if !ok || e.WRID != want {
				t.Fatalf("PollOne = %d, %v; want %d", e.WRID, ok, want)
			}
			want++
		}
		if got := int(next - want); cq.Len() != got {
			t.Fatalf("Len = %d with %d pending", cq.Len(), got)
		}
	}
	push(5)
	poll(3)
	fired := false
	cq.Arm(func() { fired = true })
	if !fired {
		t.Error("Arm on a non-empty CQ did not fire")
	}
	for round := 0; round < 1000; round++ { // one always left behind
		push(4)
		poll(4)
	}
	if c := cap(cq.items); c > 64 {
		t.Errorf("backing array grew to %d entries for at most 6 pending", c)
	}
	poll(2)
	if _, ok := cq.PollOne(); ok {
		t.Error("drained CQ returned a completion")
	}
	armed := 0
	cq.Arm(func() { armed++ })
	push(2)
	if armed != 1 {
		t.Errorf("one-shot arm fired %d times for two completions", armed)
	}
	poll(2)
}
