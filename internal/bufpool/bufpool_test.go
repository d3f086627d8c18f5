package bufpool

import (
	"sync"
	"testing"
)

func TestClassBoundaries(t *testing.T) {
	cases := []struct {
		n    int
		want int
	}{
		{0, 64}, {1, 64}, {64, 64}, // smallest class, inclusive upper bound
		{65, 256}, {256, 256},
		{257, 1024}, {1024, 1024},
		{1025, 4096}, {4096, 4096}, // one rdma.MTU segment
		{4097, 16384}, {16384, 16384},
		{16385, 65536}, {65536, 65536},
		{65537, -1}, {1 << 20, -1}, // oversize: GC-owned
	}
	for _, c := range cases {
		if got := ClassSize(c.n); got != c.want {
			t.Errorf("ClassSize(%d) = %d, want %d", c.n, got, c.want)
		}
		b := Get(c.n)
		if len(b.B) != c.n {
			t.Errorf("Get(%d): len = %d", c.n, len(b.B))
		}
		if c.want >= 0 && cap(b.B) != c.want {
			t.Errorf("Get(%d): cap = %d, want class %d", c.n, cap(b.B), c.want)
		}
		if c.want < 0 && b.class != -1 {
			t.Errorf("Get(%d): expected oversize class", c.n)
		}
		b.Release()
	}
	if MaxPooled() != 65536 {
		t.Errorf("MaxPooled = %d", MaxPooled())
	}
}

func TestReuseAfterRelease(t *testing.T) {
	b := Get(100)
	b.B[0] = 0xAA
	back := &b.B[0]
	b.Release()
	// The very next Get of the same class gets the buffer just released:
	// a class is a last-in-first-out list that nothing empties behind it.
	b2 := Get(200)
	if &b2.B[0] != back {
		t.Fatal("the next Get of the class did not reuse the buffer released last")
	}
	if cap(b2.B) != 256 || len(b2.B) != 200 {
		t.Fatalf("recycled buffer: len %d cap %d, want 200 and 256", len(b2.B), cap(b2.B))
	}
	b2.Release()
}

func TestFreeListIsLIFOAndBounded(t *testing.T) {
	var f FreeList[int]
	if f.Get() != nil {
		t.Fatal("Get on an empty list returned an object")
	}
	if x := f.New(); x == nil || *x != 0 {
		t.Fatal("New on an empty list did not return a new zero object")
	}
	a, b, c := new(int), new(int), new(int)
	if !f.Keep(a, 2) || !f.Keep(b, 2) {
		t.Fatal("Keep below the bound refused")
	}
	if f.Keep(c, 2) {
		t.Fatal("Keep at the bound kept")
	}
	f.Put(c)
	for i, want := range []*int{c, b, a, nil} {
		if got := f.Get(); got != want {
			t.Fatalf("Get %d returned %p, want %p", i, got, want)
		}
	}
}

func TestRefCounting(t *testing.T) {
	b := Get(32)
	b.Ref()
	b.Ref()
	if got := b.Refs(); got != 3 {
		t.Fatalf("refs = %d, want 3", got)
	}
	b.Release()
	b.Release()
	if got := b.Refs(); got != 1 {
		t.Fatalf("refs = %d, want 1", got)
	}
	b.Release()
	if got := b.Refs(); got != 0 {
		t.Fatalf("refs = %d, want 0 after final release", got)
	}
}

func TestDoubleReleasePanics(t *testing.T) {
	b := Get(32)
	b.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on double release")
		}
		// Repair the count so the poisoned Buf is not recycled broken.
		b.refs = 0
	}()
	b.Release()
}

func TestRefAfterFreePanics(t *testing.T) {
	b := Get(32)
	b.Release()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on Ref after free")
		}
		b.refs = 0
	}()
	b.Ref()
}

// TestOutstandingBalance is the pool-level leak check: every Get must be
// balanced by a final Release, observed through the outstanding gauge.
func TestOutstandingBalance(t *testing.T) {
	before := Outstanding()
	bufs := make([]*Buf, 0, 64)
	for i := 0; i < 64; i++ {
		bufs = append(bufs, Get(1024))
	}
	if got := Outstanding() - before; got != 64 {
		t.Fatalf("outstanding delta = %d, want 64", got)
	}
	for _, b := range bufs {
		b.Ref() // second owner, as the fabric takes on transmit
	}
	for _, b := range bufs {
		b.Release()
	}
	if got := Outstanding() - before; got != 64 {
		t.Fatalf("outstanding delta after one of two releases = %d, want 64", got)
	}
	for _, b := range bufs {
		b.Release()
	}
	if got := Outstanding() - before; got != 0 {
		t.Fatalf("leak: outstanding delta = %d after full release", got)
	}
}

// TestConcurrent hammers get/ref/release from many goroutines; run under
// -race this is the pool's data-race check (CI runs ./internal/... with
// -race).
func TestConcurrent(t *testing.T) {
	const goroutines = 8
	const rounds = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				n := (seed*31 + i*97) % 5000
				b := Get(n)
				if n > 0 {
					b.B[0] = byte(i)
					b.B[n-1] = byte(seed)
				}
				b.Ref()
				if n > 0 && (b.B[0] != byte(i) || b.B[n-1] != byte(seed)) {
					t.Error("buffer contents clobbered while referenced")
				}
				b.Release()
				b.Release()
			}
		}(g)
	}
	wg.Wait()
}

func TestGetIsAllocFree(t *testing.T) {
	// Warm the class.
	Get(1024).Release()
	avg := testing.AllocsPerRun(1000, func() {
		b := Get(1024)
		b.Release()
	})
	if avg != 0 {
		t.Fatalf("Get/Release allocates %v per op, want 0", avg)
	}
}

func BenchmarkGetRelease1KiB(b *testing.B) {
	Get(1024).Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf := Get(1024)
		buf.Release()
	}
}
