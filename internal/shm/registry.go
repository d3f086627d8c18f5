package shm

import (
	"errors"
	"fmt"
	"sync"
)

// Token is the secret capability guarding a segment. A process that does
// not know a segment's token cannot attach it; this models the isolation
// property of §3 ("A SHM or RDMA QP is marked by a unique token, so other
// non-privileged processes cannot access it").
type Token uint64

// ErrBadToken is returned when attaching with a wrong or revoked token.
var ErrBadToken = errors.New("shm: bad segment token")

// Segment is one named shared-memory object: typically a *Ring, a *Duplex,
// or a higher-level structure (socket metadata after fork, §4.1.2).
type Segment struct {
	Token Token
	Name  string
	Obj   any
}

// Registry is the per-host shared memory broker. The monitor creates
// segments and hands tokens to the two communicating processes.
type Registry struct {
	mu   sync.Mutex
	next uint64
	segs map[Token]*Segment
	seed uint64

	// idle holds recycled rings by capacity (see GetRing/PutRing).
	idle map[int][]*Ring
}

// NewRegistry creates an empty registry. Seed makes token generation
// deterministic for reproducible simulations.
func NewRegistry(seed uint64) *Registry {
	return &Registry{
		segs: make(map[Token]*Segment),
		seed: seed ^ 0x9e3779b97f4a7c15,
		idle: make(map[int][]*Ring),
	}
}

// Create registers obj and returns its segment (with a fresh secret token).
func (g *Registry) Create(name string, obj any) *Segment {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.next++
	// splitmix64 over a counter: unguessable enough for a simulation,
	// deterministic for a given seed.
	z := g.seed + g.next*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	tok := Token(z ^ (z >> 31))
	s := &Segment{Token: tok, Name: name, Obj: obj}
	g.segs[tok] = s
	mSegmentsLive.Add(1)
	return s
}

// Attach returns the segment for a token, or ErrBadToken.
func (g *Registry) Attach(tok Token) (*Segment, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	s, ok := g.segs[tok]
	if !ok {
		return nil, fmt.Errorf("%w: %#x", ErrBadToken, uint64(tok))
	}
	return s, nil
}

// Remove destroys a segment (e.g. when the last socket reference closes).
func (g *Registry) Remove(tok Token) {
	g.mu.Lock()
	if _, ok := g.segs[tok]; ok {
		delete(g.segs, tok)
		mSegmentsLive.Add(-1)
	}
	g.mu.Unlock()
}

// Len reports how many segments are live (leak checks in tests).
func (g *Registry) Len() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.segs)
}

// maxIdleRings bounds the recycle list per capacity; a ring released beyond
// it is left to the garbage collector.
const maxIdleRings = 64

// GetRing returns a pristine ring of the given capacity: the most recently
// recycled one if any (LIFO, so the hottest memory is reused and the order
// is a function of the release order alone), else a fresh allocation. Socket
// rings are host SHM objects, so the monitor (intra-host sockets) and every
// libsd on the host (inter-host ring copies) draw from the same list.
func (g *Registry) GetRing(capacity int) *Ring {
	g.mu.Lock()
	l := g.idle[capacity]
	if n := len(l); n > 0 {
		r := l[n-1]
		l[n-1] = nil
		g.idle[capacity] = l[:n-1]
		g.mu.Unlock()
		mRingPoolHits.Inc()
		return r
	}
	g.mu.Unlock()
	mRingPoolMiss.Inc()
	return NewRing(capacity)
}

// PutRing scrubs a ring no connection uses any more (Ring.Reset) and keeps
// it for GetRing. The caller must own the ring exclusively and must not
// touch it again.
func (g *Registry) PutRing(r *Ring) {
	r.Reset()
	g.mu.Lock()
	if l := g.idle[r.Cap()]; len(l) < maxIdleRings {
		g.idle[r.Cap()] = append(l, r)
	}
	g.mu.Unlock()
}

// Duplex is a bidirectional channel made of two SPSC rings. Side A sends
// on AtoB and receives on BtoA; side B the reverse. It is the shape of
// every peer-to-peer queue in the system: app<->monitor and app<->app.
type Duplex struct {
	AtoB *Ring
	BtoA *Ring
}

// NewDuplex allocates both directions with the same capacity.
func NewDuplex(capacity int) *Duplex {
	return &Duplex{AtoB: NewRing(capacity), BtoA: NewRing(capacity)}
}

// Side is one endpoint's view of a Duplex.
type Side struct {
	TX *Ring
	RX *Ring
}

// A returns side A's view, B side B's.
func (d *Duplex) A() Side { return Side{TX: d.AtoB, RX: d.BtoA} }
func (d *Duplex) B() Side { return Side{TX: d.BtoA, RX: d.AtoB} }
