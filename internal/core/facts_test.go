package core

import "testing"

// facts lists every fact in an order that meets each one's needs, and
// factNames their names.
var (
	facts     = []fact{established, txShut, rxShut, peerShut, peerReset, resetSeen, closed, released}
	factNames = []string{"established", "txShut", "rxShut", "peerShut", "peerReset", "resetSeen", "closed", "released"}
)

// TestSideFactsNeedTheirPrerequisites: each fact, reached in a legal order,
// is set by exactly one reach; and reaching a fact with one of its
// prerequisites left out panics and leaves the word as it was.
func TestSideFactsNeedTheirPrerequisites(t *testing.T) {
	for i, f := range facts {
		if f != 1<<i {
			t.Fatalf("facts[%d] = %#x: the list misses a fact", i, f)
		}
	}
	var side SideState
	for _, f := range facts {
		if side.is(f) {
			t.Fatalf("fact %#x set before it was reached", f)
		}
		if !side.reach(f) {
			t.Fatalf("the first reach of fact %#x did not set it", f)
		}
		if side.reach(f) || !side.is(f) {
			t.Fatalf("fact %#x: a second reach set it again, or it did not stick", f)
		}
	}

	cases := 0
	for i, f := range facts {
		for j, need := range facts {
			if f.needs()&need == 0 {
				continue
			}
			cases++
			t.Run(factNames[i]+"-without-"+factNames[j], func(t *testing.T) {
				var side SideState
				for _, g := range facts {
					if g != f && g != need && g.needs()&need == 0 {
						side.reach(g)
					}
				}
				before := side.life.Load()
				defer func() {
					if recover() == nil {
						t.Errorf("reaching fact %#x without %#x did not panic", f, need)
					}
					if side.life.Load() != before {
						t.Errorf("the refused reach changed the word %#x to %#x", before, side.life.Load())
					}
				}()
				side.reach(f)
			})
		}
	}
	if cases != 4 {
		t.Fatalf("%d prerequisites, want 4: peerShut's rxShut, resetSeen's peerReset, closed's txShut and rxShut", cases)
	}
}
