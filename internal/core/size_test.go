package core

import (
	"testing"
	"unsafe"
)

// TestConnectionStructsKeepTheirSize: a dial allocates Sockets and
// SideStates (inside an IntraSock, or an interSide with its rdmaEP), and a
// process a ProcLink, so one that grows across a size class shows in the
// ledger's rep_bytes_per_op. An interSide of 1 280 B filled its class.
func TestConnectionStructsKeepTheirSize(t *testing.T) {
	for _, c := range []struct {
		name      string
		size, max uintptr
	}{
		{"SideState", unsafe.Sizeof(SideState{}), 336},
		{"ProcLink", unsafe.Sizeof(ProcLink{}), 72},
		{"Socket", unsafe.Sizeof(Socket{}), 192},
		{"rdmaEP", unsafe.Sizeof(rdmaEP{}), 192},
	} {
		if c.size > c.max {
			t.Errorf("%s is %d bytes, want at most %d", c.name, c.size, c.max)
		}
	}
}
