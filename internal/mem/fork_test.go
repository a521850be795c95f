package mem

import (
	"testing"
	"time"

	"nemesis/internal/obs"
)

// A fork's frames/free gauge must be the parent's copy, value and update
// instant alike; binding the forked allocator must not re-stamp it with the
// fork instant.
func TestForkKeepsFreeFramesGauge(t *testing.T) {
	s, fa := newAlloc(16)
	reg := obs.NewRegistry(s.Now)
	fa.SetObs(reg)
	c, err := fa.Admit(1, Contract{Guaranteed: 8}, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.RunFor(3 * time.Millisecond)
	for i := 0; i < 5; i++ {
		if _, err := c.TryAllocFrame(); err != nil {
			t.Fatal(err)
		}
	}
	allocAt := s.Now()
	s.RunFor(7 * time.Millisecond) // the fork instant lies after the last update

	ns := s.Fork()
	nreg, err := reg.Fork(ns.Now)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fa.Fork(ns, fa.store, fa.ramtab, nreg); err != nil {
		t.Fatal(err)
	}
	parent := reg.Gauge("frames", "free", "")
	child := nreg.Gauge("frames", "free", "")
	if parent.Value() != 11 || parent.Updated() != allocAt {
		t.Fatalf("parent frames/free = %d @ %v, want 11 @ %v", parent.Value(), parent.Updated(), allocAt)
	}
	if child.Value() != parent.Value() || child.Updated() != parent.Updated() {
		t.Fatalf("fork frames/free = %d @ %v, parent %d @ %v (fork instant %v)",
			child.Value(), child.Updated(), parent.Value(), parent.Updated(), ns.Now())
	}
}
