package guestos

import (
	"testing"

	"heteroos/internal/memsim"
)

// TestPCPRefillZeroAllocs checks that a per-CPU allocation through the
// node's refill callback allocates nothing, whether the buddy allocator
// can refill the cache or is exhausted.
func TestPCPRefillZeroAllocs(t *testing.T) {
	n := newNode(memsim.FastMem, 0, 4096, 1, true)
	n.addPopulated(0, 4096)
	var got [16]uint64
	// One batch per run: the first Alloc finds the cache empty and
	// refills it, the rest hit. The frames go straight back to the buddy
	// allocator so the next run refills again.
	allocs := testing.AllocsPerRun(100, func() {
		for i := range got {
			p, ok := n.PCP.Alloc(0, 0)
			if !ok {
				t.Fatal("populated node out of frames")
			}
			got[i] = p
		}
		for _, p := range got {
			n.Buddy.FreePage(p)
		}
	})
	if allocs != 0 {
		t.Errorf("per-CPU Alloc through refill on a populated node: %v allocs, want 0", allocs)
	}
	if hits, misses, refills, _ := n.PCP.Stats(); refills != 101 || hits != 101*15 || misses != 0 {
		t.Errorf("hits/misses/refills = %d/%d/%d, want one refill per run", hits, misses, refills)
	}
	if err := n.Buddy.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	empty := newNode(memsim.FastMem, 0, 4096, 1, true)
	allocs = testing.AllocsPerRun(100, func() {
		if _, ok := empty.PCP.Alloc(0, 0); ok {
			t.Fatal("unpopulated node allocated a frame")
		}
	})
	if allocs != 0 {
		t.Errorf("per-CPU Alloc on an exhausted node: %v allocs, want 0", allocs)
	}
}
