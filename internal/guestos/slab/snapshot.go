package slab

import (
	"fmt"
	"slices"

	"heteroos/internal/snapshot"
)

// Snapshot serializes the cache's mutable state: every slab (sorted by
// base frame) with its free-index stack in exact order, the partial
// stack in exact order (stale entries included — they are behavioural
// state: Alloc pops and skips them lazily), the empty-slab count, and
// the churn counters.
func (c *Cache) Snapshot(e *snapshot.Encoder) {
	e.Str(c.name)
	e.U64(c.allocs)
	e.U64(c.frees)
	e.U64(c.slabAllocs)
	e.U64(c.slabFrees)
	e.Int(c.empties)
	bases := make([]uint64, 0, len(c.slabs))
	for b := range c.slabs {
		bases = append(bases, b)
	}
	slices.Sort(bases)
	e.U32(uint32(len(bases)))
	for _, b := range bases {
		s := c.slabs[b]
		e.U64(s.base)
		e.Int(s.capacity)
		e.Int(s.inUse)
		e.U32(uint32(len(s.free)))
		for _, f := range s.free {
			e.U32(uint32(f))
		}
	}
	e.U64s(c.partial)
}

// Restore overwrites the cache's mutable state from a snapshot of a
// cache with the same name and geometry.
func (c *Cache) Restore(d *snapshot.Decoder) error {
	name := d.Str()
	if name != c.name {
		return fmt.Errorf("slab: snapshot of cache %q applied to %q", name, c.name)
	}
	c.allocs = d.U64()
	c.frees = d.U64()
	c.slabAllocs = d.U64()
	c.slabFrees = d.U64()
	c.empties = d.Int()
	n := int(d.U32())
	c.slabs = make(map[uint64]*slabState, n)
	for i := 0; i < n; i++ {
		s := &slabState{base: d.U64(), capacity: d.Int(), inUse: d.Int()}
		nf := int(d.U32())
		s.free = make([]int, nf)
		for j := range s.free {
			s.free[j] = int(d.U32())
		}
		if s.capacity != c.objsPerSlab {
			return fmt.Errorf("slab %s: snapshot slab %d capacity %d != geometry %d", c.name, s.base, s.capacity, c.objsPerSlab)
		}
		c.slabs[s.base] = s
	}
	c.partial = d.U64s()
	return d.Err()
}
