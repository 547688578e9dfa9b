package pagecache

import (
	"slices"

	"heteroos/internal/snapshot"
)

// Snapshot serializes the cache: the reverse map (sorted by frame; the
// forward per-file maps and the dirty set are derivable from it), the
// readahead window, and the hit/miss/writeback/eviction counters.
func (c *Cache) Snapshot(e *snapshot.Encoder) {
	e.Int(c.ReadaheadWindow)
	e.U64(c.hits)
	e.U64(c.misses)
	e.U64(c.writebacks)
	e.U64(c.evictions)
	pfns := make([]uint64, 0, len(c.rmap))
	for pfn := range c.rmap {
		pfns = append(pfns, pfn)
	}
	slices.Sort(pfns)
	e.Grow(4 + 21*len(pfns))
	e.U32(uint32(len(pfns)))
	for _, pfn := range pfns {
		m := c.rmap[pfn]
		e.U64(pfn)
		e.U32(uint32(m.file))
		e.U64(m.off)
		e.Bool(m.dirty)
	}
}

// Restore overwrites the cache's maps and counters from a snapshot.
// Frame ownership (the callbacks' view) must be restored by the owning
// OS separately; this only rebuilds the cache's own bookkeeping.
func (c *Cache) Restore(d *snapshot.Decoder) error {
	c.ReadaheadWindow = d.Int()
	c.hits = d.U64()
	c.misses = d.U64()
	c.writebacks = d.U64()
	c.evictions = d.U64()
	n := int(d.U32())
	c.files = make(map[FileID]map[uint64]uint64)
	c.rmap = make(map[uint64]mapping, n)
	c.dirty = make(map[uint64]struct{})
	for i := 0; i < n; i++ {
		pfn := d.U64()
		m := mapping{file: FileID(d.U32()), off: d.U64(), dirty: d.Bool()}
		c.rmap[pfn] = m
		fm := c.files[m.file]
		if fm == nil {
			fm = make(map[uint64]uint64)
			c.files[m.file] = fm
		}
		fm[m.off] = pfn
		if m.dirty {
			c.dirty[pfn] = struct{}{}
		}
	}
	return d.Err()
}
