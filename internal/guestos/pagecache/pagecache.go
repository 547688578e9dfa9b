// Package pagecache implements the I/O page and buffer cache. Section 3.2
// of the paper shows the page cache is central to storage-intensive
// applications (LevelDB's memory-mapped database, X-Stream's mapped graph
// input): the cache absorbs reads through readahead and buffers dirty
// blocks for writeback, and placing its pages in FastMem hides the
// latency of slow disks.
//
// The cache is generic over uint64 frame numbers; it obtains and returns
// frames through callbacks so the owning OS can route allocations through
// its placement policy and keep per-page metadata in sync.
package pagecache

import (
	"fmt"
	"sort"
)

// AllocPage obtains one frame for a cache page; ok=false means the page
// allocator (and any reclaim behind it) is exhausted.
type AllocPage func() (pfn uint64, ok bool)

// FreePage returns one frame.
type FreePage func(pfn uint64)

// FileID identifies a cached file.
type FileID uint32

// mapping records which file page a frame caches.
type mapping struct {
	file  FileID
	off   uint64
	dirty bool
}

// Cache is the page cache: per-file offset→frame radix (modelled as a
// map) plus a reverse map used for eviction.
type Cache struct {
	alloc AllocPage
	free  FreePage

	files map[FileID]map[uint64]uint64 // file → page offset → pfn
	rmap  map[uint64]mapping           // pfn → identity
	dirty map[uint64]struct{}          // pfns with unwritten data

	// ReadaheadWindow is how many consecutive pages a miss pulls in
	// (Linux default readahead is 128 KiB = 32 pages).
	ReadaheadWindow int

	hits, misses, writebacks, evictions uint64
}

// New builds an empty cache with the default 32-page readahead window.
func New(alloc AllocPage, free FreePage) *Cache {
	return &Cache{
		alloc:           alloc,
		free:            free,
		files:           make(map[FileID]map[uint64]uint64),
		rmap:            make(map[uint64]mapping),
		dirty:           make(map[uint64]struct{}),
		ReadaheadWindow: 32,
	}
}

// ReadResult reports the outcome of a Read or Write.
type ReadResult struct {
	// Touched lists the frames servicing the request, in offset order.
	// It is the caller's buffer refilled from length 0, so it stays
	// valid only until that buffer is passed to Read or Write again.
	Touched []uint64
	// DiskPages is how many pages had to come from (or be reserved for)
	// the backing store — the caller charges disk latency for them.
	DiskPages int
	// AllocFailed counts pages that could not get a frame; the caller
	// treats them as uncached direct I/O.
	AllocFailed int
}

// Lookup returns the frame caching (file, off), if any.
func (c *Cache) Lookup(file FileID, off uint64) (uint64, bool) {
	pfn, ok := c.files[file][off]
	return pfn, ok
}

func (c *Cache) insert(file FileID, off uint64, pfn uint64) {
	m := c.files[file]
	if m == nil {
		m = make(map[uint64]uint64)
		c.files[file] = m
	}
	m[off] = pfn
	c.rmap[pfn] = mapping{file: file, off: off}
}

// Read services a read of n pages of file starting at page offset off.
// Missing pages are allocated and "read from disk"; a miss additionally
// pulls in the readahead window beyond the requested range (sequential
// readahead), which is what gives the cache its prefetch benefit. The
// touched frames are appended to buf[:0] (buf may be nil), so a caller
// that keeps the returned Touched as its next buf reads without
// allocating.
func (c *Cache) Read(file FileID, off uint64, n int, buf []uint64) ReadResult {
	res := ReadResult{Touched: buf[:0]}
	missed := false
	for i := 0; i < n; i++ {
		pfn, ok := c.Lookup(file, off+uint64(i))
		if ok {
			c.hits++
			res.Touched = append(res.Touched, pfn)
			continue
		}
		c.misses++
		missed = true
		pfn, ok = c.alloc()
		if !ok {
			res.AllocFailed++
			res.DiskPages++ // still read, just uncached
			continue
		}
		c.insert(file, off+uint64(i), pfn)
		res.Touched = append(res.Touched, pfn)
		res.DiskPages++
	}
	if missed && c.ReadaheadWindow > 0 {
		start := off + uint64(n)
		for i := 0; i < c.ReadaheadWindow; i++ {
			o := start + uint64(i)
			if _, ok := c.Lookup(file, o); ok {
				break // already cached: readahead window reached cached tail
			}
			pfn, ok := c.alloc()
			if !ok {
				break // no memory: stop prefetching, do not fail the read
			}
			c.insert(file, o, pfn)
			res.Touched = append(res.Touched, pfn)
			res.DiskPages++
		}
	}
	return res
}

// Write services a write of n pages of file starting at page offset off.
// Pages are cached and marked dirty; writeback happens asynchronously
// via Writeback. Touched is filled into buf as for Read.
func (c *Cache) Write(file FileID, off uint64, n int, buf []uint64) ReadResult {
	res := ReadResult{Touched: buf[:0]}
	for i := 0; i < n; i++ {
		o := off + uint64(i)
		pfn, ok := c.Lookup(file, o)
		if !ok {
			c.misses++
			pfn, ok = c.alloc()
			if !ok {
				res.AllocFailed++
				res.DiskPages++ // direct write to disk
				continue
			}
			c.insert(file, o, pfn)
		} else {
			c.hits++
		}
		if m := c.rmap[pfn]; !m.dirty {
			m.dirty = true
			c.rmap[pfn] = m
			c.dirty[pfn] = struct{}{}
		}
		res.Touched = append(res.Touched, pfn)
	}
	return res
}

// Writeback flushes up to max dirty pages (all if max <= 0) in frame
// order (deterministic — map order would randomize which pages remain
// dirty under a cap), returning the flushed frames so the caller can
// charge disk-write time.
func (c *Cache) Writeback(max int) []uint64 {
	dirty := make([]uint64, 0, len(c.dirty))
	for pfn := range c.dirty {
		dirty = append(dirty, pfn)
	}
	sort.Slice(dirty, func(i, j int) bool { return dirty[i] < dirty[j] })
	if max > 0 && len(dirty) > max {
		dirty = dirty[:max]
	}
	for _, pfn := range dirty {
		m := c.rmap[pfn]
		m.dirty = false
		c.rmap[pfn] = m
		delete(c.dirty, pfn)
		c.writebacks++
	}
	return dirty
}

// Dirty reports whether pfn holds unwritten data.
func (c *Cache) Dirty(pfn uint64) bool {
	_, ok := c.dirty[pfn]
	return ok
}

// DirtyCount reports the number of dirty pages.
func (c *Cache) DirtyCount() int { return len(c.dirty) }

// Evict removes the cache page backed by pfn, returning its frame to the
// allocator. Dirty pages are written back first (the returned bool
// reports whether a disk write was required). Evicting a frame the cache
// does not own panics.
func (c *Cache) Evict(pfn uint64) (wroteBack bool) {
	m, ok := c.rmap[pfn]
	if !ok {
		panic(fmt.Sprintf("pagecache: evict of unowned frame %d", pfn))
	}
	if m.dirty {
		delete(c.dirty, pfn)
		c.writebacks++
		wroteBack = true
	}
	delete(c.files[m.file], m.off)
	if len(c.files[m.file]) == 0 {
		delete(c.files, m.file)
	}
	delete(c.rmap, pfn)
	c.evictions++
	c.free(pfn)
	return wroteBack
}

// Rekey transfers the cache page backed by oldPfn to newPfn, preserving
// identity and dirty state. The page-migration path uses it after
// copying contents to a frame on another tier. Rekeying a frame the
// cache does not own panics.
func (c *Cache) Rekey(oldPfn, newPfn uint64) {
	m, ok := c.rmap[oldPfn]
	if !ok {
		panic(fmt.Sprintf("pagecache: rekey of unowned frame %d", oldPfn))
	}
	if _, busy := c.rmap[newPfn]; busy {
		panic(fmt.Sprintf("pagecache: rekey target %d already cached", newPfn))
	}
	delete(c.rmap, oldPfn)
	c.rmap[newPfn] = m
	c.files[m.file][m.off] = newPfn
	if m.dirty {
		delete(c.dirty, oldPfn)
		c.dirty[newPfn] = struct{}{}
	}
}

// Owns reports whether pfn is a cache page.
func (c *Cache) Owns(pfn uint64) bool {
	_, ok := c.rmap[pfn]
	return ok
}

// Identity returns the (file, offset) a frame caches.
func (c *Cache) Identity(pfn uint64) (FileID, uint64, bool) {
	m, ok := c.rmap[pfn]
	return m.file, m.off, ok
}

// InvalidateFile drops every cached page of file (e.g. file deletion),
// writing back nothing: contents are discarded.
func (c *Cache) InvalidateFile(file FileID) int {
	m := c.files[file]
	n := 0
	for _, pfn := range m {
		delete(c.dirty, pfn)
		delete(c.rmap, pfn)
		c.free(pfn)
		c.evictions++
		n++
	}
	delete(c.files, file)
	return n
}

// Pages reports the number of cached pages.
func (c *Cache) Pages() int { return len(c.rmap) }

// FilePages reports the number of cached pages of one file.
func (c *Cache) FilePages(file FileID) int { return len(c.files[file]) }

// Stats reports hit/miss/writeback/eviction counters.
func (c *Cache) Stats() (hits, misses, writebacks, evictions uint64) {
	return c.hits, c.misses, c.writebacks, c.evictions
}

// CheckInvariants validates the forward/reverse map consistency and that
// every dirty page is a cached page.
func (c *Cache) CheckInvariants() error {
	fwd := 0
	for file, m := range c.files {
		for off, pfn := range m {
			fwd++
			r, ok := c.rmap[pfn]
			if !ok || r.file != file || r.off != off {
				return fmt.Errorf("pagecache: frame %d rmap mismatch (%d@%d)", pfn, file, off)
			}
		}
	}
	if fwd != len(c.rmap) {
		return fmt.Errorf("pagecache: forward map %d entries, rmap %d", fwd, len(c.rmap))
	}
	for pfn := range c.dirty {
		m, ok := c.rmap[pfn]
		if !ok {
			return fmt.Errorf("pagecache: dirty frame %d not cached", pfn)
		}
		if !m.dirty {
			return fmt.Errorf("pagecache: dirty set and rmap disagree on %d", pfn)
		}
	}
	for pfn, m := range c.rmap {
		if _, inSet := c.dirty[pfn]; m.dirty != inSet {
			return fmt.Errorf("pagecache: rmap dirty flag and dirty set disagree on %d", pfn)
		}
	}
	return nil
}
