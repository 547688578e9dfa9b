// Package percpu implements the multi-dimensional per-CPU free page
// lists described in Section 3.1 of the paper: Linux keeps one per-CPU
// cache of free pages in front of the buddy allocator for fast
// single-page allocation, but that cache is designed for a single memory
// type; HeteroOS redesigns it as an array of lists, one per memory
// type, "which significantly boosts the allocation performance".
//
// The package is generic over uint64 frame numbers and pulls/pushes
// frames through caller-supplied refill and drain callbacks (typically
// bound to a node's buddy allocator).
package percpu

import "fmt"

// Refill obtains up to n free frames of the given list dimension from
// the backing allocator. Returning fewer than n (or none) means the
// backing store is exhausted. Lists copies the frames out before it
// calls Refill again, so a callback may return the same buffer each
// time.
type Refill func(dim int, n int) []uint64

// Drain returns surplus frames of the given dimension to the backing
// allocator.
type Drain func(dim int, pfns []uint64)

// Lists is a set of per-CPU, per-dimension free-page caches.
// "Dimension" is the memory type index (FastMem, SlowMem, ...); the
// redesign from a single list to an array of lists per CPU is exactly
// the HeteroOS change.
type Lists struct {
	cpus, dims int
	batch      int // frames pulled per refill
	high       int // watermark above which frees drain to the backing store
	refill     Refill
	drain      Drain
	cache      [][][]uint64 // [cpu][dim][]pfn, used as a stack
	// Stats for the allocator ablation benchmarks.
	hits, misses, refills, drains uint64
}

// New builds per-CPU lists. batch is the refill granularity; high is the
// per-list high watermark (frames beyond it are drained in batch-sized
// chunks).
func New(cpus, dims, batch, high int, refill Refill, drain Drain) *Lists {
	if cpus <= 0 || dims <= 0 {
		panic(fmt.Sprintf("percpu: invalid shape %dx%d", cpus, dims))
	}
	if batch <= 0 || high < batch {
		panic(fmt.Sprintf("percpu: invalid batch %d / high %d", batch, high))
	}
	l := &Lists{
		cpus: cpus, dims: dims, batch: batch, high: high,
		refill: refill, drain: drain,
	}
	l.cache = make([][][]uint64, cpus)
	for c := range l.cache {
		l.cache[c] = make([][]uint64, dims)
	}
	return l
}

// Alloc takes one frame of dimension dim from cpu's cache, refilling
// from the backing store if the cache is empty. ok is false when the
// backing store is also exhausted.
func (l *Lists) Alloc(cpu, dim int) (pfn uint64, ok bool) {
	st := &l.cache[cpu][dim]
	if len(*st) == 0 {
		l.refills++
		got := l.refill(dim, l.batch)
		if len(got) == 0 {
			l.misses++
			return 0, false
		}
		*st = append(*st, got...)
	} else {
		l.hits++
	}
	pfn = (*st)[len(*st)-1]
	*st = (*st)[:len(*st)-1]
	return pfn, true
}

// Free returns one frame to cpu's cache, draining a batch to the backing
// store when the high watermark is exceeded.
func (l *Lists) Free(cpu, dim int, pfn uint64) {
	st := &l.cache[cpu][dim]
	*st = append(*st, pfn)
	if len(*st) > l.high {
		l.drains++
		n := l.batch
		if n > len(*st) {
			n = len(*st)
		}
		l.drain(dim, (*st)[len(*st)-n:])
		*st = (*st)[:len(*st)-n]
	}
}

// Flush returns every cached frame to the backing store. Used when a
// node's capacity is reclaimed (balloon deflate) and at teardown.
func (l *Lists) Flush() {
	for c := 0; c < l.cpus; c++ {
		for d := 0; d < l.dims; d++ {
			if st := l.cache[c][d]; len(st) > 0 {
				l.drain(d, st)
				l.cache[c][d] = nil
			}
		}
	}
}

// FlushDim returns every cached frame of one dimension to the backing
// store; used when a single memory type is under pressure.
func (l *Lists) FlushDim(dim int) {
	for c := 0; c < l.cpus; c++ {
		if st := l.cache[c][dim]; len(st) > 0 {
			l.drain(dim, st)
			l.cache[c][dim] = nil
		}
	}
}

// Cached reports the number of frames currently cached for dimension dim
// across all CPUs.
func (l *Lists) Cached(dim int) int {
	n := 0
	for c := 0; c < l.cpus; c++ {
		n += len(l.cache[c][dim])
	}
	return n
}

// Stats reports cache hits, misses (backing exhausted), refill and drain
// operations.
func (l *Lists) Stats() (hits, misses, refills, drains uint64) {
	return l.hits, l.misses, l.refills, l.drains
}
