package buddy

import (
	"container/heap"
	"fmt"
	"sort"

	"heteroos/internal/snapshot"
)

// refAllocator is the map-plus-heap buddy allocator the bitmap version
// replaced, kept as a test oracle: a free-block map from base to order,
// and per-order lazy min-heaps of bases whose stale entries are skipped
// on pop. It serves the same rule (lowest address within the smallest
// sufficient order), so every result must match Allocator's.
type refAllocator struct {
	base, size                uint64
	freeOrder                 map[uint64]int
	heaps                     [MaxOrder + 1]orderHeap
	freePages                 uint64
	splitCount, coalesceCount uint64
}

type orderHeap []uint64

func (h orderHeap) Len() int            { return len(h) }
func (h orderHeap) Less(i, j int) bool  { return h[i] < h[j] }
func (h orderHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *orderHeap) Push(x interface{}) { *h = append(*h, x.(uint64)) }
func (h *orderHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

func newRef(base, size uint64) *refAllocator {
	return &refAllocator{base: base, size: size, freeOrder: make(map[uint64]int)}
}

func (a *refAllocator) contains(pfn uint64, order int) bool {
	n := uint64(1) << order
	return pfn >= a.base && pfn-a.base+n <= a.size
}

func (a *refAllocator) pushFree(pfn uint64, order int) {
	for order < MaxOrder {
		rel := pfn - a.base
		buddyRel := rel ^ (uint64(1) << order)
		buddyPfn := a.base + buddyRel
		if o, ok := a.freeOrder[buddyPfn]; !ok || o != order || !a.contains(buddyPfn, order) {
			break
		}
		delete(a.freeOrder, buddyPfn)
		if buddyRel < rel {
			pfn = buddyPfn
		}
		order++
		a.coalesceCount++
	}
	a.freeOrder[pfn] = order
	heap.Push(&a.heaps[order], pfn)
}

func (a *refAllocator) popFree(order int) (uint64, bool) {
	h := &a.heaps[order]
	for h.Len() > 0 {
		pfn := (*h)[0]
		if o, ok := a.freeOrder[pfn]; ok && o == order {
			heap.Pop(h)
			delete(a.freeOrder, pfn)
			return pfn, true
		}
		heap.Pop(h) // stale entry
	}
	return 0, false
}

func (a *refAllocator) Alloc(order int) (uint64, error) {
	if order < 0 || order > MaxOrder {
		return 0, fmt.Errorf("buddy: invalid order %d", order)
	}
	for o := order; o <= MaxOrder; o++ {
		pfn, ok := a.popFree(o)
		if !ok {
			continue
		}
		for o > order {
			o--
			half := pfn + (uint64(1) << o)
			a.freeOrder[half] = o
			heap.Push(&a.heaps[o], half)
			a.splitCount++
		}
		a.freePages -= uint64(1) << order
		return pfn, nil
	}
	return 0, fmt.Errorf("%w: order %d (free pages %d)", ErrNoMemory, order, a.freePages)
}

func (a *refAllocator) Free(pfn uint64, order int) {
	if !a.contains(pfn, order) {
		panic(fmt.Sprintf("ref: free of [%d,+2^%d) outside span", pfn, order))
	}
	if _, ok := a.freeOrder[pfn]; ok {
		panic(fmt.Sprintf("ref: double free of block %d", pfn))
	}
	a.freePages += uint64(1) << order
	a.pushFree(pfn, order)
}

func (a *refAllocator) AddRange(pfn, n uint64) {
	for i := uint64(0); i < n; i++ {
		a.Free(pfn+i, 0)
	}
}

func (a *refAllocator) Reserve(n uint64) []uint64 {
	out := make([]uint64, 0, n)
	for uint64(len(out)) < n {
		got := false
		for o := 0; o <= MaxOrder && uint64(len(out)) < n; o++ {
			pfn, ok := a.popFree(o)
			if !ok {
				continue
			}
			got = true
			a.freePages -= uint64(1) << o
			for i := uint64(0); i < uint64(1)<<o; i++ {
				if uint64(len(out)) < n {
					out = append(out, pfn+i)
				} else {
					a.freePages++
					a.pushFree(pfn+i, 0)
				}
			}
			break
		}
		if !got {
			break
		}
	}
	return out
}

func (a *refAllocator) Snapshot(e *snapshot.Encoder) {
	e.U64(a.base)
	e.U64(a.size)
	e.U64(a.freePages)
	e.U64(a.splitCount)
	e.U64(a.coalesceCount)
	bases := make([]uint64, 0, len(a.freeOrder))
	for pfn := range a.freeOrder {
		bases = append(bases, pfn)
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })
	e.U32(uint32(len(bases)))
	for _, pfn := range bases {
		e.U64(pfn)
		e.U8(uint8(a.freeOrder[pfn]))
	}
}
