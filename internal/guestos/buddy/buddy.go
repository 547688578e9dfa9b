// Package buddy implements the binary buddy page allocator the guest OS
// uses per NUMA node (Linux's zoned buddy allocator, Section 3.1 of the
// paper). It is generic over uint64 frame indices so it can be tested in
// isolation and reused by any node type.
//
// The allocator is address-ordered: allocations are served from the
// lowest-addressed free block of the smallest sufficient order, which
// keeps behaviour deterministic across runs (a requirement for
// reproducible experiments) and mirrors Linux's preference for low
// physical addresses.
//
// Each order keeps a bitmap of its free blocks (see freeMap), so
// allocating, freeing and coalescing are a few bit operations and
// allocate nothing.
//
// A node's frame span may be only partially populated: in virtualized
// systems the balloon driver adds (populates) and removes (depopulates)
// frames at runtime. Unpopulated frames are simply absent from the free
// lists.
package buddy

import (
	"errors"
	"fmt"
)

// MaxOrder is the largest supported allocation order (2^10 pages = 4 MiB
// blocks at 4 KiB pages, matching Linux's MAX_ORDER-1 = 10).
const MaxOrder = 10

// ErrNoMemory is returned when no free block of a sufficient order exists.
var ErrNoMemory = errors.New("buddy: out of memory")

// Allocator is a buddy allocator over the frame span [base, base+size).
// Blocks are aligned relative to base: a block of order o starts at a
// relative frame that is a multiple of 2^o.
type Allocator struct {
	base, size uint64
	// free[o] holds the blocks that are free at exactly order o. A frame
	// is free iff exactly one of these maps has a block covering it.
	free      [MaxOrder + 1]freeMap
	freePages uint64
	// splitCount/coalesceCount are exposed for allocator-behaviour tests
	// and ablation benchmarks.
	splitCount, coalesceCount uint64
}

// New creates an allocator over [base, base+size) with no populated
// frames. Call AddRange to populate. The free maps take about size/4
// bytes in total, allocated here in one piece.
func New(base, size uint64) *Allocator {
	a := &Allocator{base: base, size: size}
	var nw, ns int
	for o := 0; o <= MaxOrder; o++ {
		w, s := mapWords(size >> o)
		nw += w
		ns += s
	}
	words, summary := make([]uint64, nw), make([]uint64, ns)
	for o := 0; o <= MaxOrder; o++ {
		w, s := mapWords(size >> o)
		a.free[o] = freeMap{words: words[:w:w], summary: summary[:s:s], nblocks: size >> o, low: w}
		words, summary = words[w:], summary[s:]
	}
	return a
}

// Base returns the first frame of the span.
func (a *Allocator) Base() uint64 { return a.base }

// Size returns the span length in frames.
func (a *Allocator) Size() uint64 { return a.size }

// FreePages reports the number of free frames.
func (a *Allocator) FreePages() uint64 { return a.freePages }

// Splits reports how many block splits have occurred (ablation metric).
func (a *Allocator) Splits() uint64 { return a.splitCount }

// Coalesces reports how many buddy merges have occurred.
func (a *Allocator) Coalesces() uint64 { return a.coalesceCount }

func (a *Allocator) contains(pfn uint64, order int) bool {
	n := uint64(1) << order
	return pfn >= a.base && n <= a.size && pfn-a.base <= a.size-n
}

// pushFree records the free block at relative frame rel and coalesces
// upward, exactly like __free_one_page: while the buddy block of the
// same order is also free, merge and move up an order.
func (a *Allocator) pushFree(rel uint64, order int) {
	for order < MaxOrder {
		m := &a.free[order]
		buddy := rel>>order ^ 1
		if !m.test(buddy) {
			break
		}
		m.clear(buddy)
		rel &^= uint64(1) << order
		order++
		a.coalesceCount++
	}
	a.free[order].set(rel >> order)
}

// popFree removes and returns the relative frame of the lowest-addressed
// free block of exactly this order, or false if none exists.
func (a *Allocator) popFree(order int) (uint64, bool) {
	m := &a.free[order]
	i, ok := m.first()
	if !ok {
		return 0, false
	}
	m.clear(i)
	return i << order, true
}

// Alloc allocates a block of 2^order contiguous frames and returns its
// base frame: the lowest-addressed block of the smallest sufficient
// free order, split top-down to the requested order. Out of memory is
// the bare ErrNoMemory, so a failing call allocates nothing.
func (a *Allocator) Alloc(order int) (uint64, error) {
	if order < 0 || order > MaxOrder {
		return 0, fmt.Errorf("buddy: invalid order %d", order)
	}
	if a.freePages < uint64(1)<<order {
		return 0, ErrNoMemory
	}
	for o := order; o <= MaxOrder; o++ {
		rel, ok := a.popFree(o)
		if !ok {
			continue
		}
		// Split down to the requested order, freeing the upper halves.
		for o > order {
			o--
			a.free[o].set(rel>>o | 1)
			a.splitCount++
		}
		a.freePages -= uint64(1) << order
		return a.base + rel, nil
	}
	return 0, ErrNoMemory
}

// AllocPage allocates a single frame.
func (a *Allocator) AllocPage() (uint64, error) { return a.Alloc(0) }

// Free returns a block of 2^order frames starting at pfn. Freeing a
// block whose first frame is already free panics (double free), as does
// a block outside the span or misaligned for its order.
func (a *Allocator) Free(pfn uint64, order int) {
	if order < 0 || order > MaxOrder {
		panic(fmt.Sprintf("buddy: invalid order %d", order))
	}
	if !a.contains(pfn, order) {
		panic(fmt.Sprintf("buddy: free of [%d,+2^%d) outside span [%d,%d)", pfn, order, a.base, a.base+a.size))
	}
	rel := pfn - a.base
	if rel&(uint64(1)<<order-1) != 0 {
		panic(fmt.Sprintf("buddy: free of block %d misaligned for order %d", pfn, order))
	}
	for o := 0; o <= MaxOrder; o++ {
		if a.free[o].test(rel >> o) {
			panic(fmt.Sprintf("buddy: double free of block %d", pfn))
		}
	}
	a.freePages += uint64(1) << order
	a.pushFree(rel, order)
}

// FreePage returns a single frame.
func (a *Allocator) FreePage(pfn uint64) { a.Free(pfn, 0) }

// AddRange populates n frames starting at pfn, making them available for
// allocation. Used at boot and when the balloon driver inflates the
// guest's reservation. Frames are inserted page-wise; coalescing
// reassembles large blocks automatically.
func (a *Allocator) AddRange(pfn, n uint64) {
	for i := uint64(0); i < n; i++ {
		a.Free(pfn+i, 0)
	}
}

// Reserve removes up to n free frames from the allocator and returns
// them (balloon deflation path: the guest surrenders frames to the VMM).
// It prefers small blocks to avoid fragmenting large ones.
func (a *Allocator) Reserve(n uint64) []uint64 {
	out := make([]uint64, 0, min(n, a.freePages))
	for uint64(len(out)) < n {
		got := false
		for o := 0; o <= MaxOrder && uint64(len(out)) < n; o++ {
			rel, ok := a.popFree(o)
			if !ok {
				continue
			}
			got = true
			a.freePages -= uint64(1) << o
			for i := uint64(0); i < uint64(1)<<o; i++ {
				if uint64(len(out)) < n {
					out = append(out, a.base+rel+i)
				} else {
					// Over-split: return the tail frames.
					a.freePages++
					a.pushFree(rel+i, 0)
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

// CheckInvariants validates the free-block bookkeeping: the maps hold
// freePages frames, no two free blocks overlap, no free block has a free
// buddy of the same order (coalescing is maximal), and each map's block
// count, summary bits and low-water cursor agree with its words.
func (a *Allocator) CheckInvariants() error {
	var total uint64
	for o := 0; o <= MaxOrder; o++ {
		m := &a.free[o]
		var n uint64
		for i, ok := m.next(0); ok; i, ok = m.next(i + 1) {
			n++
			pfn := a.base + i<<o
			if o < MaxOrder && m.test(i^1) {
				return fmt.Errorf("buddy: blocks %d and %d of order %d not coalesced", pfn, a.base+(i^1)<<o, o)
			}
			// Blocks of one order never overlap; a larger block overlaps
			// this one iff it covers its first frame.
			for h := o + 1; h <= MaxOrder; h++ {
				if a.free[h].test(i << o >> h) {
					return fmt.Errorf("buddy: frame %d covered by two free blocks", pfn)
				}
			}
		}
		if n != m.count {
			return fmt.Errorf("buddy: order %d map holds %d blocks, count says %d", o, n, m.count)
		}
		for w, word := range m.words {
			if (word != 0) != (m.summary[w>>6]&(1<<(w&63)) != 0) {
				return fmt.Errorf("buddy: order %d summary bit %d disagrees with its word", o, w)
			}
			if word != 0 && w < m.low {
				return fmt.Errorf("buddy: order %d word %d is nonzero below the cursor %d", o, w, m.low)
			}
		}
		total += n << o
	}
	if total != a.freePages {
		return fmt.Errorf("buddy: free map total %d != freePages %d", total, a.freePages)
	}
	return nil
}
