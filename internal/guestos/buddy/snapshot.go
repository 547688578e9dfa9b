package buddy

import (
	"fmt"

	"heteroos/internal/snapshot"
)

// Snapshot serializes the allocator's mutable state: the free blocks as
// (base, order) pairs in ascending base order, and the split/coalesce
// counters. Allocation depends only on which blocks are free, so the
// maps' summary bits and cursors are rebuilt on restore, not stored.
func (a *Allocator) Snapshot(e *snapshot.Encoder) {
	e.U64(a.base)
	e.U64(a.size)
	e.U64(a.freePages)
	e.U64(a.splitCount)
	e.U64(a.coalesceCount)
	var n uint64
	for o := range a.free {
		n += a.free[o].count
	}
	e.U32(uint32(n))
	// Merge the per-order maps by base: next[o] is the relative frame
	// of order o's next block, valid while has[o].
	var next [MaxOrder + 1]uint64
	var has [MaxOrder + 1]bool
	for o := range a.free {
		i, ok := a.free[o].next(0)
		next[o], has[o] = i<<o, ok
	}
	for {
		lo := -1
		for o := range next {
			if has[o] && (lo < 0 || next[o] < next[lo]) {
				lo = o
			}
		}
		if lo < 0 {
			return
		}
		e.U64(a.base + next[lo])
		e.U8(uint8(lo))
		i, ok := a.free[lo].next(next[lo]>>lo + 1)
		next[lo], has[lo] = i<<lo, ok
	}
}

// Restore overwrites the allocator's mutable state from a snapshot.
// The span must match the one the snapshot was taken from. Every block
// must lie in the span, be aligned for its order and start at or after
// the end of the block before it, and the blocks must add up to the
// free-page count; anything else is refused with an error and leaves
// the allocator unchanged.
func (a *Allocator) Restore(d *snapshot.Decoder) error {
	base, size := d.U64(), d.U64()
	if base != a.base || size != a.size {
		return fmt.Errorf("buddy: snapshot span [%d,+%d) != allocator span [%d,+%d)", base, size, a.base, a.size)
	}
	freePages, splits, coalesces := d.U64(), d.U64(), d.U64()
	n := d.Len()
	if err := d.Err(); err != nil {
		return err
	}
	if uint64(n) > a.size {
		return fmt.Errorf("buddy: snapshot has %d free blocks, more than the %d-frame span", n, a.size)
	}
	type block struct {
		rel   uint64
		order int
	}
	blocks := make([]block, 0, n)
	var end, total uint64 // end: relative frame past the previous block
	for i := 0; i < n; i++ {
		pfn := d.U64()
		order := int(d.U8())
		if err := d.Err(); err != nil {
			return err
		}
		if order > MaxOrder {
			return fmt.Errorf("buddy: snapshot block %d has invalid order %d", pfn, order)
		}
		if !a.contains(pfn, order) {
			return fmt.Errorf("buddy: snapshot block [%d,+2^%d) outside span [%d,%d)", pfn, order, a.base, a.base+a.size)
		}
		rel := pfn - a.base
		if rel&(uint64(1)<<order-1) != 0 {
			return fmt.Errorf("buddy: snapshot block %d misaligned for order %d", pfn, order)
		}
		if i > 0 && rel < end {
			return fmt.Errorf("buddy: snapshot block %d overlaps or precedes the block before it", pfn)
		}
		end = rel + uint64(1)<<order
		total += uint64(1) << order
		blocks = append(blocks, block{rel, order})
	}
	if total != freePages {
		return fmt.Errorf("buddy: snapshot blocks hold %d frames, free count says %d", total, freePages)
	}
	for o := range a.free {
		a.free[o].reset()
	}
	for _, b := range blocks {
		a.free[b.order].set(b.rel >> b.order)
	}
	a.freePages, a.splitCount, a.coalesceCount = freePages, splits, coalesces
	return nil
}
