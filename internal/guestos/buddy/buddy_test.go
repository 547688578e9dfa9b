package buddy

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"heteroos/internal/snapshot"
)

func newFull(base, size uint64) *Allocator {
	a := New(base, size)
	a.AddRange(base, size)
	return a
}

func TestAllocFreeSingle(t *testing.T) {
	a := newFull(0, 1024)
	if a.FreePages() != 1024 {
		t.Fatalf("free = %d", a.FreePages())
	}
	p, err := a.AllocPage()
	if err != nil {
		t.Fatal(err)
	}
	if a.FreePages() != 1023 {
		t.Fatalf("free = %d after alloc", a.FreePages())
	}
	a.FreePage(p)
	if a.FreePages() != 1024 {
		t.Fatalf("free = %d after free", a.FreePages())
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAddressOrdered(t *testing.T) {
	a := newFull(100, 256)
	p1, _ := a.AllocPage()
	p2, _ := a.AllocPage()
	if p1 != 100 || p2 != 101 {
		t.Fatalf("not address ordered: %d, %d", p1, p2)
	}
}

func TestOrderAllocAlignment(t *testing.T) {
	a := newFull(0, 1024)
	for order := 0; order <= MaxOrder; order++ {
		p, err := a.Alloc(order)
		if err != nil {
			t.Fatalf("order %d: %v", order, err)
		}
		if p%(1<<uint(order)) != 0 {
			t.Fatalf("order %d block at %d misaligned", order, p)
		}
		a.Free(p, order)
	}
	if a.FreePages() != 1024 {
		t.Fatalf("leaked pages: %d", a.FreePages())
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSplitAndCoalesce(t *testing.T) {
	a := newFull(0, 16)
	// Allocate all 16 pages singly: splits must occur.
	var pages []uint64
	for i := 0; i < 16; i++ {
		p, err := a.AllocPage()
		if err != nil {
			t.Fatal(err)
		}
		pages = append(pages, p)
	}
	if a.Splits() == 0 {
		t.Fatal("expected splits")
	}
	if _, err := a.AllocPage(); !errors.Is(err, ErrNoMemory) {
		t.Fatalf("want ErrNoMemory, got %v", err)
	}
	// Free all: coalescing must reassemble one order-4 block.
	for _, p := range pages {
		a.FreePage(p)
	}
	if a.Coalesces() == 0 {
		t.Fatal("expected coalesces")
	}
	if p, err := a.Alloc(4); err != nil || p != 0 {
		t.Fatalf("order-4 realloc failed: %d, %v", p, err)
	}
}

func TestDoubleFreePanics(t *testing.T) {
	a := newFull(0, 8)
	p, _ := a.AllocPage()
	a.FreePage(p)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	a.FreePage(p)
}

func TestFreeOutsideSpanPanics(t *testing.T) {
	a := newFull(10, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-span free did not panic")
		}
	}()
	a.FreePage(5)
}

func TestFreePanicsOnBadBlocks(t *testing.T) {
	for name, free := range map[string]func(a *Allocator){
		"misaligned":        func(a *Allocator) { a.Free(11, 1) }, // relative frame 1
		"inside free block": func(a *Allocator) { a.FreePage(13) },
	} {
		a := newFull(10, 8)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s free did not panic", name)
				}
			}()
			free(a)
		}()
	}
}

func TestInvalidOrder(t *testing.T) {
	a := newFull(0, 8)
	if _, err := a.Alloc(-1); err == nil {
		t.Fatal("negative order accepted")
	}
	if _, err := a.Alloc(MaxOrder + 1); err == nil {
		t.Fatal("oversized order accepted")
	}
}

func TestPartialPopulation(t *testing.T) {
	a := New(0, 1024)
	if _, err := a.AllocPage(); !errors.Is(err, ErrNoMemory) {
		t.Fatal("unpopulated allocator should be empty")
	}
	a.AddRange(512, 64)
	if a.FreePages() != 64 {
		t.Fatalf("free = %d", a.FreePages())
	}
	p, err := a.AllocPage()
	if err != nil || p < 512 || p >= 576 {
		t.Fatalf("allocated %d from wrong range, err=%v", p, err)
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReserve(t *testing.T) {
	a := newFull(0, 128)
	got := a.Reserve(50)
	if len(got) != 50 {
		t.Fatalf("reserved %d, want 50", len(got))
	}
	if a.FreePages() != 78 {
		t.Fatalf("free = %d, want 78", a.FreePages())
	}
	seen := map[uint64]bool{}
	for _, p := range got {
		if seen[p] {
			t.Fatalf("duplicate frame %d", p)
		}
		seen[p] = true
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Reserve more than available: returns what it can.
	rest := a.Reserve(1000)
	if len(rest) != 78 {
		t.Fatalf("drained %d, want 78", len(rest))
	}
	if a.FreePages() != 0 {
		t.Fatal("allocator should be empty")
	}
}

func TestReserveReturnsToPool(t *testing.T) {
	a := newFull(0, 64)
	got := a.Reserve(3) // forces over-split of a larger block
	if len(got) != 3 {
		t.Fatalf("got %d", len(got))
	}
	if a.FreePages() != 61 {
		t.Fatalf("free = %d", a.FreePages())
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFragmentationThenRecovery(t *testing.T) {
	a := newFull(0, 256)
	var odd []uint64
	var even []uint64
	for i := 0; i < 256; i++ {
		p, err := a.AllocPage()
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			even = append(even, p)
		} else {
			odd = append(odd, p)
		}
	}
	for _, p := range odd {
		a.FreePage(p)
	}
	// Only order-0 blocks available now.
	if _, err := a.Alloc(1); !errors.Is(err, ErrNoMemory) {
		t.Fatal("order-1 should fail under full fragmentation")
	}
	for _, p := range even {
		a.FreePage(p)
	}
	// Everything coalesces back; a large block must succeed.
	if _, err := a.Alloc(8); err != nil {
		t.Fatal(err)
	}
	if err := a.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBuddyInvariantProperty(t *testing.T) {
	// Property: arbitrary alloc/free interleavings preserve invariants
	// and conserve frames.
	type held struct {
		pfn   uint64
		order int
	}
	f := func(ops []uint16) bool {
		a := newFull(0, 512)
		var live []held
		for _, op := range ops {
			if op%2 == 0 || len(live) == 0 {
				order := int(op>>2) % 4
				p, err := a.Alloc(order)
				if err == nil {
					live = append(live, held{p, order})
				}
			} else {
				i := int(op>>2) % len(live)
				a.Free(live[i].pfn, live[i].order)
				live = append(live[:i], live[i+1:]...)
			}
		}
		var livePages uint64
		for _, h := range live {
			livePages += uint64(1) << h.order
		}
		if a.FreePages()+livePages != 512 {
			return false
		}
		return a.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestAccessors(t *testing.T) {
	a := New(7, 100)
	if a.Base() != 7 || a.Size() != 100 {
		t.Fatal("accessors wrong")
	}
}

// sectionBytes returns the body fn encodes, as a snapshot section
// holds it.
func sectionBytes(t *testing.T, fn func(*snapshot.Encoder)) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := snapshot.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Section("buddy", fn); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := snapshot.Open(&buf)
	if err != nil {
		t.Fatal(err)
	}
	body, ok := r.Raw("buddy")
	if !ok {
		t.Fatal("section missing")
	}
	return body
}

// TestMatchesMapHeapOracle drives the bitmap allocator and the map+heap
// oracle through the same random operations (allocations of every
// order, frees, AddRange over partly populated spans, Reserve, invalid
// orders, and periodic snapshot/restore) and requires identical results
// and state after every step.
func TestMatchesMapHeapOracle(t *testing.T) {
	spans := []struct{ base, size uint64 }{
		{0, 1}, {3, 5}, {7, 37}, {1000, 1000}, {12345, 3000}, {5, 2049}, {0, 4096},
	}
	type held struct {
		pfn   uint64
		order int
	}
	for _, sp := range spans {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			a, ref := New(sp.base, sp.size), newRef(sp.base, sp.size)
			populated := make([]bool, sp.size)
			var live []held
			step := func(op string) {
				t.Helper()
				if a.FreePages() != ref.freePages || a.Splits() != ref.splitCount || a.Coalesces() != ref.coalesceCount {
					t.Fatalf("span %v seed %d %s: free/splits/coalesces %d/%d/%d, oracle %d/%d/%d", sp, seed, op,
						a.FreePages(), a.Splits(), a.Coalesces(), ref.freePages, ref.splitCount, ref.coalesceCount)
				}
				if err := a.CheckInvariants(); err != nil {
					t.Fatalf("span %v seed %d %s: %v", sp, seed, op, err)
				}
				if got, want := sectionBytes(t, a.Snapshot), sectionBytes(t, ref.Snapshot); !bytes.Equal(got, want) {
					t.Fatalf("span %v seed %d %s: snapshot bytes differ from the oracle", sp, seed, op)
				}
			}
			// Populate a random part of the span at the start.
			for i := range populated {
				if rng.Intn(3) > 0 {
					populated[i] = true
					a.AddRange(sp.base+uint64(i), 1)
					ref.AddRange(sp.base+uint64(i), 1)
				}
			}
			step("boot")
			for i := 0; i < 600; i++ {
				switch r := rng.Intn(20); {
				case r < 8:
					order := rng.Intn(MaxOrder + 1)
					if rng.Intn(2) == 0 {
						order = rng.Intn(3)
					}
					p, err := a.Alloc(order)
					q, rerr := ref.Alloc(order)
					if p != q || errors.Is(err, ErrNoMemory) != errors.Is(rerr, ErrNoMemory) || (err == nil) != (rerr == nil) {
						t.Fatalf("span %v seed %d: Alloc(%d) = %d, %v; oracle %d, %v", sp, seed, order, p, err, q, rerr)
					}
					if err == nil {
						live = append(live, held{p, order})
					}
				case r < 14:
					if len(live) == 0 {
						continue
					}
					j := rng.Intn(len(live))
					a.Free(live[j].pfn, live[j].order)
					ref.Free(live[j].pfn, live[j].order)
					live = slices.Delete(live, j, j+1)
				case r < 16:
					// AddRange over a run of unpopulated frames.
					start := uint64(rng.Intn(int(sp.size)))
					n := uint64(0)
					for start+n < sp.size && !populated[start+n] && n < uint64(rng.Intn(300)+1) {
						populated[start+n] = true
						n++
					}
					a.AddRange(sp.base+start, n)
					ref.AddRange(sp.base+start, n)
				case r < 18:
					n := uint64(rng.Intn(70))
					got, want := a.Reserve(n), ref.Reserve(n)
					if !slices.Equal(got, want) {
						t.Fatalf("span %v seed %d: Reserve(%d) = %v, oracle %v", sp, seed, n, got, want)
					}
					for _, p := range got {
						populated[p-sp.base] = false
					}
				case r < 19:
					for _, order := range []int{-1, MaxOrder + 1} {
						if _, err := a.Alloc(order); err == nil || errors.Is(err, ErrNoMemory) {
							t.Fatalf("Alloc(%d) = %v, want an invalid-order error", order, err)
						}
					}
				default:
					// Continue on a copy restored from a snapshot: its
					// cursors are rebuilt, and must choose the same blocks.
					b := New(sp.base, sp.size)
					if err := b.Restore(snapshot.NewDecoder(sectionBytes(t, a.Snapshot))); err != nil {
						t.Fatalf("span %v seed %d: restore: %v", sp, seed, err)
					}
					a = b
				}
				step(fmt.Sprintf("step %d", i))
			}
		}
	}
}

func TestZeroAllocs(t *testing.T) {
	a := newFull(0, 4096)
	for _, order := range []int{0, 4, MaxOrder} {
		if n := testing.AllocsPerRun(100, func() {
			p, err := a.Alloc(order)
			if err != nil {
				t.Fatal(err)
			}
			a.Free(p, order)
		}); n != 0 {
			t.Errorf("Alloc/Free(order %d) round trip: %v allocs, want 0", order, n)
		}
	}
	exhausted := newFull(0, 64)
	if _, err := exhausted.Alloc(6); err != nil {
		t.Fatal(err)
	}
	// Half the frames free, but no two of them adjacent: order 1 fails
	// past the free-page fast check.
	fragmented := newFull(0, 64)
	for p := uint64(0); p < 64; p++ {
		if _, err := fragmented.Alloc(0); err != nil {
			t.Fatal(err)
		}
	}
	for p := uint64(0); p < 64; p += 2 {
		fragmented.FreePage(p)
	}
	for name, c := range map[string]struct {
		a     *Allocator
		order int
	}{"exhausted": {exhausted, 0}, "empty": {New(0, 64), 0}, "fragmented": {fragmented, 1}} {
		if n := testing.AllocsPerRun(100, func() {
			if _, err := c.a.Alloc(c.order); !errors.Is(err, ErrNoMemory) {
				t.Fatalf("%s: want ErrNoMemory, got %v", name, err)
			}
		}); n != 0 {
			t.Errorf("failing Alloc on %s allocator: %v allocs, want 0", name, n)
		}
	}
}

// TestRestoreRejectsCorruptBlocks feeds Restore crafted snapshots that
// a correct allocator never writes. Each must be refused with an error
// naming the fault, without a panic and without touching the allocator.
func TestRestoreRejectsCorruptBlocks(t *testing.T) {
	const base, size = 100, 60
	type blk struct {
		pfn   uint64
		order uint8
	}
	craft := func(freePages uint64, count uint32, blocks []blk) func(*snapshot.Encoder) {
		return func(e *snapshot.Encoder) {
			e.U64(base)
			e.U64(size)
			e.U64(freePages)
			e.U64(7) // splits
			e.U64(9) // coalesces
			e.U32(count)
			for _, b := range blocks {
				e.U64(b.pfn)
				e.U8(b.order)
			}
		}
	}
	many := make([]blk, size+1)
	for i := range many {
		many[i] = blk{base + uint64(i%size), 0}
	}
	cases := []struct {
		name      string
		freePages uint64
		count     uint32
		blocks    []blk
		want      string
	}{
		{"count beyond span", size + 1, size + 1, many, "more than the"},
		{"below span", 1, 1, []blk{{50, 0}}, "outside span"},
		{"past span", 1, 1, []blk{{base + size, 0}}, "outside span"},
		{"straddles span end", 32, 1, []blk{{base + 32, 5}}, "outside span"},
		{"huge base", 1, 1, []blk{{^uint64(0), 0}}, "outside span"},
		{"misaligned", 2, 1, []blk{{base + 1, 1}}, "misaligned"},
		{"overlapping", 5, 2, []blk{{base, 2}, {base + 2, 0}}, "overlaps"},
		{"duplicate", 2, 2, []blk{{base + 4, 0}, {base + 4, 0}}, "overlaps"},
		{"descending", 2, 2, []blk{{base + 8, 0}, {base + 4, 0}}, "overlaps"},
		{"free total", 3, 2, []blk{{base, 0}, {base + 2, 0}}, "free count says"},
		{"invalid order", 1, 1, []blk{{base, MaxOrder + 1}}, "invalid order"},
		{"truncated", 2, 2, []blk{{base, 0}}, "truncated"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			a := newFull(base, size)
			if _, err := a.Alloc(3); err != nil {
				t.Fatal(err)
			}
			before := sectionBytes(t, a.Snapshot)
			err := a.Restore(snapshot.NewDecoder(sectionBytes(t, craft(c.freePages, c.count, c.blocks))))
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Restore error = %v, want one containing %q", err, c.want)
			}
			if !bytes.Equal(sectionBytes(t, a.Snapshot), before) {
				t.Fatal("refused Restore changed the allocator")
			}
			if err := a.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
	// A well-formed snapshot of the same shape restores.
	a := New(base, size)
	good := craft(5, 2, []blk{{base, 2}, {base + 8, 0}})
	if err := a.Restore(snapshot.NewDecoder(sectionBytes(t, good))); err != nil {
		t.Fatal(err)
	}
	if a.FreePages() != 5 || a.Splits() != 7 || a.Coalesces() != 9 {
		t.Fatalf("restored free/splits/coalesces = %d/%d/%d", a.FreePages(), a.Splits(), a.Coalesces())
	}
	if p, err := a.Alloc(2); err != nil || p != base {
		t.Fatalf("Alloc(2) after restore = %d, %v", p, err)
	}
}
