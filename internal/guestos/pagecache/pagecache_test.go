package pagecache

import (
	"testing"
	"testing/quick"
)

// framePool hands out frames up to a limit.
type framePool struct {
	next  uint64
	limit int
	out   map[uint64]bool
}

func newFramePool(limit int) *framePool {
	return &framePool{limit: limit, out: map[uint64]bool{}}
}

func (p *framePool) alloc() (uint64, bool) {
	if p.limit > 0 && len(p.out) >= p.limit {
		return 0, false
	}
	pfn := p.next
	p.next++
	p.out[pfn] = true
	return pfn, true
}

func (p *framePool) free(pfn uint64) {
	if !p.out[pfn] {
		panic("free of unallocated frame")
	}
	delete(p.out, pfn)
}

func TestReadMissThenHit(t *testing.T) {
	p := newFramePool(0)
	c := New(p.alloc, p.free)
	c.ReadaheadWindow = 0
	r1 := c.Read(1, 0, 4, nil)
	if r1.DiskPages != 4 || len(r1.Touched) != 4 {
		t.Fatalf("first read: disk=%d touched=%d", r1.DiskPages, len(r1.Touched))
	}
	r2 := c.Read(1, 0, 4, nil)
	if r2.DiskPages != 0 {
		t.Fatalf("second read hit disk: %d", r2.DiskPages)
	}
	hits, misses, _, _ := c.Stats()
	if hits != 4 || misses != 4 {
		t.Fatalf("hits=%d misses=%d", hits, misses)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReadahead(t *testing.T) {
	p := newFramePool(0)
	c := New(p.alloc, p.free)
	c.ReadaheadWindow = 8
	r := c.Read(1, 0, 2, nil)
	// 2 demand pages + 8 readahead pages.
	if r.DiskPages != 10 {
		t.Fatalf("disk pages = %d, want 10", r.DiskPages)
	}
	// Sequential follow-up is fully cached.
	r2 := c.Read(1, 2, 8, nil)
	if r2.DiskPages != 0 {
		t.Fatalf("readahead did not absorb sequential read: %d", r2.DiskPages)
	}
}

func TestReadaheadStopsAtCachedPage(t *testing.T) {
	p := newFramePool(0)
	c := New(p.alloc, p.free)
	c.ReadaheadWindow = 8
	c.Read(1, 4, 1, nil) // caches 4..12
	before := c.Pages()
	c.Read(1, 0, 2, nil) // readahead from 2 hits page 4 and stops
	added := c.Pages() - before
	if added != 4 { // pages 0,1 demand + 2,3 readahead
		t.Fatalf("added %d pages, want 4", added)
	}
}

func TestWriteMarksDirtyAndWriteback(t *testing.T) {
	p := newFramePool(0)
	c := New(p.alloc, p.free)
	c.ReadaheadWindow = 0
	w := c.Write(2, 10, 3, nil)
	if len(w.Touched) != 3 {
		t.Fatalf("touched = %d", len(w.Touched))
	}
	if c.DirtyCount() != 3 {
		t.Fatalf("dirty = %d", c.DirtyCount())
	}
	for _, pfn := range w.Touched {
		if !c.Dirty(pfn) {
			t.Fatalf("frame %d not dirty", pfn)
		}
	}
	flushed := c.Writeback(2)
	if len(flushed) != 2 || c.DirtyCount() != 1 {
		t.Fatalf("writeback(2): flushed=%d remaining=%d", len(flushed), c.DirtyCount())
	}
	flushed = c.Writeback(0) // 0 = all
	if len(flushed) != 1 || c.DirtyCount() != 0 {
		t.Fatalf("writeback(all): flushed=%d remaining=%d", len(flushed), c.DirtyCount())
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRewriteDoesNotDoubleDirty(t *testing.T) {
	p := newFramePool(0)
	c := New(p.alloc, p.free)
	c.Write(1, 0, 1, nil)
	c.Write(1, 0, 1, nil)
	if c.DirtyCount() != 1 {
		t.Fatalf("dirty = %d, want 1", c.DirtyCount())
	}
}

func TestEvictCleanAndDirty(t *testing.T) {
	p := newFramePool(0)
	c := New(p.alloc, p.free)
	c.ReadaheadWindow = 0
	r := c.Read(1, 0, 1, nil)
	w := c.Write(1, 5, 1, nil)
	clean, dirty := r.Touched[0], w.Touched[0]
	if wb := c.Evict(clean); wb {
		t.Fatal("clean evict reported writeback")
	}
	if wb := c.Evict(dirty); !wb {
		t.Fatal("dirty evict must report writeback")
	}
	if c.Pages() != 0 {
		t.Fatalf("pages = %d", c.Pages())
	}
	if len(p.out) != 0 {
		t.Fatal("frames leaked")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestEvictUnownedPanics(t *testing.T) {
	p := newFramePool(0)
	c := New(p.alloc, p.free)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Evict(42)
}

func TestAllocFailureFallsBackToDirectIO(t *testing.T) {
	p := newFramePool(2)
	c := New(p.alloc, p.free)
	c.ReadaheadWindow = 4
	r := c.Read(1, 0, 4, nil)
	// 2 pages cached; 2 uncached direct reads; readahead silently stops.
	if r.AllocFailed != 2 {
		t.Fatalf("alloc failed = %d, want 2", r.AllocFailed)
	}
	if r.DiskPages != 4 {
		t.Fatalf("disk pages = %d, want 4", r.DiskPages)
	}
	w := c.Write(1, 100, 1, nil)
	if w.AllocFailed != 1 || w.DiskPages != 1 {
		t.Fatalf("write fallback wrong: %+v", w)
	}
}

func TestInvalidateFile(t *testing.T) {
	p := newFramePool(0)
	c := New(p.alloc, p.free)
	c.ReadaheadWindow = 0
	c.Read(1, 0, 5, nil)
	c.Write(1, 2, 1, nil)
	c.Read(2, 0, 3, nil)
	n := c.InvalidateFile(1)
	if n != 5 {
		t.Fatalf("invalidated %d, want 5", n)
	}
	if c.FilePages(1) != 0 || c.FilePages(2) != 3 {
		t.Fatal("wrong pages dropped")
	}
	if c.DirtyCount() != 0 {
		t.Fatal("dirty entry survived invalidation")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestIdentityAndOwns(t *testing.T) {
	p := newFramePool(0)
	c := New(p.alloc, p.free)
	c.ReadaheadWindow = 0
	r := c.Read(7, 123, 1, nil)
	pfn := r.Touched[0]
	if !c.Owns(pfn) {
		t.Fatal("Owns false for cached frame")
	}
	f, off, ok := c.Identity(pfn)
	if !ok || f != 7 || off != 123 {
		t.Fatalf("identity = %d@%d ok=%v", f, off, ok)
	}
	if c.Owns(9999) {
		t.Fatal("Owns true for random frame")
	}
}

func TestCacheInvariantProperty(t *testing.T) {
	// Property: random sequences of reads, writes, writebacks and
	// evictions keep the maps consistent and never leak frames.
	f := func(ops []uint16) bool {
		p := newFramePool(64)
		c := New(p.alloc, p.free)
		c.ReadaheadWindow = 2
		for _, op := range ops {
			file := FileID(op%3 + 1)
			off := uint64(op >> 4 % 32)
			switch op % 4 {
			case 0:
				c.Read(file, off, int(op%5)+1, nil)
			case 1:
				c.Write(file, off, int(op%5)+1, nil)
			case 2:
				c.Writeback(int(op % 8))
			case 3:
				// Evict a known page if one exists at (file, off).
				if pfn, ok := c.Lookup(file, off); ok {
					c.Evict(pfn)
				}
			}
			if c.CheckInvariants() != nil {
				return false
			}
		}
		// Frames out == pages cached.
		return len(p.out) == c.Pages()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRekeyPreservesIdentityAndDirty(t *testing.T) {
	p := newFramePool(0)
	c := New(p.alloc, p.free)
	c.ReadaheadWindow = 0
	w := c.Write(3, 9, 1, nil)
	old := w.Touched[0]
	c.Rekey(old, 777)
	if c.Owns(old) {
		t.Fatal("old frame still owned")
	}
	f, off, ok := c.Identity(777)
	if !ok || f != 3 || off != 9 {
		t.Fatal("identity lost")
	}
	if !c.Dirty(777) || c.Dirty(old) {
		t.Fatal("dirty state not transferred")
	}
	if pfn, _ := c.Lookup(3, 9); pfn != 777 {
		t.Fatal("forward map not rekeyed")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRekeyPanics(t *testing.T) {
	p := newFramePool(0)
	c := New(p.alloc, p.free)
	c.ReadaheadWindow = 0
	r := c.Read(1, 0, 2, nil)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("rekey of unowned frame did not panic")
			}
		}()
		c.Rekey(999, 1000)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("rekey onto cached frame did not panic")
			}
		}()
		c.Rekey(r.Touched[0], r.Touched[1])
	}()
}

// TestReadWriteReuseBuffer: a read or write that hits every page fills
// the caller's buffer and allocates nothing, and the buffer holds the
// same frames a fresh one would.
func TestReadWriteReuseBuffer(t *testing.T) {
	p := newFramePool(0)
	c := New(p.alloc, p.free)
	first := c.Read(1, 0, 8, nil) // misses pull in readahead too
	want := append([]uint64(nil), first.Touched[:8]...)
	buf := make([]uint64, 0, 8)
	if a := testing.AllocsPerRun(100, func() { buf = c.Read(1, 0, 8, buf).Touched }); a != 0 {
		t.Fatalf("all-hit Read allocated %.1f times per call", a)
	}
	if a := testing.AllocsPerRun(100, func() { buf = c.Write(1, 0, 8, buf).Touched }); a != 0 {
		t.Fatalf("all-hit Write allocated %.1f times per call", a)
	}
	for i, pfn := range buf {
		if pfn != want[i] {
			t.Fatalf("Touched[%d] = %d through a reused buffer, want %d", i, pfn, want[i])
		}
	}
}
