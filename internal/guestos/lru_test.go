package guestos

import (
	"math/rand/v2"
	"reflect"
	"testing"
	"testing/quick"
)

// lruFixture builds a PageLRU over a private store; pages are marked
// in-use so Insert's flag checks behave as in production.
func lruFixture(n uint64) (*PageStore, *PageLRU) {
	store := NewPageStore(n)
	for pfn := PFN(0); pfn < PFN(n); pfn++ {
		store.SetKind(pfn, KindAnon)
	}
	return store, NewPageLRU(store)
}

func TestLRUInsertRemove(t *testing.T) {
	_, l := lruFixture(16)
	l.Insert(3)
	l.Insert(7)
	if l.Count() != 2 || l.InactiveCount() != 2 || l.ActiveCount() != 0 {
		t.Fatalf("counts wrong: %d/%d/%d", l.Count(), l.InactiveCount(), l.ActiveCount())
	}
	if !l.Contains(3) || l.Contains(4) {
		t.Fatal("Contains wrong")
	}
	l.Remove(3)
	if l.Count() != 1 || l.Contains(3) {
		t.Fatal("remove failed")
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLRUDoubleInsertPanics(t *testing.T) {
	_, l := lruFixture(4)
	l.Insert(1)
	defer func() {
		if recover() == nil {
			t.Fatal("double insert did not panic")
		}
	}()
	l.Insert(1)
}

func TestLRURemoveAbsentPanics(t *testing.T) {
	_, l := lruFixture(4)
	defer func() {
		if recover() == nil {
			t.Fatal("remove of absent page did not panic")
		}
	}()
	l.Remove(2)
}

func TestLRUSecondChanceActivation(t *testing.T) {
	_, l := lruFixture(8)
	l.Insert(0)
	l.MarkAccessed(0) // first touch: referenced bit only
	if l.ActiveCount() != 0 {
		t.Fatal("activated on first touch")
	}
	l.MarkAccessed(0) // second touch: activate
	if l.ActiveCount() != 1 || l.InactiveCount() != 0 {
		t.Fatal("second touch did not activate")
	}
	acts, _ := l.Stats()
	if acts != 1 {
		t.Fatalf("activations = %d", acts)
	}
}

func TestLRUDeactivateAndRotate(t *testing.T) {
	store, l := lruFixture(8)
	l.Insert(0)
	l.MarkAccessed(0)
	l.MarkAccessed(0)
	l.Deactivate(0)
	if l.ActiveCount() != 0 || store.Has(0, FlagAccessed) {
		t.Fatal("deactivate must clear referenced bit and move lists")
	}
	// Tail rotation clears the bit and keeps the page inactive.
	l.Insert(1)
	store.Set(1, FlagAccessed)
	l.RotateInactive(1)
	if store.Has(1, FlagAccessed) || !l.Contains(1) {
		t.Fatal("rotate semantics wrong")
	}
	// TailInactive returns the oldest inactive page (0, then rotated 1
	// went to the head).
	if got := l.TailInactive(); got != 0 {
		t.Fatalf("tail = %d, want 0", got)
	}
}

func TestLRUBalanceCapsAndOrder(t *testing.T) {
	_, l := lruFixture(64)
	// Build a large active list.
	for pfn := PFN(0); pfn < 10; pfn++ {
		l.Insert(pfn)
		l.MarkAccessed(pfn)
		l.MarkAccessed(pfn)
	}
	if l.ActiveCount() != 10 {
		t.Fatal("setup failed")
	}
	demoted := l.Balance(3)
	if len(demoted) != 3 {
		t.Fatalf("Balance demoted %d, want cap 3", len(demoted))
	}
	// Oldest activations demote first (active tail).
	if demoted[0] != 0 || demoted[1] != 1 || demoted[2] != 2 {
		t.Fatalf("demotion order wrong: %v", demoted)
	}
	// Balance stops once lists even out.
	all := l.Balance(100)
	if l.ActiveCount() > l.InactiveCount() {
		t.Fatalf("unbalanced after full Balance: %d/%d (moved %d)",
			l.ActiveCount(), l.InactiveCount(), len(all))
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLRUMarkAccessedOffList(t *testing.T) {
	store, l := lruFixture(4)
	// Pages not on the LRU are ignored without panic.
	l.MarkAccessed(2)
	if store.Has(2, FlagAccessed) {
		t.Fatal("off-list page must not gain the referenced bit via LRU")
	}
}

func TestLRUInvariantProperty(t *testing.T) {
	// Property: arbitrary insert/touch/deactivate/balance/remove
	// interleavings keep both lists structurally sound and every page on
	// exactly one list.
	f := func(ops []uint16) bool {
		store, l := lruFixture(64)
		onLRU := map[PFN]bool{}
		for _, op := range ops {
			pfn := PFN(op % 64)
			switch op % 5 {
			case 0:
				if !onLRU[pfn] {
					l.Insert(pfn)
					onLRU[pfn] = true
				}
			case 1:
				if onLRU[pfn] {
					l.MarkAccessed(pfn)
				}
			case 2:
				if onLRU[pfn] {
					l.Deactivate(pfn)
				}
			case 3:
				l.Balance(int(op>>4) % 8)
			case 4:
				if onLRU[pfn] {
					l.Remove(pfn)
					delete(onLRU, pfn)
				}
			}
		}
		if int(l.Count()) != len(onLRU) {
			return false
		}
		for pfn := range onLRU {
			if !store.Has(pfn, FlagOnLRU) {
				return false
			}
		}
		return l.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestPageFlagsHelpers(t *testing.T) {
	var p Page
	p.Set(FlagDirty | FlagActive)
	if !p.Has(FlagDirty) || !p.Has(FlagActive) || !p.Has(FlagDirty|FlagActive) {
		t.Fatal("Has broken")
	}
	if p.Has(FlagDirty | FlagPinned) {
		t.Fatal("Has must require all bits")
	}
	p.Clear(FlagDirty)
	if p.Has(FlagDirty) || !p.Has(FlagActive) {
		t.Fatal("Clear broken")
	}
}

func TestPageKindStringsAndMovability(t *testing.T) {
	if KindAnon.String() != "heap/anon" || KindNetBuf.String() != "NW-buff" {
		t.Fatal("kind names diverge from Figure 4 labels")
	}
	if PageKind(77).String() == "" {
		t.Fatal("unknown kind should render")
	}
	movable := map[PageKind]bool{
		KindAnon: true, KindPageCache: true, KindNetBuf: true, KindSlab: true,
		KindPageTable: false, KindDMA: false, KindFree: false,
	}
	for k, want := range movable {
		if k.Movable() != want {
			t.Errorf("%v movable = %v, want %v", k, k.Movable(), want)
		}
	}
}

// rotateAnonRunRef is RotateAnonRun's per-page oracle: successive
// RotateInactive calls on an anonymous inactive tail, at most max.
func rotateAnonRunRef(store *PageStore, l *PageLRU, max uint64) uint64 {
	var n uint64
	for ; n < max; n++ {
		pfn := l.TailInactive()
		if pfn == NilPFN || store.Kind(pfn) != KindAnon {
			break
		}
		l.RotateInactive(pfn)
	}
	return n
}

// lruOrder lists a page list head to tail.
func lruOrder(store *PageStore, head PFN) []PFN {
	var out []PFN
	for pfn := head; pfn != NilPFN; pfn = store.lruNext[pfn] {
		out = append(out, pfn)
	}
	return out
}

// TestRotateAnonRunMatchesPerPage differentially checks the bulk
// anonymous-run rotation against per-page RotateInactive on randomized
// inactive lists: list order, every page's flags, and the rotation
// count must agree for attempts below, at, and past the list length,
// including whole multiples of it plus a remainder.
func TestRotateAnonRunMatchesPerPage(t *testing.T) {
	const pages = 48
	// build fills both LRUs identically: inactive pages of the given
	// kinds with random referenced bits, plus a few active pages.
	build := func(rng *rand.Rand, kinds []PageKind) [2]*PageLRU {
		perm := rng.Perm(pages)
		accessed := make([]bool, pages)
		for i := range accessed {
			accessed[i] = rng.IntN(2) == 0
		}
		active := rng.IntN(4)
		var out [2]*PageLRU
		for side := range out {
			store := NewPageStore(pages)
			l := NewPageLRU(store)
			for i, k := range kinds {
				pfn := PFN(perm[i])
				store.SetKind(pfn, k)
				l.Insert(pfn)
				if accessed[pfn] {
					store.Set(pfn, FlagAccessed)
				}
			}
			for i := len(kinds); i < len(kinds)+active; i++ {
				pfn := PFN(perm[i])
				store.SetKind(pfn, KindAnon)
				l.Insert(pfn)
				l.MarkAccessed(pfn)
				l.MarkAccessed(pfn)
			}
			out[side] = l
		}
		return out
	}
	check := func(name string, lrus [2]*PageLRU, attempts uint64) {
		t.Helper()
		bulk, ref := lrus[0], lrus[1]
		got := bulk.RotateAnonRun(attempts)
		want := rotateAnonRunRef(ref.store, ref, attempts)
		if got != want {
			t.Fatalf("%s attempts=%d: %d rotations, per-page loop made %d", name, attempts, got, want)
		}
		for _, lst := range []struct {
			name     string
			got, ref PFN
		}{{"inactive", bulk.inactive.head, ref.inactive.head}, {"active", bulk.active.head, ref.active.head}} {
			g, w := lruOrder(bulk.store, lst.got), lruOrder(ref.store, lst.ref)
			if !reflect.DeepEqual(g, w) {
				t.Fatalf("%s attempts=%d: %s order %v, per-page loop %v", name, attempts, lst.name, g, w)
			}
		}
		for pfn := PFN(0); pfn < pages; pfn++ {
			if g, w := bulk.store.Flags(pfn), ref.store.Flags(pfn); g != w {
				t.Fatalf("%s attempts=%d: page %d flags %v, per-page loop %v", name, attempts, pfn, g, w)
			}
		}
		for _, l := range lrus {
			if err := l.CheckInvariants(); err != nil {
				t.Fatalf("%s attempts=%d: %v", name, attempts, err)
			}
		}
	}
	// attemptsFor spans below, at and past the inactive length I.
	attemptsFor := func(rng *rand.Rand, i uint64) []uint64 {
		if i == 0 {
			return []uint64{0, 1, 5}
		}
		k := 2 + uint64(rng.IntN(5))
		r := 1 + uint64(rng.IntN(int(i)))
		return []uint64{0, 1, i / 2, i - 1, i, i + 1, k * i, k*i + r}
	}
	kindsOf := func(n int, cacheFrac float64, rng *rand.Rand) []PageKind {
		ks := make([]PageKind, n)
		for i := range ks {
			ks[i] = KindAnon
			if rng.Float64() < cacheFrac {
				ks[i] = KindPageCache
			}
		}
		return ks
	}
	rng := rand.New(rand.NewPCG(13, 0))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.IntN(pages-4)
		cacheFrac := []float64{0, 0, 0.05, 0.3, 0.8, 1}[trial%6]
		kinds := kindsOf(n, cacheFrac, rng)
		for _, a := range attemptsFor(rng, uint64(n)) {
			check("random", build(rand.New(rand.NewPCG(uint64(trial), a)), kinds), a)
		}
	}
	fixed := []struct {
		name  string
		kinds []PageKind
	}{
		{"empty", nil},
		{"all-cache", []PageKind{KindPageCache, KindPageCache, KindPageCache}},
		// Insert pushes at the head, so the first kind ends at the tail.
		{"cache-at-tail", []PageKind{KindPageCache, KindAnon, KindAnon, KindAnon}},
		{"cache-at-head", []PageKind{KindAnon, KindAnon, KindAnon, KindPageCache}},
		{"single-anon", []PageKind{KindAnon}},
	}
	for _, f := range fixed {
		for _, a := range attemptsFor(rng, uint64(len(f.kinds))) {
			check(f.name, build(rand.New(rand.NewPCG(1, a)), f.kinds), a)
		}
	}

	// A budget far past the list length must not loop: an all-anonymous
	// list ends as after one cycle plus the remainder, with every
	// attempt counted.
	const huge = 1<<40 + 5
	kinds := kindsOf(pages/2, 0, rng)
	lrus := build(rand.New(rand.NewPCG(2, 0)), kinds)
	if got := lrus[0].RotateAnonRun(huge); got != huge {
		t.Fatalf("huge budget: %d rotations, want %d", got, uint64(huge))
	}
	i := uint64(len(kinds))
	rotateAnonRunRef(lrus[1].store, lrus[1], i+huge%i)
	if g, w := lruOrder(lrus[0].store, lrus[0].inactive.head), lruOrder(lrus[1].store, lrus[1].inactive.head); !reflect.DeepEqual(g, w) {
		t.Fatalf("huge budget: inactive order %v, want %v", g, w)
	}
}
