package workload

import (
	"bytes"
	"errors"
	"reflect"
	"sort"
	"testing"

	"heteroos/internal/guestos"
	"heteroos/internal/memsim"
	"heteroos/internal/sim"
	"heteroos/internal/snapshot"
)

// testSource backs a guest with ample frames of both tiers.
type testSource struct{ m *memsim.Machine }

func newTestSource() *testSource {
	return &testSource{m: memsim.NewMachine(1<<20, 1<<20, memsim.FastTierSpec(), memsim.SlowTierSpec())}
}

func (s *testSource) Populate(t memsim.Tier, want uint64) []memsim.MFN {
	fs, err := s.m.Alloc(t, want, 1)
	if err != nil {
		return nil
	}
	return fs
}

func (s *testSource) PopulateAny(want uint64) []memsim.MFN {
	return s.Populate(memsim.SlowMem, want)
}

func (s *testSource) Release(m []memsim.MFN) { s.m.Free(m, 1) }

func bootOS(t *testing.T) *guestos.OS {
	t.Helper()
	src := newTestSource()
	pl := guestos.PlacementConfig{Name: "test", OnDemand: true}
	pl.FastKinds[guestos.KindAnon] = true
	pl.FastKinds[guestos.KindPageCache] = true
	pl.FastKinds[guestos.KindNetBuf] = true
	pl.FastKinds[guestos.KindSlab] = true
	os, err := guestos.New(guestos.Config{
		CPUs: 2, Aware: true,
		FastMaxPages: 1 << 16, SlowMaxPages: 1 << 17,
		BootFastPages: 1 << 15, BootSlowPages: 1 << 16,
		Placement: pl, Source: src, TierOf: src.m.TierOf, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return os
}

func TestPagesScaling(t *testing.T) {
	c := Config{}
	// 4 GiB at the default scale of 64 = 16384 simulated pages.
	if got := c.Pages(4 * GiB); got != 16384 {
		t.Fatalf("Pages(4GiB) = %d", got)
	}
	if got := c.Pages(1); got != 1 {
		t.Fatal("tiny sizes must round up to one page")
	}
	c2 := Config{Scale: 1}
	if got := c2.Pages(GiB); got != 262144 {
		t.Fatalf("unscaled Pages(1GiB) = %d", got)
	}
}

func TestByNameCoversTable2(t *testing.T) {
	for _, name := range Names() {
		w, err := ByName(name, Config{Seed: 1})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		p := w.Profile()
		if p.Name == "" || p.MPKI <= 0 || p.WSSBytes <= 0 || p.Threads <= 0 ||
			p.InstrPerEpoch == 0 || p.TotalEpochs <= 0 {
			t.Errorf("%s: incomplete profile %+v", name, p)
		}
	}
	for _, micro := range []string{"memlat", "stream"} {
		if _, err := ByName(micro, Config{Seed: 1}); err != nil {
			t.Errorf("%s: %v", micro, err)
		}
	}
	if _, err := ByName("nope", Config{}); err == nil {
		t.Error("unknown app accepted")
	} else if !errors.Is(err, ErrUnknownApp) {
		t.Errorf("error %v does not wrap ErrUnknownApp", err)
	}
}

func TestTable4MPKIValues(t *testing.T) {
	want := map[string]float64{
		"GraphChi": 27.4, "X-Stream": 24.8, "Metis": 14.9,
		"LevelDB": 4.7, "Redis": 11.1, "Nginx": 2.1,
	}
	for name, mpki := range want {
		w, err := ByName(name, Config{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if got := w.Profile().MPKI; got != mpki {
			t.Errorf("%s MPKI = %v, want %v (Table 4)", name, got, mpki)
		}
	}
}

func TestEveryWorkloadRunsToCompletion(t *testing.T) {
	names := append(Names(), "memlat", "stream")
	for _, name := range names {
		name := name
		t.Run(name, func(t *testing.T) {
			os := bootOS(t)
			w, err := ByName(name, Config{Seed: 2})
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Init(os); err != nil {
				t.Fatal(err)
			}
			prof := w.Profile()
			steps := 0
			for {
				instr, done := w.Step(os)
				os.EndEpoch()
				steps++
				if !done && instr == 0 {
					t.Fatal("workload stalled")
				}
				if done {
					break
				}
				if steps > prof.TotalEpochs+5 {
					t.Fatalf("did not finish within %d epochs", prof.TotalEpochs)
				}
			}
			if steps != prof.TotalEpochs {
				t.Errorf("ran %d epochs, profile says %d", steps, prof.TotalEpochs)
			}
			st := os.DrainEpoch()
			_ = st
			if err := os.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestWorkloadsTouchExpectedSubsystems(t *testing.T) {
	// Each app's page census must reflect its Table 2 / Figure 4
	// character.
	run := func(name string, epochs int) (*guestos.OS, [guestos.NumKinds]uint64) {
		os := bootOS(t)
		w, err := ByName(name, Config{Seed: 3})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Init(os); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < epochs; i++ {
			if _, done := w.Step(os); done {
				break
			}
			os.EndEpoch()
		}
		return os, os.PageCensus()
	}

	if _, c := run("GraphChi", 12); c[guestos.KindAnon] == 0 || c[guestos.KindPageCache] == 0 {
		t.Error("GraphChi should populate heap and page cache")
	}
	if os, c := run("Redis", 6); c[guestos.KindNetBuf] == 0 {
		_ = os
		t.Error("Redis should hold skbuff pages")
	}
	if os, _ := run("LevelDB", 6); os.PC.Pages() == 0 {
		t.Error("LevelDB should populate the page cache")
	}
	if os, _ := run("LevelDB", 6); func() bool {
		a, _, _, _ := os.Slabs[guestos.SlabFSMeta].Stats()
		return a == 0
	}() {
		t.Error("LevelDB should churn filesystem metadata slabs")
	}
}

func TestHeapRegionDrift(t *testing.T) {
	os := bootOS(t)
	// A drifting region's touched set must move over time.
	r := mustHeapRegion(t, os, 1000, 100, 1.0)
	r.setDrift(100)
	first := touchedSet(t, os, r)
	for i := 0; i < 5; i++ {
		if err := r.touch(os, 200, 2, 0); err != nil {
			t.Fatal(err)
		}
	}
	later := touchedSet(t, os, r)
	overlap := 0
	for vpn := range later {
		if first[vpn] {
			overlap++
		}
	}
	if overlap > len(later)/2 {
		t.Errorf("hot window did not drift: %d/%d overlap", overlap, len(later))
	}
}

func mustHeapRegion(t *testing.T, os *guestos.OS, pages, hot uint64, frac float64) *heapRegion {
	t.Helper()
	r, err := newHeapRegion(os, newTestRNG(), pages, hot, frac)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// touchedSet runs one touch of r and returns the VPNs it issued.
func touchedSet(t *testing.T, os *guestos.OS, r *heapRegion) map[guestos.VPN]bool {
	t.Helper()
	rec := &touchRecorder{os: os}
	if err := r.touch(rec, 200, 2, 0); err != nil {
		t.Fatal(err)
	}
	out := make(map[guestos.VPN]bool, len(rec.touches))
	for _, tc := range rec.touches {
		out[tc.vpn] = true
	}
	return out
}

// touchRec is one TouchVPN call.
type touchRec struct {
	vpn           guestos.VPN
	loads, stores uint64
}

// touchRecorder logs every touch it forwards to the guest.
type touchRecorder struct {
	os      *guestos.OS
	touches []touchRec
}

func (r *touchRecorder) TouchVPN(vpn guestos.VPN, loads, stores uint64) (guestos.PFN, error) {
	r.touches = append(r.touches, touchRec{vpn, loads, stores})
	return r.os.TouchVPN(vpn, loads, stores)
}

// touchRef is the map-and-sort touch generator the dense counter table
// replaced, kept as the oracle for its issue order and counts.
func touchRef(h *heapRegion, os pageToucher, samples int, accessesPerSample uint64, storeFrac float64) error {
	counts := make(map[guestos.VPN]uint64)
	for i := 0; i < samples; i++ {
		idx, hot := h.sample()
		vpn := h.vma.Start + guestos.VPN(idx)
		if hot {
			counts[vpn] += accessesPerSample
		} else {
			counts[vpn]++
		}
	}
	vpns := make([]guestos.VPN, 0, len(counts))
	for vpn := range counts {
		vpns = append(vpns, vpn)
	}
	sort.Slice(vpns, func(i, j int) bool { return vpns[i] < vpns[j] })
	for _, vpn := range vpns {
		n := counts[vpn]
		stores := uint64(float64(n) * storeFrac)
		if _, err := os.TouchVPN(vpn, n-stores, stores); err != nil {
			return err
		}
	}
	h.hotStart = (h.hotStart + h.drift) % h.pages
	return nil
}

// TestTouchMatchesMapSortOracle pins the dense counter table to the
// map-and-sort generator: the same (VPN, loads, stores) sequence, call
// after call, across seeds, region shapes, hot fractions, drifts and
// store fractions.
func TestTouchMatchesMapSortOracle(t *testing.T) {
	type shape struct {
		pages, hot uint64
		frac       float64
	}
	shapes := []shape{
		{1000, 100, 0.9},
		{777, 50, 0.5},  // not a multiple of the bitmap word
		{64, 64, 1.0},   // the whole region is hot
		{4097, 1, 0.0},  // cold tail only
		{300, 299, 0.8}, // one cold page
	}
	for _, seed := range []uint64{1, 7, 99} {
		// One guest pair per seed, a fresh region pair per case.
		gotOS, wantOS := bootOS(t), bootOS(t)
		for _, sh := range shapes {
			for _, drift := range []uint64{0, 13, 250} {
				for _, storeFrac := range []float64{0, 0.2, 0.9} {
					got := &touchRecorder{os: gotOS}
					want := &touchRecorder{os: wantOS}
					dense := mustSeededRegion(t, got.os, seed, sh.pages, sh.hot, sh.frac)
					ref := mustSeededRegion(t, want.os, seed, sh.pages, sh.hot, sh.frac)
					dense.setDrift(drift)
					ref.setDrift(drift)
					for call := 0; call < 4; call++ {
						samples := 200 + 500*call
						if err := dense.touch(got, samples, 4, storeFrac); err != nil {
							t.Fatal(err)
						}
						if err := touchRef(ref, want, samples, 4, storeFrac); err != nil {
							t.Fatal(err)
						}
					}
					if !reflect.DeepEqual(got.touches, want.touches) {
						t.Fatalf("seed %d %+v drift %d stores %.1f: touch sequence diverged from the oracle (%d vs %d touches)",
							seed, sh, drift, storeFrac, len(got.touches), len(want.touches))
					}
					if dense.hotStart != ref.hotStart {
						t.Fatalf("hot window at %d, oracle at %d", dense.hotStart, ref.hotStart)
					}
					for i, c := range dense.counts {
						if c != 0 {
							t.Fatalf("counter %d left at %d after touch", i, c)
						}
					}
					for i, w := range dense.touched {
						if w != 0 {
							t.Fatalf("touched word %d left at %#x after touch", i, w)
						}
					}
				}
			}
		}
	}
}

// TestTouchRejectsCounterOverflow checks the uint32 counter bound.
func TestTouchRejectsCounterOverflow(t *testing.T) {
	os := bootOS(t)
	r := mustHeapRegion(t, os, 100, 10, 1.0)
	if err := r.touch(os, 2, 1<<31, 0); err == nil {
		t.Fatal("touch accepted a count past the uint32 counters")
	}
}

func mustSeededRegion(t *testing.T, os *guestos.OS, seed, pages, hot uint64, frac float64) *heapRegion {
	t.Helper()
	r, err := newHeapRegion(os, sim.NewRNG(seed), pages, hot, frac)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestSequentialRegionWraps(t *testing.T) {
	os := bootOS(t)
	sr, err := newSequentialRegion(os, 10, guestos.FileID(5))
	if err != nil {
		t.Fatal(err)
	}
	if err := sr.sweep(os, 25, 1); err != nil {
		t.Fatal(err)
	}
	if sr.cursor.Pos() != 5 {
		t.Fatalf("cursor = %d after wrap, want 5", sr.cursor.Pos())
	}
	if err := sr.touchRange(os, 8, 4, 1); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() uint64 {
		os := bootOS(t)
		w, _ := ByName("Redis", Config{Seed: 9})
		if err := w.Init(os); err != nil {
			t.Fatal(err)
		}
		var faults uint64
		for i := 0; i < 8; i++ {
			w.Step(os)
			os.EndEpoch()
			faults += os.DrainEpoch().Faults
		}
		return faults
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %d vs %d", a, b)
	}
}

func newTestRNG() *sim.RNG { return sim.NewRNG(99) }

// TestHeapRestoreChecksGeometry: the touch counters are sized by Init,
// so restore must refuse a heap region snapshot of another size rather
// than index past them, and accept one of the same geometry.
func TestHeapRestoreChecksGeometry(t *testing.T) {
	os := bootOS(t)
	small := mustHeapRegion(t, os, 100, 10, 0.9)
	big := mustHeapRegion(t, os, 200, 10, 0.9)
	decoderOf := func(h *heapRegion) *snapshot.Decoder {
		var buf bytes.Buffer
		w, err := snapshot.NewWriter(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Section("heap", h.snapshot); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := snapshot.Open(&buf)
		if err != nil {
			t.Fatal(err)
		}
		d, err := r.Section("heap")
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	if err := small.restore(decoderOf(big), os); err == nil {
		t.Fatal("a 200-page heap snapshot restored into a 100-page region")
	}
	if err := small.restore(decoderOf(small), os); err != nil {
		t.Fatalf("same-geometry restore: %v", err)
	}
	if err := small.touch(os, 500, 4, 0.5); err != nil {
		t.Fatal(err)
	}
}
