package scenario

import (
	"context"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"testing"

	"heteroos/internal/memsim"
)

// contended builds a 3-VM scenario whose FastMem demand exceeds the
// machine (3 x 1024 span over 2048 frames) — the shape where DRF
// arbitration and mid-run departures actually move shares around.
func contended(name string, seed uint64) *Scenario {
	sc := New(name, seed).WithMachine(2048, 16384).WithShare("drf").WithMaxEpochs(40)
	for id := int32(1); id <= 3; id++ {
		sc.StartVM(VMDesc{
			ID: id, App: "memlat", Mode: "HeteroOS-coordinated",
			FastPages: 1024, SlowPages: 4096,
			BootFastPages: 256, BootSlowPages: 2048,
		})
	}
	return sc
}

func TestValidateRejections(t *testing.T) {
	base := func() *Scenario {
		sc := New("v", 1).WithMachine(4096, 4096)
		sc.StartVM(VMDesc{ID: 1, App: "memlat", Mode: "HeteroOS-coordinated", FastPages: 512, SlowPages: 512})
		return sc
	}
	cases := []struct {
		name  string
		build func() *Scenario
	}{
		{"zero machine", func() *Scenario {
			sc := base()
			sc.FastFrames, sc.SlowFrames = 0, 0
			return sc
		}},
		{"unknown share", func() *Scenario { return base().WithShare("fifo") }},
		{"no epoch-0 VMs", func() *Scenario {
			sc := base()
			sc.VMs = nil
			return sc
		}},
		{"unknown app", func() *Scenario {
			sc := base()
			sc.VMs[0].App = "fortran"
			return sc
		}},
		{"unknown mode", func() *Scenario {
			sc := base()
			sc.VMs[0].Mode = "psychic"
			return sc
		}},
		{"duplicate id", func() *Scenario {
			sc := base()
			return sc.StartVM(sc.VMs[0])
		}},
		{"reused id after shutdown", func() *Scenario {
			sc := base().ShutdownAt(4, 1)
			return sc.BootAt(8, sc.VMs[0])
		}},
		{"event targets unknown VM", func() *Scenario { return base().ShutdownAt(4, 9) }},
		{"boot without description", func() *Scenario {
			sc := base()
			sc.Events = append(sc.Events, Event{At: 2, Kind: KindBoot})
			return sc
		}},
		{"throttle shift without point", func() *Scenario {
			sc := base()
			sc.Events = append(sc.Events, Event{At: 2, Kind: KindThrottleShift})
			return sc
		}},
		{"unknown kind", func() *Scenario {
			sc := base()
			sc.Events = append(sc.Events, Event{At: 2, Kind: "meteor"})
			return sc
		}},
		{"negative epoch", func() *Scenario {
			sc := base()
			sc.Events = append(sc.Events, Event{At: -1, Kind: KindShutdown, VM: 1})
			return sc
		}},
		{"negative duration", func() *Scenario {
			sc := base()
			sc.Events = append(sc.Events, Event{At: 2, Kind: KindSurge, VM: 1, Duration: -3})
			return sc
		}},
		{"negative factor", func() *Scenario {
			sc := base()
			sc.Events = append(sc.Events, Event{At: 2, Kind: KindSurge, VM: 1, Factor: -2})
			return sc
		}},
		{"zero memory span", func() *Scenario {
			sc := base()
			sc.VMs[0].FastPages, sc.VMs[0].SlowPages = 0, 0
			return sc
		}},
		{"non-positive VM id", func() *Scenario {
			sc := base()
			sc.VMs[0].ID = 0
			return sc
		}},
		{"unknown backend", func() *Scenario {
			sc := base()
			sc.Backend = "quantum"
			return sc
		}},
		{"coarse backend", func() *Scenario {
			sc := base()
			sc.Backend = "coarse"
			return sc
		}},
		{"checkpoint without path", func() *Scenario {
			sc := base()
			sc.Events = append(sc.Events, Event{At: 2, Kind: KindCheckpoint})
			return sc
		}},
		{"surge before any boot of target", func() *Scenario {
			// VM 7 is only ever introduced by a boot event; a fault
			// event may still target it (it fires later), but a target
			// the script never introduces at all must be rejected.
			return base().SurgeAt(2, 7, 4, 2)
		}},
	}
	for _, tc := range cases {
		if err := tc.build().Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}

	// A JSON script naming a backend memsim does not build fails with
	// the typed error instead of silently changing pricing.
	for _, name := range []string{"quantum", "coarse"} {
		sc := base()
		sc.Backend = name
		js, err := json.Marshal(sc)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Parse(js); !errors.Is(err, memsim.ErrUnknownBackend) {
			t.Errorf("Parse with backend %q = %v, want ErrUnknownBackend", name, err)
		}
	}
}

func TestBundledScenariosLoad(t *testing.T) {
	names := Bundled()
	if len(names) < 2 {
		t.Fatalf("bundled scenarios = %v, want churn.json and degrade.json", names)
	}
	for _, name := range names {
		if _, err := LoadBundled(name); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := LoadBundled("nonexistent.json"); err == nil {
		t.Error("loading a nonexistent bundled scenario succeeded")
	}
	// A path that does not exist on disk falls back to the bundled set.
	if _, err := LoadFile("/no/such/dir/churn.json"); err != nil {
		t.Errorf("bundled fallback failed: %v", err)
	}
}

// TestLoadFile pins the fallback contract: only a path that does not
// exist may fall back to the bundled scenario of the same base name;
// every other failure — unparseable JSON, unreadable path — must
// surface as a real error even when a bundled name matches.
func TestLoadFile(t *testing.T) {
	dir := t.TempDir()

	// Present but invalid JSON: a parse error, never the bundled copy.
	bad := filepath.Join(dir, "churn.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(bad); err == nil {
		t.Error("invalid JSON masked by the bundled fallback")
	}

	// Missing file with a non-bundled base name: plain not-exist error.
	if _, err := LoadFile(filepath.Join(dir, "absent.json")); err == nil {
		t.Error("loading a missing, non-bundled scenario succeeded")
	} else if !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("missing file error lost its not-exist cause: %v", err)
	}

	// Missing file whose base name is bundled: the fallback.
	sc, err := LoadFile(filepath.Join(dir, "nope", "churn.json"))
	if err != nil {
		t.Fatalf("bundled fallback failed: %v", err)
	}
	if sc.Name == "" {
		t.Error("bundled fallback returned an unnamed scenario")
	}

	// A directory named like a bundled scenario: reading it fails with
	// something other than not-exist, so no fallback — the caller gets
	// the real error.
	dirPath := filepath.Join(dir, "degrade.json")
	if err := os.Mkdir(dirPath, 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadFile(dirPath); err == nil {
		t.Error("directory path masked by the bundled fallback")
	} else if errors.Is(err, fs.ErrNotExist) {
		t.Errorf("directory read reported not-exist: %v", err)
	}
}

// TestChurnScenario runs the bundled churn scenario end to end: four
// VMs arrive and depart on schedule, the surge perturbs its target, and
// no invariant violation occurs at any departure.
func TestChurnScenario(t *testing.T) {
	sc, err := LoadBundled("churn.json")
	if err != nil {
		t.Fatal(err)
	}
	r, err := sc.Run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.VMs) != 4 {
		t.Fatalf("VM count = %d, want 4", len(r.VMs))
	}
	wantBoot := map[int32]int{1: 0, 2: 0, 3: 8, 4: 16}
	wantDown := map[int32]int{1: 14, 2: 26, 3: 32, 4: 56}
	for _, v := range r.VMs {
		if v.BootEpoch != wantBoot[int32(v.ID)] {
			t.Errorf("VM %d boot epoch = %d, want %d", v.ID, v.BootEpoch, wantBoot[int32(v.ID)])
		}
		if v.ShutdownEpoch != wantDown[int32(v.ID)] {
			t.Errorf("VM %d shutdown epoch = %d, want %d", v.ID, v.ShutdownEpoch, wantDown[int32(v.ID)])
		}
	}
	// VM 1 is shut down mid-workload; VMs 2 and 3 run to completion.
	if r.VMs[0].Completed {
		t.Error("VM 1 completed despite mid-workload shutdown")
	}
	if !r.VMs[1].Completed || !r.VMs[2].Completed {
		t.Error("VM 2/3 did not complete")
	}
	// The tables must render every VM and sample.
	if got := r.Table().Rows(); got != 4 {
		t.Errorf("table rows = %d, want 4", got)
	}
	if got := r.TimelineTable().Rows(); got != len(r.Timeline) {
		t.Errorf("timeline rows = %d, want %d", got, len(r.Timeline))
	}
}

// TestDRFReconvergence is the share-policy regression for dynamic
// membership: under FastMem contention three VMs hold unequal dominant
// shares; when one departs mid-run the survivors must absorb the freed
// frames and re-converge to equal shares within a few epochs.
func TestDRFReconvergence(t *testing.T) {
	const departAt = 3
	const K = 4 // re-convergence budget in epochs
	sc := contended("reconverge", 3).ShutdownAt(departAt, 3)
	sc.SampleEvery = 1
	r, err := sc.Run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	byEpoch := make(map[int]*Sample)
	for i := range r.Timeline {
		byEpoch[r.Timeline[i].Epoch] = &r.Timeline[i]
	}
	pre := byEpoch[departAt-1]
	if pre == nil || len(pre.Shares) != 3 {
		t.Fatalf("pre-departure sample missing or malformed: %+v", pre)
	}
	var preMax float64
	for _, sh := range pre.Shares {
		if sh.Share <= 0 || sh.Share > 1 {
			t.Fatalf("pre-departure share out of range: %+v", sh)
		}
		if sh.Share > preMax {
			preMax = sh.Share
		}
	}
	// Within K epochs of the departure the survivors' shares must be
	// equal, and no survivor may have lost ground.
	s := byEpoch[departAt+K]
	if s == nil || len(s.Shares) != 2 {
		t.Fatalf("post-departure sample missing or malformed: %+v", s)
	}
	if gap := s.Shares[0].Share - s.Shares[1].Share; gap > 1e-9 || gap < -1e-9 {
		t.Errorf("shares did not re-converge within %d epochs: %+v", K, s.Shares)
	}
	for _, sh := range s.Shares {
		if sh.Share < preMax {
			t.Errorf("survivor VM %d share %.4f below pre-departure max %.4f", sh.ID, sh.Share, preMax)
		}
	}
	// The freed frames must be redeployed, not stranded.
	if s.FastFree != 0 {
		t.Errorf("FastMem free = %d after re-convergence, want 0 (frames redeployed)", s.FastFree)
	}
}

// TestSurgePerturbsTimeline checks that a surge window visibly changes
// the target VM's outcome versus the same scenario without the surge.
func TestSurgePerturbsTimeline(t *testing.T) {
	run := func(surge bool) *Result {
		sc := New("surge", 9).WithMachine(8192, 16384).WithShare("drf").WithMaxEpochs(64)
		sc.StartVM(VMDesc{ID: 1, App: "stream", Mode: "HeteroOS-coordinated", FastPages: 2048, SlowPages: 4096})
		sc.StartVM(VMDesc{ID: 2, App: "stream", Mode: "HeteroOS-coordinated", FastPages: 2048, SlowPages: 4096})
		if surge {
			sc.SurgeAt(2, 2, 6, 3)
		}
		r, err := sc.Run(context.Background(), nil)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	with, without := run(true), run(false)
	// The surged VM burns through its workload in fewer epochs.
	if with.VMs[1].Res.Epochs >= without.VMs[1].Res.Epochs {
		t.Errorf("surge did not shorten VM 2: %d vs %d epochs",
			with.VMs[1].Res.Epochs, without.VMs[1].Res.Epochs)
	}
	if !with.VMs[1].Completed {
		t.Error("surged VM did not complete")
	}
	// The unsurged control VM is untouched in both runs.
	if with.VMs[0].Res.Instr != without.VMs[0].Res.Instr {
		t.Errorf("control VM perturbed: %d vs %d instructions",
			with.VMs[0].Res.Instr, without.VMs[0].Res.Instr)
	}
}

// TestThrottleShiftPerturbs checks that a mid-run SlowMem throttle
// worsening slows the run down versus the unshifted control.
func TestThrottleShiftPerturbs(t *testing.T) {
	run := func(shift bool) *Result {
		sc := New("shift", 5).WithMachine(2048, 16384).WithShare("drf").WithMaxEpochs(40).
			WithSlowThrottle(memsim.Throttle{L: 2, B: 2})
		sc.StartVM(VMDesc{
			ID: 1, App: "memlat", Mode: "HeteroOS-coordinated",
			FastPages: 1024, SlowPages: 4096,
			BootFastPages: 256, BootSlowPages: 2048,
		})
		if shift {
			sc.ThrottleShiftAt(4, memsim.Throttle{L: 5, B: 9})
		}
		r, err := sc.Run(context.Background(), nil)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	with, without := run(true), run(false)
	if with.VMs[0].Res.SimTime <= without.VMs[0].Res.SimTime {
		t.Errorf("throttle worsening did not slow the run: %v vs %v",
			with.VMs[0].Res.SimTime, without.VMs[0].Res.SimTime)
	}
}
