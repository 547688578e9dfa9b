package scenario

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"

	"heteroos/internal/guestos"
)

const reproDir = "testdata/fuzz/repros"

// failNew asserts that a fresh failure writes a shrunken repro before
// failing the test, so every fuzz discovery leaves a replayable file.
func failWithRepro(t *testing.T, seed uint64, sc *Scenario, err error) {
	t.Helper()
	r := Shrink(context.Background(), &Repro{Seed: seed, Scenario: sc, Err: err.Error()})
	path, werr := r.WriteFile(reproDir)
	if werr != nil {
		t.Fatalf("seed %d: %v (writing repro also failed: %v)", seed, err, werr)
	}
	t.Fatalf("seed %d: %v (shrunken repro: %s)", seed, err, path)
}

// TestFuzzSmoke drives a fixed band of seeds through the generator and
// the strict harness: every generated scenario must validate and run
// with invariants intact after every event and epoch. This is the
// `make fuzz-smoke` gate.
func TestFuzzSmoke(t *testing.T) {
	ctx := context.Background()
	for seed := uint64(1); seed <= 20; seed++ {
		sc := Generate(seed)
		if err := sc.Validate(); err != nil {
			t.Fatalf("seed %d: generator produced an invalid scenario: %v", seed, err)
		}
		if err := CheckScenario(ctx, sc, nil); err != nil {
			failWithRepro(t, seed, sc, err)
		}
	}
}

// TestGenerateDeterministic: the generator is a pure function of seed.
func TestGenerateDeterministic(t *testing.T) {
	for _, seed := range []uint64{1, 7, 1<<40 + 3} {
		a, b := Generate(seed), Generate(seed)
		aj, bj := mustJSON(t, a), mustJSON(t, b)
		if aj != bj {
			t.Fatalf("seed %d generated two different scenarios:\n%s\nvs\n%s", seed, aj, bj)
		}
	}
}

func mustJSON(t *testing.T, v interface{}) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// FuzzScenario is the go-test fuzzing entry: any seed the engine finds
// that breaks an invariant is shrunk and written to testdata before
// the failure reports.
func FuzzScenario(f *testing.F) {
	for _, s := range []uint64{1, 7, 23, 42, 1337} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		sc := Generate(seed)
		if err := CheckScenario(context.Background(), sc, nil); err != nil {
			failWithRepro(t, seed, sc, err)
		}
	})
}

// TestHarnessCatchesInjectedDefect: the strict harness must flag a
// deliberately corrupted run, and must flag it as an invariant-class
// failure (not a benign rejection).
func TestHarnessCatchesInjectedDefect(t *testing.T) {
	ctx := context.Background()
	sc := Generate(5)
	defect := &Defect{Kind: DefectStealFrame, At: 6}
	err := CheckScenario(ctx, sc, defect)
	if err == nil {
		t.Fatal("stolen frame escaped the invariant harness")
	}
	if !errors.Is(err, ErrInvariant) {
		t.Fatalf("defect classified as benign: %v", err)
	}
	if CheckScenario(ctx, sc, nil) != nil {
		t.Fatal("the same scenario without the defect should pass")
	}
}

// TestShrinkInjectedDefect: the shrinker must preserve the failure
// while reducing the case — fewer-or-equal events, a horizon pulled in
// to just past the defect epoch, and the defect itself pulled toward
// epoch zero.
func TestShrinkInjectedDefect(t *testing.T) {
	ctx := context.Background()
	sc := Generate(11)
	r := &Repro{Seed: 11, Scenario: sc, Defect: &Defect{Kind: DefectStealFrame, At: 9}}
	if err := CheckScenario(ctx, sc, r.Defect); err == nil {
		t.Fatal("seed 11 + defect did not fail; pick another seed")
	} else {
		r.Err = err.Error()
	}

	min := Shrink(ctx, r)
	if err := CheckScenario(ctx, min.Scenario, min.Defect); err == nil {
		t.Fatal("shrunken repro no longer fails")
	}
	if err := min.Scenario.Validate(); err != nil {
		t.Fatalf("shrunken repro is invalid: %v", err)
	}
	if len(min.Scenario.Events) > len(sc.Events) {
		t.Errorf("shrink grew the script: %d -> %d events", len(sc.Events), len(min.Scenario.Events))
	}
	if got, limit := min.Scenario.maxEpochs(), min.Defect.At+1; got > limit {
		t.Errorf("horizon %d not pulled in to defect epoch + 1 (%d)", got, limit)
	}
	if min.Defect.At != 0 {
		t.Errorf("defect epoch %d not pulled to zero", min.Defect.At)
	}
	if len(min.Scenario.VMs) != 1 {
		t.Errorf("shrunken repro keeps %d epoch-0 VMs, want 1", len(min.Scenario.VMs))
	}
	// The original repro must be untouched.
	if r.Scenario.maxEpochs() != sc.maxEpochs() || r.Defect.At != 9 {
		t.Error("Shrink modified its input")
	}
}

// TestShrinkCleanCaseIsNoop: shrinking something that does not fail
// returns it unchanged rather than looping.
func TestShrinkCleanCaseIsNoop(t *testing.T) {
	sc := Generate(3)
	r := &Repro{Seed: 3, Scenario: sc}
	out := Shrink(context.Background(), r)
	if mustJSON(t, out.Scenario) != mustJSON(t, sc) {
		t.Error("shrinking a passing case changed the scenario")
	}
}

// TestGuestPanicContained replays the fuzzer's first real find: a
// guest too small for its workload exhausts page-table memory. The
// guest kernel panic must surface as an ordinary run error attributed
// to the VM — not a process panic, and not a fuzzing defect (the
// scenario asked for an impossible guest; the stack refusing it
// cleanly is correct behavior).
func TestGuestPanicContained(t *testing.T) {
	sc := New("guest-oom", 42).WithMachine(1024, 8192).WithMaxEpochs(4)
	sc.StartVM(VMDesc{ID: 2, App: "writeheavy", Mode: "HeteroOS-coordinated-NVM", FastPages: 64, SlowPages: 512})
	_, err := sc.Run(context.Background(), nil)
	if err == nil {
		t.Fatal("undersized guest ran clean; expected a contained guest kernel panic")
	}
	var gp *guestos.GuestPanic
	if !errors.As(err, &gp) {
		t.Fatalf("error is not a contained guest panic: %v", err)
	}
	if err := CheckScenario(context.Background(), sc, nil); err != nil {
		t.Fatalf("contained guest panic misclassified as a fuzzing defect: %v", err)
	}
}

// TestCommittedRepro replays the checked-in demo repro: the committed
// minimal case must still reproduce its invariant failure, proving the
// repro format round-trips and the harness detection is stable.
func TestCommittedRepro(t *testing.T) {
	r, err := LoadRepro(reproDir + "/steal-frame-demo.json")
	if err != nil {
		t.Fatal(err)
	}
	ferr := CheckScenario(context.Background(), r.Scenario, r.Defect)
	if ferr == nil {
		t.Fatal("committed repro no longer reproduces")
	}
	if !errors.Is(ferr, ErrInvariant) {
		t.Fatalf("committed repro failed for the wrong reason: %v", ferr)
	}
	// The recorded error names the generated scenario (fuzz-<seed>),
	// not the committed name; everything after the name must match.
	_, got, _ := strings.Cut(ferr.Error(), " epoch ")
	_, want, _ := strings.Cut(r.Err, " epoch ")
	if got != want {
		t.Errorf("committed repro failed differently:\n got  %v\n want %s", ferr, r.Err)
	}
}

// TestRegenDemoRepro rewrites the committed demo repro from scratch
// (generate, inject, shrink, write). Gated behind REGEN_REPRO=1 so it
// only runs when the format or the shrinker changes on purpose.
func TestRegenDemoRepro(t *testing.T) {
	if os.Getenv("REGEN_REPRO") != "1" {
		t.Skip("set REGEN_REPRO=1 to rewrite the committed demo repro")
	}
	ctx := context.Background()
	sc := Generate(11)
	r := &Repro{Seed: 11, Scenario: sc, Defect: &Defect{Kind: DefectStealFrame, At: 9}}
	err := CheckScenario(ctx, sc, r.Defect)
	if err == nil {
		t.Fatal("demo defect does not fail")
	}
	r.Err = err.Error()
	min := Shrink(ctx, r)
	min.Scenario.Name = "steal-frame-demo"
	path, err := min.WriteFile(reproDir)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s", path)
}
