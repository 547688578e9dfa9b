// Scenario fuzzing: a seeded generator of random-but-valid event
// scripts, a strict execution harness that checks the whole stack's
// invariants after every script event and every lockstep epoch, and a
// delta-debugging shrinker that reduces failing cases to minimal,
// replayable reproductions.
//
// The property under test is the engine's robustness contract: no
// valid scenario — any mix of arrivals, departures, surges, and fault
// windows — may ever drive the system into a state where
// core.CheckInvariants fails or the stack panics. Benign runtime
// rejections (a boot the machine cannot admit, an event targeting an
// already-departed VM) terminate a run without falsifying the
// property.
package scenario

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"heteroos/internal/core"
	"heteroos/internal/memsim"
	"heteroos/internal/sim"
)

// ErrInvariant tags CheckScenario failures: an invariant violation or
// a panic, as opposed to a benign runtime rejection.
var ErrInvariant = errors.New("invariant violation")

// DefectStealFrame allocates a FastMem frame under an owner no VM
// answers to, desynchronising the machine's frame accounting from the
// VMM's grant books — the canonical seeded defect the fuzz harness
// must catch and the shrinker must preserve.
const DefectStealFrame = "steal-frame"

// Defect is a scripted state corruption injected mid-run. Defects
// exist to test the fuzzing harness end-to-end: a committed repro with
// a defect proves detection, shrinking, and replay all work against a
// real failure, without leaving a planted bug in the product code.
type Defect struct {
	Kind string `json:"kind"`
	// At is the epoch after whose lockstep step the corruption applies.
	At int `json:"at"`
}

// Repro is a self-contained failing fuzz case: the seed and scenario
// that failed, the optional injected defect, and the failure text.
// Repros serialize to JSON under testdata/fuzz/repros/ and replay with
// CheckScenario.
type Repro struct {
	Seed     uint64    `json:"seed"`
	Scenario *Scenario `json:"scenario"`
	Defect   *Defect   `json:"defect,omitempty"`
	Err      string    `json:"error,omitempty"`
}

// Generator pools. Every value a generated scenario draws is valid by
// construction — Validate-clean scripts only; runtime admission is the
// engine's problem, not the generator's.
var (
	fuzzApps   = []string{"memlat", "stream", "writeheavy"}
	fuzzModes  = []string{"HeteroOS-coordinated", "HeteroOS-coordinated-NVM", "VMM-exclusive", "NUMA-preferred"}
	fuzzShares = []string{"drf", "max-min", "static"}
)

func fuzzVM(rng *sim.RNG, id int32) VMDesc {
	return VMDesc{
		ID:   id,
		App:  fuzzApps[rng.Intn(len(fuzzApps))],
		Mode: fuzzModes[rng.Intn(len(fuzzModes))],
		// Small spans relative to the generated machines, so most boots
		// are admissible and runs exercise epochs rather than rejections.
		FastPages: uint64(64 << rng.Intn(3)),
		SlowPages: uint64(256 << rng.Intn(3)),
	}
}

// Generate builds a random scenario from seed: machine shape, share
// policy, 1–3 epoch-0 VMs, and up to 8 script events drawn from every
// event kind with in-range parameters. The result is a pure function of
// seed and always passes Validate.
func Generate(seed uint64) *Scenario {
	rng := sim.NewRNG(seed ^ 0x5eed5eedf0f5a9)
	sc := New(fmt.Sprintf("fuzz-%d", seed), seed)
	fast := uint64(1024 + 512*rng.Intn(5))
	sc.WithMachine(fast, fast*uint64(4+rng.Intn(5)))
	sc.WithShare(fuzzShares[rng.Intn(len(fuzzShares))])
	sc.WithMaxEpochs(16 + rng.Intn(25))

	next := int32(1)
	boot := map[int32]int{}  // id -> boot epoch
	gone := map[int32]bool{} // ids with a shutdown already scripted
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		sc.StartVM(fuzzVM(rng, next))
		boot[next] = 0
		next++
	}
	// aliveAt picks a VM that booted before `at` and has no scripted
	// shutdown, preferring targets most runs will actually have live.
	aliveAt := func(at int) (int32, bool) {
		var ids []int32
		for id, b := range boot {
			if b < at && !gone[id] {
				ids = append(ids, id)
			}
		}
		if len(ids) == 0 {
			return 0, false
		}
		best := ids[0]
		for _, id := range ids[1:] {
			if id < best {
				best = id
			}
		}
		// Deterministic choice: skip a stable number of candidates.
		skip := rng.Intn(len(ids))
		for i := 0; i < skip; i++ {
			nextBest := int32(-1)
			for _, id := range ids {
				if id > best && (nextBest < 0 || id < nextBest) {
					nextBest = id
				}
			}
			if nextBest < 0 {
				break
			}
			best = nextBest
		}
		return best, true
	}
	for i, n := 0, rng.Intn(9); i < n; i++ {
		at := 1 + rng.Intn(sc.MaxEpochs-1)
		switch rng.Intn(6) {
		case 0:
			sc.BootAt(at, fuzzVM(rng, next))
			boot[next] = at
			next++
		case 1:
			if id, ok := aliveAt(at); ok {
				sc.ShutdownAt(at, id)
				gone[id] = true
			}
		case 2:
			if id, ok := aliveAt(at); ok {
				sc.SurgeAt(at, id, 1+rng.Intn(8), 2+rng.Intn(3))
			}
		case 3:
			if id, ok := aliveAt(at); ok {
				sc.MigrationStallAt(at, id, 1+rng.Intn(8))
			}
		case 4:
			if id, ok := aliveAt(at); ok {
				sc.BalloonRefusalAt(at, id, 1+rng.Intn(8))
			}
		case 5:
			sc.ThrottleShiftAt(at, memsim.SensitivitySweep[rng.Intn(len(memsim.SensitivitySweep))])
		}
	}
	return sc
}

// applyDefect performs the scripted corruption against the live system.
func applyDefect(sys *core.System, d *Defect) error {
	switch d.Kind {
	case DefectStealFrame:
		_, err := sys.Machine.Alloc(memsim.FastMem, 1, memsim.Owner(9999))
		return err
	default:
		return fmt.Errorf("unknown defect kind %q", d.Kind)
	}
}

// CheckScenario executes sc under the fuzzing property: the full-stack
// invariants are verified after every script event and every lockstep
// epoch, and panics anywhere in the stack are converted to failures.
// A nil return means the property held; ErrInvariant-wrapped errors
// mean it did not. Benign runtime rejections — a boot the machine
// cannot admit, an event against a departed VM — return nil: the
// generator ranges over scripts the engine may legitimately refuse.
// When defect is non-nil, the corruption applies after the lockstep
// step of epoch defect.At, so the harness itself can be tested against
// a failure that is known to exist.
func CheckScenario(ctx context.Context, sc *Scenario, defect *Defect) (failure error) {
	defer func() {
		if r := recover(); r != nil {
			failure = fmt.Errorf("%w: panic: %v", ErrInvariant, r)
		}
	}()
	st, actions, err := sc.newRun(nil, CheckpointOptions{})
	if err != nil {
		return nil
	}
	injected := false
	st.probe = func(sys *core.System, stage string, epoch int) error {
		if defect != nil && !injected && stage == "epoch" && epoch >= defect.At {
			injected = true
			if err := applyDefect(sys, defect); err != nil {
				return fmt.Errorf("%w: injecting %s: %v", ErrInvariant, defect.Kind, err)
			}
		}
		if err := sys.CheckInvariants(); err != nil {
			return fmt.Errorf("%w after %s: %v", ErrInvariant, stage, err)
		}
		return nil
	}
	if _, err := st.loop(ctx, 0, actions, false); err != nil && errors.Is(err, ErrInvariant) {
		return err
	}
	return nil
}

// cloneRepro deep-copies a repro through its JSON form (repros are
// fully serialisable by construction).
func cloneRepro(r *Repro) *Repro {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err)
	}
	var out Repro
	if err := json.Unmarshal(b, &out); err != nil {
		panic(err)
	}
	return &out
}

// stillFails reports whether the candidate reproduces an invariant
// failure; invalid candidates (shrinking can orphan event targets)
// never count. The failure text is refreshed on success.
func stillFails(ctx context.Context, cand *Repro) bool {
	if cand.Scenario.Validate() != nil {
		return false
	}
	err := CheckScenario(ctx, cand.Scenario, cand.Defect)
	if err == nil {
		return false
	}
	cand.Err = err.Error()
	return true
}

// Shrink delta-debugs a failing repro to a local minimum: it drops
// script events, shortens the horizon, pulls event epochs and windows
// toward zero, drops epoch-0 VMs, and halves VM memory spans, keeping
// each reduction only if the failure still reproduces. The input is
// not modified; the returned repro carries the (possibly reworded)
// failure text of the minimal case.
func Shrink(ctx context.Context, r *Repro) *Repro {
	cur := cloneRepro(r)
	if !stillFails(ctx, cur) {
		// Not a reproducible failure; nothing to shrink.
		return cur
	}
	adopt := func(cand *Repro) bool {
		if stillFails(ctx, cand) {
			cur = cand
			return true
		}
		return false
	}
	for changed := true; changed; {
		changed = false
		// Drop events one at a time.
		for i := 0; i < len(cur.Scenario.Events); i++ {
			cand := cloneRepro(cur)
			cand.Scenario.Events = append(cand.Scenario.Events[:i:i], cand.Scenario.Events[i+1:]...)
			if adopt(cand) {
				changed = true
				i--
			}
		}
		// Shorten the horizon: halve, then step down.
		for cur.Scenario.maxEpochs() > 1 {
			cand := cloneRepro(cur)
			cand.Scenario.MaxEpochs = cur.Scenario.maxEpochs() / 2
			if !adopt(cand) {
				break
			}
			changed = true
		}
		for cur.Scenario.maxEpochs() > 1 {
			cand := cloneRepro(cur)
			cand.Scenario.MaxEpochs = cur.Scenario.maxEpochs() - 1
			if !adopt(cand) {
				break
			}
			changed = true
		}
		// Pull the defect epoch toward zero.
		for cur.Defect != nil && cur.Defect.At > 0 {
			cand := cloneRepro(cur)
			cand.Defect.At = cur.Defect.At / 2
			if !adopt(cand) {
				break
			}
			changed = true
		}
		// Pull event epochs and windows toward their minima.
		for i := range cur.Scenario.Events {
			for {
				e := cur.Scenario.Events[i]
				cand := cloneRepro(cur)
				ce := &cand.Scenario.Events[i]
				switch {
				case e.At > 0:
					ce.At = e.At / 2
				case e.Duration > 1:
					ce.Duration = e.Duration / 2
				default:
					e.At = -1 // sentinel: nothing left to shrink
				}
				if e.At < 0 || !adopt(cand) {
					break
				}
				changed = true
			}
		}
		// Drop epoch-0 VMs (the engine needs at least one).
		for i := 0; len(cur.Scenario.VMs) > 1 && i < len(cur.Scenario.VMs); i++ {
			cand := cloneRepro(cur)
			cand.Scenario.VMs = append(cand.Scenario.VMs[:i:i], cand.Scenario.VMs[i+1:]...)
			if adopt(cand) {
				changed = true
				i--
			}
		}
		// Halve VM memory spans.
		for i := range cur.Scenario.VMs {
			for cur.Scenario.VMs[i].FastPages+cur.Scenario.VMs[i].SlowPages > 64 {
				cand := cloneRepro(cur)
				cand.Scenario.VMs[i].FastPages /= 2
				cand.Scenario.VMs[i].SlowPages /= 2
				if !adopt(cand) {
					break
				}
				changed = true
			}
		}
	}
	return cur
}

// WriteFile saves the repro as indented JSON under dir, named after
// the scenario, and returns the path.
func (r *Repro) WriteFile(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	path := filepath.Join(dir, r.Scenario.Name+".json")
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// LoadRepro reads a repro file written by WriteFile.
func LoadRepro(path string) (*Repro, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Repro
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("repro %s: %w", path, err)
	}
	if r.Scenario == nil {
		return nil, fmt.Errorf("repro %s: no scenario", path)
	}
	return &r, nil
}
