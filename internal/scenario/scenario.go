// Package scenario is the deterministic datacenter scenario engine: it
// drives a core.System through a timed script of events — VM arrival
// and departure, workload surges, and injected faults (throttle shifts,
// balloon refusals, migration stalls) — the dynamic lifecycle the
// paper's datacenter premise (§6) implies but a fixed-VM-set run never
// exercises.
//
// A Scenario is a plain value: build one with the fluent API or load it
// from JSON (two scenarios ship embedded — see Bundled). Running it
// yields per-VM results plus a scenario-level timeline (live VM count,
// FastMem occupancy, migration/balloon deltas, DRF dominant shares)
// sampled on an epoch cadence.
//
// Determinism is a hard contract: a scenario's outcome — every
// VMResult, every timeline sample, every emitted obs event — is a pure
// function of the scenario value and its seed. Events fire on epoch
// boundaries in script order, all randomness derives from Seed, and
// nothing reads wall-clock time, so the same scenario re-runs
// byte-identically regardless of runner worker count.
package scenario

import (
	"fmt"

	"heteroos/internal/memsim"
	"heteroos/internal/policy"
	"heteroos/internal/workload"
)

// Event kinds accepted by Event.Kind.
const (
	// KindBoot boots Event.Boot at the event epoch (VM arrival).
	KindBoot = "boot"
	// KindShutdown departs Event.VM: balloon unwound, P2M cleared,
	// frames returned, share policy rebalanced over the survivors.
	KindShutdown = "shutdown"
	// KindThrottleShift swaps the SlowMem tier spec to Event.Throttle
	// mid-run (the device degrading under the experiment's feet).
	KindThrottleShift = "throttle-shift"
	// KindBalloonRefusal makes the VMM refuse Event.VM's populate
	// requests for Event.Duration epochs (0 = until the run ends).
	KindBalloonRefusal = "balloon-refusal"
	// KindMigrationStall stalls Event.VM's migration engine for
	// Event.Duration epochs; passes skip under bounded retry/backoff.
	KindMigrationStall = "migration-stall"
	// KindSurge multiplies Event.VM's workload demand by Event.Factor
	// (default 2) for Event.Duration epochs — the FastMem pressure
	// spike of a hog VM.
	KindSurge = "surge"
	// KindCheckpoint writes a full-system checkpoint to Event.Path
	// before the event epoch's lockstep step. Checkpoints never perturb
	// the run: the scenario's results are identical with the event
	// removed.
	KindCheckpoint = "checkpoint"
)

// VMDesc describes one guest: its application, management mode, and
// memory shape, all in scaled pages (see workload.Config.Pages).
type VMDesc struct {
	ID   int32  `json:"id"`
	App  string `json:"app"`  // workload.ByName catalog name
	Mode string `json:"mode"` // policy.ByName mode name
	// FastPages / SlowPages bound the VM's per-tier span.
	FastPages uint64 `json:"fast_pages"`
	SlowPages uint64 `json:"slow_pages"`
	// Boot*/Reserved* follow core.VMConfig semantics: zero boot sizes
	// default to half the span; zero reservations default to the boot
	// sizes.
	BootFastPages     uint64 `json:"boot_fast_pages,omitempty"`
	BootSlowPages     uint64 `json:"boot_slow_pages,omitempty"`
	ReservedFastPages uint64 `json:"reserved_fast_pages,omitempty"`
	ReservedSlowPages uint64 `json:"reserved_slow_pages,omitempty"`
}

// Event is one timed script entry. It fires at the start of epoch At
// (before that epoch's lockstep step); events sharing an epoch fire in
// script order.
type Event struct {
	At   int    `json:"at"`
	Kind string `json:"kind"`
	// VM targets shutdown/fault/surge events.
	VM int32 `json:"vm,omitempty"`
	// Boot describes the arriving VM for KindBoot.
	Boot *VMDesc `json:"boot,omitempty"`
	// Throttle is the new SlowMem point for KindThrottleShift.
	Throttle *memsim.Throttle `json:"throttle,omitempty"`
	// Duration is the fault/surge window length in epochs; 0 means the
	// window stays open until the run ends.
	Duration int `json:"duration,omitempty"`
	// Factor is the surge demand multiple (default 2).
	Factor int `json:"factor,omitempty"`
	// Path is the checkpoint destination file for KindCheckpoint.
	Path string `json:"path,omitempty"`
}

// Scenario is a complete scripted run. The zero values of the optional
// knobs resolve to: Share "drf", MaxEpochs 256, SampleEvery 8, and the
// paper's default tier specs (SlowThrottle overrides SlowMem).
type Scenario struct {
	Name string `json:"name"`
	Seed uint64 `json:"seed"`
	// Machine shape in scaled pages per tier.
	FastFrames uint64 `json:"fast_frames"`
	SlowFrames uint64 `json:"slow_frames"`
	// SlowThrottle, when set, is the initial SlowMem throttle point.
	SlowThrottle *memsim.Throttle `json:"slow_throttle,omitempty"`
	// Share names the VMM share policy: "static", "max-min", or "drf".
	Share string `json:"share,omitempty"`
	// Backend names the machine-model backend; empty or "analytic"
	// means analytic, and any other name fails Validate with
	// memsim.ErrUnknownBackend. "replay" cannot be named from JSON — it
	// needs a loaded trace, so it is only reachable through
	// BackendBuilder.
	Backend string `json:"backend,omitempty"`
	// BackendBuilder, when set, overrides Backend with a programmatic
	// builder (e.g. memsim.Trace.Builder for replay, or a recording
	// decorator). Not serialisable; scripted scenarios use Backend.
	BackendBuilder memsim.Builder `json:"-"`
	// MaxEpochs bounds the run.
	MaxEpochs int `json:"max_epochs,omitempty"`
	// ProfileEpochs turns on the epoch phase profiler when an
	// observability handle is attached to the run (no-op otherwise).
	// Not serialised: profiling is a per-invocation choice (the CLI's
	// -profile-epochs flag), not a property of the scripted scenario.
	ProfileEpochs bool `json:"-"`
	// SampleEvery is the timeline sampling cadence in epochs; event
	// epochs are always sampled regardless.
	SampleEvery int `json:"sample_every,omitempty"`
	// VMs are present from epoch 0 (at least one is required; core
	// cannot boot an empty system).
	VMs []VMDesc `json:"vms"`
	// Events is the timed script.
	Events []Event `json:"events,omitempty"`
}

// New starts a scenario with the given name and seed.
func New(name string, seed uint64) *Scenario {
	return &Scenario{Name: name, Seed: seed}
}

// WithMachine sets the machine shape in scaled pages per tier.
func (sc *Scenario) WithMachine(fastFrames, slowFrames uint64) *Scenario {
	sc.FastFrames, sc.SlowFrames = fastFrames, slowFrames
	return sc
}

// WithShare selects the VMM share policy ("static", "max-min", "drf").
func (sc *Scenario) WithShare(share string) *Scenario {
	sc.Share = share
	return sc
}

// WithBackendBuilder sets a programmatic backend builder, overriding
// any Backend name (the replay path: load a trace, pass its Builder).
func (sc *Scenario) WithBackendBuilder(b memsim.Builder) *Scenario {
	sc.BackendBuilder = b
	return sc
}

// WithMaxEpochs bounds the run.
func (sc *Scenario) WithMaxEpochs(n int) *Scenario {
	sc.MaxEpochs = n
	return sc
}

// WithSlowThrottle sets the initial SlowMem throttle point.
func (sc *Scenario) WithSlowThrottle(t memsim.Throttle) *Scenario {
	th := t
	sc.SlowThrottle = &th
	return sc
}

// StartVM adds a VM present from epoch 0.
func (sc *Scenario) StartVM(v VMDesc) *Scenario {
	sc.VMs = append(sc.VMs, v)
	return sc
}

// BootAt schedules a VM arrival.
func (sc *Scenario) BootAt(epoch int, v VMDesc) *Scenario {
	b := v
	sc.Events = append(sc.Events, Event{At: epoch, Kind: KindBoot, Boot: &b})
	return sc
}

// ShutdownAt schedules a VM departure.
func (sc *Scenario) ShutdownAt(epoch int, id int32) *Scenario {
	sc.Events = append(sc.Events, Event{At: epoch, Kind: KindShutdown, VM: id})
	return sc
}

// ThrottleShiftAt schedules a mid-run SlowMem throttle change.
func (sc *Scenario) ThrottleShiftAt(epoch int, t memsim.Throttle) *Scenario {
	th := t
	sc.Events = append(sc.Events, Event{At: epoch, Kind: KindThrottleShift, Throttle: &th})
	return sc
}

// BalloonRefusalAt schedules a balloon back-end refusal window.
func (sc *Scenario) BalloonRefusalAt(epoch int, id int32, duration int) *Scenario {
	sc.Events = append(sc.Events, Event{At: epoch, Kind: KindBalloonRefusal, VM: id, Duration: duration})
	return sc
}

// MigrationStallAt schedules a migration-engine stall window.
func (sc *Scenario) MigrationStallAt(epoch int, id int32, duration int) *Scenario {
	sc.Events = append(sc.Events, Event{At: epoch, Kind: KindMigrationStall, VM: id, Duration: duration})
	return sc
}

// SurgeAt schedules a workload demand surge.
func (sc *Scenario) SurgeAt(epoch int, id int32, duration, factor int) *Scenario {
	sc.Events = append(sc.Events, Event{At: epoch, Kind: KindSurge, VM: id, Duration: duration, Factor: factor})
	return sc
}

// CheckpointAt schedules a checkpoint write to path before epoch's
// lockstep step.
func (sc *Scenario) CheckpointAt(epoch int, path string) *Scenario {
	sc.Events = append(sc.Events, Event{At: epoch, Kind: KindCheckpoint, Path: path})
	return sc
}

func (sc *Scenario) maxEpochs() int {
	if sc.MaxEpochs > 0 {
		return sc.MaxEpochs
	}
	return 256
}

func (sc *Scenario) sampleEvery() int {
	if sc.SampleEvery > 0 {
		return sc.SampleEvery
	}
	return 8
}

func (sc *Scenario) share() string {
	if sc.Share != "" {
		return sc.Share
	}
	return "drf"
}

// validateVM checks one VM description against the machine and the
// catalogs.
func (sc *Scenario) validateVM(v *VMDesc, where string) error {
	if v.ID <= 0 {
		return fmt.Errorf("scenario %q: %s: VM id %d must be positive", sc.Name, where, v.ID)
	}
	if v.FastPages+v.SlowPages == 0 {
		return fmt.Errorf("scenario %q: %s: VM %d has a zero memory span", sc.Name, where, v.ID)
	}
	if _, err := workload.ByName(v.App, workload.Config{Seed: 1}); err != nil {
		return fmt.Errorf("scenario %q: %s: VM %d: %w", sc.Name, where, v.ID, err)
	}
	if _, err := policy.ByName(v.Mode); err != nil {
		return fmt.Errorf("scenario %q: %s: VM %d: %w", sc.Name, where, v.ID, err)
	}
	return nil
}

// Validate rejects malformed scenarios with descriptive errors before
// any machinery boots: unknown apps/modes/share policies, duplicate or
// reused VM ids, events targeting VMs the script never introduces, and
// incomplete events (boot without a VM description, throttle shift
// without a throttle point).
func (sc *Scenario) Validate() error {
	if sc.FastFrames+sc.SlowFrames == 0 {
		return fmt.Errorf("scenario %q: machine has zero memory frames", sc.Name)
	}
	switch sc.share() {
	case "static", "max-min", "drf":
	default:
		return fmt.Errorf("scenario %q: unknown share policy %q", sc.Name, sc.Share)
	}
	if sc.BackendBuilder == nil {
		if _, err := memsim.BuilderByName(sc.Backend); err != nil {
			return fmt.Errorf("scenario %q: %w", sc.Name, err)
		}
	}
	if len(sc.VMs) == 0 {
		return fmt.Errorf("scenario %q: needs at least one epoch-0 VM", sc.Name)
	}
	known := make(map[int32]bool)
	for i := range sc.VMs {
		v := &sc.VMs[i]
		if err := sc.validateVM(v, "vms"); err != nil {
			return err
		}
		if known[v.ID] {
			return fmt.Errorf("scenario %q: duplicate VM id %d", sc.Name, v.ID)
		}
		known[v.ID] = true
	}
	for i := range sc.Events {
		e := &sc.Events[i]
		where := fmt.Sprintf("event %d (%s at epoch %d)", i, e.Kind, e.At)
		if e.At < 0 || e.Duration < 0 || e.Factor < 0 {
			return fmt.Errorf("scenario %q: %s: negative at/duration/factor", sc.Name, where)
		}
		switch e.Kind {
		case KindBoot:
			if e.Boot == nil {
				return fmt.Errorf("scenario %q: %s: missing boot VM description", sc.Name, where)
			}
			if err := sc.validateVM(e.Boot, where); err != nil {
				return err
			}
			if known[e.Boot.ID] {
				return fmt.Errorf("scenario %q: %s: VM id %d already used (ids are never reused)", sc.Name, where, e.Boot.ID)
			}
			known[e.Boot.ID] = true
		case KindShutdown, KindBalloonRefusal, KindMigrationStall, KindSurge:
			if !known[e.VM] {
				return fmt.Errorf("scenario %q: %s: targets unknown VM %d", sc.Name, where, e.VM)
			}
		case KindThrottleShift:
			if e.Throttle == nil {
				return fmt.Errorf("scenario %q: %s: missing throttle point", sc.Name, where)
			}
		case KindCheckpoint:
			if e.Path == "" {
				return fmt.Errorf("scenario %q: %s: missing checkpoint path", sc.Name, where)
			}
		default:
			return fmt.Errorf("scenario %q: %s: unknown event kind %q", sc.Name, where, e.Kind)
		}
	}
	return nil
}
