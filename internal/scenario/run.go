package scenario

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"heteroos/internal/core"
	"heteroos/internal/memsim"
	"heteroos/internal/metrics"
	"heteroos/internal/obs"
	"heteroos/internal/policy"
	"heteroos/internal/runner"
	"heteroos/internal/sim"
	"heteroos/internal/vmm"
	"heteroos/internal/workload"
)

// action is one expanded script step: events with a Duration unfold
// into a start action at At and a clear action at At+Duration.
type action struct {
	at    int
	ev    *Event
	clear bool
}

// VMShare is one VM's dominant share in a timeline sample.
type VMShare struct {
	ID    vmm.VMID `json:"id"`
	Share float64  `json:"share"`
}

// Sample is one timeline point, taken after the epoch's lockstep step.
// Moves/BalloonIn/BalloonRefused are deltas since the previous sample,
// summed over all VMs (departed included), so fault windows and
// lifecycle events visibly perturb the series.
type Sample struct {
	Epoch          int          `json:"epoch"`
	SimTime        sim.Duration `json:"sim_time"`
	LiveVMs        int          `json:"live_vms"`
	FastFree       uint64       `json:"fast_free"`
	Moves          uint64       `json:"moves"`
	BalloonIn      uint64       `json:"balloon_in"`
	BalloonRefused uint64       `json:"balloon_refused"`
	// Shares holds live VMs' DRF dominant shares in boot order (empty
	// under non-DRF policies).
	Shares []VMShare `json:"shares,omitempty"`
}

// VMRun is one VM's scenario outcome.
type VMRun struct {
	ID   vmm.VMID `json:"id"`
	App  string   `json:"app"`
	Mode string   `json:"mode"`
	// BootEpoch is when the VM joined (0 for epoch-0 VMs).
	BootEpoch int `json:"boot_epoch"`
	// ShutdownEpoch is when the VM departed, or -1 if it stayed to the
	// end of the run.
	ShutdownEpoch int `json:"shutdown_epoch"`
	// Completed reports whether the workload ran to completion (a VM
	// can be shut down mid-workload, or idle completed until departure).
	Completed bool          `json:"completed"`
	Res       core.VMResult `json:"result"`
}

// Result is a completed scenario run.
type Result struct {
	Name string `json:"name"`
	Seed uint64 `json:"seed"`
	// Epochs is the number of lockstep epochs the scenario ran.
	Epochs int `json:"epochs"`
	// VMs holds every VM that ever ran, in boot order.
	VMs      []VMRun  `json:"vms"`
	Timeline []Sample `json:"timeline"`
	// Sys is the final system (live + departed instances); tests use it
	// for invariant and share inspection.
	Sys *core.System `json:"-"`
}

// runState carries the per-run bookkeeping of one Run or Resume call.
type runState struct {
	sc    *Scenario
	sys   *core.System
	wraps map[vmm.VMID]*workload.Surge
	runs  []*VMRun

	timeline   []Sample
	prevMove   uint64
	prevBallIn uint64
	prevRefuse uint64
	// lastSampled is the last epoch a timeline sample was taken at (-1
	// before the first).
	lastSampled int
	// consumed counts expanded script actions applied so far, so a
	// checkpoint records exactly where a resumed run must re-enter the
	// script.
	consumed int
	// ck configures periodic checkpointing (zero value: none).
	ck CheckpointOptions
	// probe, when set, runs after every applied script action (stage
	// "event") and after every lockstep step (stage "epoch"); a non-nil
	// return aborts the run with that error. The fuzzing harness uses it
	// to check invariants continuously and to inject scripted defects.
	probe func(sys *core.System, stage string, epoch int) error
}

// CheckpointOptions configures periodic checkpointing of a scenario
// run, independent of any checkpoint events in the script itself.
type CheckpointOptions struct {
	// Every writes a checkpoint after each N-th lockstep epoch (0
	// disables periodic checkpoints).
	Every int
	// Path is the periodic checkpoint destination; each write replaces
	// the previous one, so the file always holds the latest checkpoint.
	Path string
}

// vmConfig materialises a VMDesc: mode and workload resolved from the
// catalogs, the workload seeded from the scenario seed and VM id
// (stable regardless of boot epoch), and wrapped for surge control.
func (st *runState) vmConfig(v *VMDesc) (core.VMConfig, error) {
	mode, err := policy.ByName(v.Mode)
	if err != nil {
		return core.VMConfig{}, err
	}
	w, err := workload.ByName(v.App, workload.Config{Seed: runner.DeriveSeed(st.sc.Seed, int(v.ID))})
	if err != nil {
		return core.VMConfig{}, err
	}
	sw := workload.NewSurge(w)
	st.wraps[vmm.VMID(v.ID)] = sw
	return core.VMConfig{
		ID: vmm.VMID(v.ID), Mode: mode, Workload: sw,
		FastPages: v.FastPages, SlowPages: v.SlowPages,
		BootFastPages: v.BootFastPages, BootSlowPages: v.BootSlowPages,
		ReservedFastPages: v.ReservedFastPages, ReservedSlowPages: v.ReservedSlowPages,
	}, nil
}

// expandActions unfolds the script into epoch-ordered actions: windowed
// events contribute a start and (for Duration > 0) a clear. The sort is
// stable, so actions sharing an epoch keep script order — part of the
// determinism contract.
func expandActions(events []Event) []action {
	var out []action
	for i := range events {
		e := &events[i]
		out = append(out, action{at: e.At, ev: e})
		switch e.Kind {
		case KindBalloonRefusal, KindMigrationStall, KindSurge:
			if e.Duration > 0 {
				out = append(out, action{at: e.At + e.Duration, ev: e, clear: true})
			}
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].at < out[j].at })
	return out
}

// apply executes one action against the system at epoch.
func (st *runState) apply(a action, epoch int) error {
	e := a.ev
	switch e.Kind {
	case KindBoot:
		vc, err := st.vmConfig(e.Boot)
		if err != nil {
			return err
		}
		if _, err := st.sys.BootVM(vc); err != nil {
			return err
		}
		st.runs = append(st.runs, &VMRun{
			ID: vmm.VMID(e.Boot.ID), App: e.Boot.App, Mode: e.Boot.Mode,
			BootEpoch: epoch, ShutdownEpoch: -1,
		})
	case KindShutdown:
		if _, err := st.sys.ShutdownVM(vmm.VMID(e.VM)); err != nil {
			return err
		}
		// Every departure must leave the machine clean: no leaked
		// frames, empty P2M, share books consistent.
		if err := st.sys.CheckInvariants(); err != nil {
			return fmt.Errorf("after shutdown of VM %d: %w", e.VM, err)
		}
		if r := st.runByID(vmm.VMID(e.VM)); r != nil {
			r.ShutdownEpoch = epoch
			// Resolve Completed now: a resumed run rebuilds only live
			// VMs' workload wraps, so a departed VM's completion must
			// already be on record.
			if sw, ok := st.wraps[vmm.VMID(e.VM)]; ok {
				r.Completed = sw.Done()
			}
		}
	case KindThrottleShift:
		st.sys.SetTierSpec(memsim.SlowMem, e.Throttle.Spec())
	case KindBalloonRefusal:
		return st.sys.SetBalloonRefusal(vmm.VMID(e.VM), !a.clear)
	case KindMigrationStall:
		return st.sys.SetMigrationStall(vmm.VMID(e.VM), !a.clear)
	case KindSurge:
		sw, ok := st.wraps[vmm.VMID(e.VM)]
		if !ok {
			return fmt.Errorf("surge targets VM %d before it booted", e.VM)
		}
		factor := e.Factor
		if factor == 0 {
			factor = 2
		}
		sw.Active, sw.Factor = !a.clear, factor
		st.sys.EmitFault(vmm.VMID(e.VM), obs.FaultSurge, !a.clear)
	}
	return nil
}

func (st *runState) runByID(id vmm.VMID) *VMRun {
	for _, r := range st.runs {
		if r.ID == id {
			return r
		}
	}
	return nil
}

// sample appends one timeline point.
func (st *runState) sample(epoch int) {
	var move, ballIn, refuse uint64
	for _, runs := range [][]*core.VMInstance{st.sys.VMs, st.sys.Departed} {
		for _, inst := range runs {
			move += inst.Res.Promotions + inst.Res.Demotions + inst.Res.VMMMigrations
			ballIn += inst.Res.BalloonPagesIn
			refuse += inst.Res.BalloonRefusedPages
		}
	}
	s := Sample{
		Epoch:          epoch,
		SimTime:        st.sys.Now(),
		LiveVMs:        len(st.sys.VMs),
		FastFree:       st.sys.Machine.FreeFrames(memsim.FastMem),
		Moves:          move - st.prevMove,
		BalloonIn:      ballIn - st.prevBallIn,
		BalloonRefused: refuse - st.prevRefuse,
	}
	st.prevMove, st.prevBallIn, st.prevRefuse = move, ballIn, refuse
	if st.sc.share() == "drf" {
		for _, inst := range st.sys.VMs {
			s.Shares = append(s.Shares, VMShare{ID: inst.ID, Share: st.sys.DRFDominantShare(inst.ID)})
		}
	}
	st.timeline = append(st.timeline, s)
}

// baseConfig translates the scenario-level knobs into a core.Config
// with no VMs attached yet.
func (sc *Scenario) baseConfig(h *obs.Obs) (core.Config, error) {
	cfg := core.Config{
		FastFrames: sc.FastFrames,
		SlowFrames: sc.SlowFrames,
		Share:      core.ShareKind(sc.share()),
		MaxEpochs:  sc.maxEpochs(),
		Obs:        h,
		Seed:       sc.Seed,
	}
	if sc.ProfileEpochs && h != nil {
		cfg.ProfileEpochs = true
	}
	if sc.SlowThrottle != nil {
		cfg.SlowSpec = sc.SlowThrottle.Spec()
	}
	if sc.BackendBuilder != nil {
		cfg.Backend = sc.BackendBuilder
	} else if sc.Backend != "" {
		// Validate already vetted the name; resolve it here so the
		// system prices epochs through the selected model.
		build, err := memsim.BuilderByName(sc.Backend)
		if err != nil {
			return core.Config{}, fmt.Errorf("scenario %q: %w", sc.Name, err)
		}
		cfg.Backend = build
	}
	return cfg, nil
}

// Run executes the scenario. h, when non-nil, attaches observability:
// lifecycle and fault events, every layer's chokepoint events, and the
// metrics registry all report into it (the caller owns and closes it).
// The returned result holds per-VM outcomes in boot order, the sampled
// timeline, and the final system.
//
// Determinism: the result — and, with h attached, the emitted event
// stream — is a pure function of (*sc, sc.Seed).
func (sc *Scenario) Run(ctx context.Context, h *obs.Obs) (*Result, error) {
	return sc.RunWithCheckpoints(ctx, h, CheckpointOptions{})
}

// RunWithCheckpoints is Run plus periodic checkpointing: after every
// ck.Every-th epoch the full system state is written to ck.Path.
// Checkpoint writes never perturb the run — results are identical to a
// plain Run (the `make snapshot-parity` gate enforces this).
func (sc *Scenario) RunWithCheckpoints(ctx context.Context, h *obs.Obs, ck CheckpointOptions) (*Result, error) {
	st, actions, err := sc.newRun(h, ck)
	if err != nil {
		return nil, err
	}
	return st.loop(ctx, 0, actions, false)
}

// newRun validates the scenario, boots the epoch-0 system, and returns
// the run state plus the expanded script, ready for loop. Split from
// RunWithCheckpoints so the fuzzing harness can attach its probe before
// the epochs start.
func (sc *Scenario) newRun(h *obs.Obs, ck CheckpointOptions) (*runState, []action, error) {
	if err := sc.Validate(); err != nil {
		return nil, nil, err
	}
	if ck.Every > 0 && ck.Path == "" {
		return nil, nil, fmt.Errorf("scenario %q: periodic checkpoints need a path", sc.Name)
	}
	st := &runState{sc: sc, wraps: make(map[vmm.VMID]*workload.Surge), lastSampled: -1, ck: ck}
	cfg, err := sc.baseConfig(h)
	if err != nil {
		return nil, nil, err
	}
	for i := range sc.VMs {
		v := &sc.VMs[i]
		vc, err := st.vmConfig(v)
		if err != nil {
			return nil, nil, err
		}
		cfg.VMs = append(cfg.VMs, vc)
		st.runs = append(st.runs, &VMRun{
			ID: vmm.VMID(v.ID), App: v.App, Mode: v.Mode, ShutdownEpoch: -1,
		})
	}
	sys, err := core.NewSystem(cfg)
	if err != nil {
		return nil, nil, err
	}
	st.sys = sys
	return st, expandActions(sc.Events), nil
}

// loop drives the lockstep epochs from startEpoch with the not-yet-
// applied actions, then assembles the result. firedAtStart marks the
// first epoch as an event epoch regardless of remaining actions (a
// resumed run whose checkpoint event fired mid-epoch must still sample
// that epoch, exactly as the uninterrupted run did).
func (st *runState) loop(ctx context.Context, startEpoch int, actions []action, firedAtStart bool) (*Result, error) {
	sc := st.sc
	sys := st.sys
	every := sc.sampleEvery()
	for epoch := startEpoch; epoch < sc.maxEpochs(); epoch++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		fired := firedAtStart
		firedAtStart = false
		for len(actions) > 0 && actions[0].at <= epoch {
			a := actions[0]
			actions = actions[1:]
			st.consumed++
			fired = true
			if a.ev.Kind == KindCheckpoint {
				// State as of this instant: epoch not yet stepped, this
				// action already consumed, the epoch marked as fired.
				if err := st.writeCheckpoint(a.ev.Path, epoch, true); err != nil {
					return nil, fmt.Errorf("scenario %q epoch %d: %w", sc.Name, epoch, err)
				}
				continue
			}
			if err := st.apply(a, epoch); err != nil {
				return nil, fmt.Errorf("scenario %q epoch %d: %w", sc.Name, epoch, err)
			}
			if st.probe != nil {
				if err := st.probe(sys, "event", epoch); err != nil {
					return nil, fmt.Errorf("scenario %q epoch %d after %s event: %w", sc.Name, epoch, a.ev.Kind, err)
				}
			}
		}
		alive, err := sys.StepEpoch()
		if err != nil {
			return nil, fmt.Errorf("scenario %q: %w", sc.Name, err)
		}
		if st.probe != nil {
			if err := st.probe(sys, "epoch", epoch); err != nil {
				return nil, fmt.Errorf("scenario %q epoch %d: %w", sc.Name, epoch, err)
			}
		}
		if fired || epoch%every == 0 {
			st.sample(epoch)
			st.lastSampled = epoch
		}
		done := !alive && len(actions) == 0
		if done && st.lastSampled != epoch {
			st.sample(epoch)
			st.lastSampled = epoch
		}
		if st.ck.Every > 0 && (epoch+1)%st.ck.Every == 0 && !done {
			// Post-epoch checkpoint: resume re-enters at epoch+1 with
			// nothing consumed mid-epoch.
			if err := st.writeCheckpoint(st.ck.Path, epoch+1, false); err != nil {
				return nil, fmt.Errorf("scenario %q epoch %d: %w", sc.Name, epoch, err)
			}
		}
		if done {
			break
		}
	}
	if err := sys.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("scenario %q: final invariants: %w", sc.Name, err)
	}

	res := &Result{Name: sc.Name, Seed: sc.Seed, Epochs: sys.Epochs(), Timeline: st.timeline, Sys: sys}
	for _, r := range st.runs {
		vr, ok := sys.VMResultByID(r.ID)
		if !ok {
			return nil, fmt.Errorf("scenario %q: VM %d vanished", sc.Name, r.ID)
		}
		r.Res = *vr
		if sw, ok := st.wraps[r.ID]; ok {
			r.Completed = sw.Done()
		}
		res.VMs = append(res.VMs, *r)
	}
	return res, nil
}

// Table renders the per-VM outcomes.
func (r *Result) Table() *metrics.Table {
	t := metrics.NewTable("scenario "+r.Name,
		"vm", "app", "mode", "boot", "shutdown", "epochs", "runtime-s",
		"promotions", "demotions", "vmm-moves", "balloon-in", "refused", "stalled")
	for i := range r.VMs {
		v := &r.VMs[i]
		shutdown := "-"
		if v.ShutdownEpoch >= 0 {
			shutdown = fmt.Sprintf("%d", v.ShutdownEpoch)
		}
		t.AddRow(int(v.ID), v.App, v.Mode, v.BootEpoch, shutdown, v.Res.Epochs,
			fmt.Sprintf("%.3f", v.Res.SimTime.Seconds()),
			v.Res.Promotions, v.Res.Demotions, v.Res.VMMMigrations,
			v.Res.BalloonPagesIn, v.Res.BalloonRefusedPages, v.Res.MigrationStalledPasses)
	}
	return t
}

// TimelineTable renders the sampled scenario timeline.
func (r *Result) TimelineTable() *metrics.Table {
	t := metrics.NewTable("timeline "+r.Name,
		"epoch", "sim-s", "vms", "fast-free", "moves", "balloon-in", "refused", "drf-shares")
	for i := range r.Timeline {
		s := &r.Timeline[i]
		var shares strings.Builder
		for j, sh := range s.Shares {
			if j > 0 {
				shares.WriteByte(' ')
			}
			fmt.Fprintf(&shares, "%d:%.3f", sh.ID, sh.Share)
		}
		sh := shares.String()
		if sh == "" {
			sh = "-"
		}
		t.AddRow(s.Epoch, fmt.Sprintf("%.3f", s.SimTime.Seconds()), s.LiveVMs,
			s.FastFree, s.Moves, s.BalloonIn, s.BalloonRefused, sh)
	}
	return t
}

// withProfiling returns a shallow copy with the phase profiler on —
// RunMany must not mutate caller-owned scenarios (one *Scenario may be
// submitted to several batches concurrently).
func (sc *Scenario) withProfiling() *Scenario {
	cp := *sc
	cp.ProfileEpochs = true
	return &cp
}

// RunMany executes scenarios through the runner pool: bounded
// concurrency, per-job panic isolation, and results in input order.
// Per-scenario observability handles come from opts.NewObs (closed
// after each run) or, when opts.Obs is set instead, from per-scenario
// JobScope children of that parent handle — each scenario's metrics
// then land in a "name/..." scope of the parent's registry tree, so
// one Snapshot/Rollup aggregates the batch (read it only after RunMany
// returns). opts.ProfileEpochs turns on the phase profiler for every
// scenario that ends up with a handle. Results are byte-identical
// across worker counts.
func RunMany(ctx context.Context, scs []*Scenario, opts runner.Options) ([]*Result, error) {
	pool := runner.NewPool(ctx, opts)
	out := make([]*Result, len(scs))
	futures := make([]*runner.Future, len(scs))
	// Scope labels are deduplicated up front (serially) so two scenarios
	// sharing a name never share a child registry.
	scopeLabels := make([]string, len(scs))
	seen := make(map[string]int, len(scs))
	for i, sc := range scs {
		seen[sc.Name]++
		scopeLabels[i] = sc.Name
		if n := seen[sc.Name]; n > 1 {
			scopeLabels[i] = fmt.Sprintf("%s#%d", sc.Name, n)
		}
	}
	for i, sc := range scs {
		i, sc := i, sc
		futures[i] = pool.SubmitFunc(sc.Name, func(ctx context.Context) (*core.VMResult, *core.System, error) {
			var h *obs.Obs
			if opts.NewObs != nil {
				h = opts.NewObs(sc.Name, sc.Seed)
				if h != nil && h.RunTag() == "" {
					h.SetRunTag(sc.Name)
				}
			} else if opts.Obs != nil {
				h = opts.Obs.JobScope(scopeLabels[i])
				h.SetRunTag(sc.Name)
			}
			if opts.ProfileEpochs && h != nil && !sc.ProfileEpochs {
				sc = sc.withProfiling()
			}
			r, err := sc.Run(ctx, h)
			if cerr := h.Close(); err == nil && cerr != nil {
				err = cerr
			}
			if err != nil {
				return nil, nil, err
			}
			out[i] = r
			return &r.VMs[0].Res, r.Sys, nil
		})
	}
	var firstErr error
	for _, f := range futures {
		if err := f.Err(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("scenario %q: %w", f.Label(), err)
		}
	}
	return out, firstErr
}
