package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"time"

	"heteroos/internal/core"
	"heteroos/internal/exp"
	"heteroos/internal/fleet"
	"heteroos/internal/memsim"
	"heteroos/internal/obs"
	"heteroos/internal/policy"
	"heteroos/internal/scenario"
	"heteroos/internal/snapshot"
	"heteroos/internal/workload"
)

// The fleet and scenario inputs are the benchmark's own. Both name the
// analytic backend explicitly, so neither depends on a default.
var (
	//go:embed inputs/fleet-mix.json
	fleetMixJSON []byte
	//go:embed inputs/scenario-ckpt.json
	scenarioCkptJSON []byte
)

// analytic resolves the analytic pricing backend by name.
func analytic() (memsim.Builder, error) { return memsim.BuilderByName(memsim.BackendAnalytic) }

// digestOf hashes the JSON encoding of a simulated outcome.
func digestOf(v interface{}) string {
	b, err := json.Marshal(v)
	if err != nil {
		return "unencodable: " + err.Error()
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// outcome records the simulated end-to-end figures of a summed result.
func outcome(it *iteration, r *core.VMResult) {
	it.vmEpochs = float64(r.Epochs)
	it.simNs = float64(r.SimTime)
	it.fastMiss = float64(r.Misses[memsim.FastMem])
	it.allMiss = float64(r.Misses[memsim.FastMem] + r.Misses[memsim.SlowMem])
	it.summary = fmt.Sprintf("vm_epochs=%d sim_runtime_s=%.9f fast_misses=%d slow_misses=%d faults=%d promotions=%d demotions=%d cache_evictions=%d vmm_migrations=%d scan_passes=%d",
		r.Epochs, r.SimTime.Seconds(), r.Misses[memsim.FastMem], r.Misses[memsim.SlowMem],
		r.Faults, r.Promotions, r.Demotions, r.CacheEvictions, r.VMMMigrations, r.ScanPasses)
}

// resultLayers reports the guest OS and VMM per-layer counts of a
// summed result. They are exact: a change that only speeds the
// simulator up must leave every one of them unmoved.
func resultLayers(it *iteration, r *core.VMResult) {
	it.layers["guestos.faults"] = float64(r.Faults)
	it.layers["guestos.demotions"] = float64(r.Demotions)
	it.layers["guestos.promotions"] = float64(r.Promotions)
	it.layers["guestos.cache_evictions"] = float64(r.CacheEvictions)
	it.layers["guestos.fast_alloc_miss_ratio"] = r.MissRatio()
	it.layers["vmm.scan_passes"] = float64(r.ScanPasses)
	it.layers["vmm.migrations"] = float64(r.VMMMigrations)
	it.layers["vmm.promotions_per_pass"] = ratio(float64(r.Promotions+r.VMMMigrations), float64(r.ScanPasses))
	it.layers["vmm.scan_sim_s"] = r.ScanCostNs / 1e9
}

// singleGraphChi is the default single-host run: one GraphChi VM under
// HeteroOS-coordinated with FastMem at 1/4 of its 8 GiB SlowMem, driven
// epoch by epoch through core.NewSystem and System.StepEpoch.
type singleGraphChi struct {
	seed uint64
	// scale is the workload capacity divisor (0: workload.DefaultScale).
	scale uint64
}

func (b *singleGraphChi) prepare(*iteration) {}

func (b *singleGraphChi) config() (core.Config, error) {
	scale := b.scale
	if scale == 0 {
		scale = workload.DefaultScale
	}
	mode, err := policy.ByName("HeteroOS-coordinated")
	if err != nil {
		return core.Config{}, err
	}
	build, err := analytic()
	if err != nil {
		return core.Config{}, err
	}
	wc := workload.Config{Seed: b.seed, Scale: scale}
	w, err := workload.ByName("GraphChi", wc)
	if err != nil {
		return core.Config{}, err
	}
	slow := wc.Pages(8 * workload.GiB)
	fast := slow / 4
	return core.Config{
		FastFrames: fast + slow + 8192,
		SlowFrames: slow + 8192,
		CostScale:  float64(scale),
		Backend:    build,
		Seed:       b.seed,
		VMs: []core.VMConfig{{
			ID: 1, Mode: mode, Workload: w,
			FastPages: fast, SlowPages: slow,
		}},
	}, nil
}

func (b *singleGraphChi) iterate(it *iteration) {
	tr := it.tr
	t0 := time.Now()
	cfg, err := b.config()
	if err != nil {
		it.fail(1, "single-graphchi: config", err)
		return
	}
	var tw *tracedWorkload
	var tally *tallyBackend
	if tr != nil {
		tw = &tracedWorkload{inner: cfg.VMs[0].Workload, tr: tr}
		cfg.VMs[0].Workload = tw
		cfg.Backend = tallyBuilder(cfg.Backend, tr, &tr.cur, func(tb *tallyBackend) { tally = tb })
		cfg.Obs = obs.New()
		cfg.ProfileEpochs = true
	}
	var sys *core.System
	tr.call("core.new_system", func() { sys, err = core.NewSystem(cfg) })
	if err != nil {
		it.fail(1, "single-graphchi: boot", err)
		return
	}
	it.setupNs = since(t0)

	t1 := time.Now()
	for sys.Epochs() < sys.Cfg.MaxEpochs {
		var alive bool
		tr.call("core.step_epoch", func() { alive, err = sys.StepEpoch() })
		if err != nil {
			it.fail(1, "single-graphchi: run", err)
			return
		}
		if !alive {
			break
		}
	}
	var invErr error
	tr.call("core.check_invariants", func() { invErr = sys.CheckInvariants() })
	inst := sys.VMs[0]
	it.op(inst.Done, "single-graphchi: VM did not finish within %d epochs", sys.Cfg.MaxEpochs)
	it.op(invErr == nil, "single-graphchi: invariants: %v", invErr)
	res := inst.Res
	outcome(it, &res)
	it.digest = digestOf(res)
	it.wallNs = since(t1)
	if tr == nil {
		return
	}

	if err := cfg.Obs.Close(); err != nil {
		it.fail(1, "single-graphchi: obs", err)
	}
	it.op(tally != nil && tally.simTime == res.SimTime && int(tally.charges) == res.Epochs,
		"single-graphchi: priced epochs do not reconcile with the VM result")
	steps := tr.durations("workload.step")
	epochs := tr.durations("core.step_epoch")
	stepNs := tr.total("workload.step")
	it.layers["workload.init_ns"] = tr.total("workload.init")
	it.layers["workload.step_ns"] = stepNs
	it.layers["workload.step_ns.p50"] = quantile(steps, 0.5)
	it.layers["workload.step_ns.p90"] = quantile(steps, 0.9)
	it.layers["workload.touches"] = float64(tw.touches)
	it.layers["workload.step_ns_per_touch"] = ratio(stepNs, float64(tw.touches))
	it.layers["core.new_system_ns"] = tr.total("core.new_system")
	it.layers["core.step_epoch_ns.p50"] = quantile(epochs, 0.5)
	it.layers["core.step_epoch_ns.p90"] = quantile(epochs, 0.9)
	it.layers["core.step_other_ns"] = tr.selfTime("core.step_epoch")
	it.layers["core.check_invariants_ns"] = tr.total("core.check_invariants")
	resultLayers(it, &res)
	if tally != nil {
		memsimLayers(it, tally.charges)
	}
	phaseLayers(it, cfg.Obs.Metrics.Snapshot())
}

// fig9Sweep is the figure-9 quick sweep (GraphChi and LevelDB × six
// modes) through exp's figure9 on a two-worker runner pool. exp returns
// only the gain table, so every cell's backend is wrapped in a
// tallyBackend to read the simulated runtime and traffic it priced.
type fig9Sweep struct {
	seed uint64
	// golden is the committed CSV the sweep must reproduce at seed 1.
	golden string
	want   []byte
}

// fig9Cell is one sweep cell as the benchmark sees it.
type fig9Cell struct {
	label string
	span  int32
	tally *tallyBackend
}

type fig9Run struct {
	csv     []byte
	cells   []*fig9Cell
	handles []*obs.Obs
	root    int32
}

func (b *fig9Sweep) prepare(it *iteration) {
	want, err := os.ReadFile(b.golden)
	if !it.op(err == nil, "fig9-sweep: golden: %v", err) {
		return
	}
	b.want = want
	if b.seed == 1 {
		return // every measured iteration is compared with the golden
	}
	e, ok := exp.ByID("figure9")
	if !ok {
		it.fail(1, "fig9-sweep", errors.New("no figure9 experiment"))
		return
	}
	r, err := b.sweep(e, 1, nil)
	if err != nil {
		it.fail(1, "fig9-sweep: golden sweep at seed 1", err)
		return
	}
	it.op(bytes.Equal(r.csv, b.want), "fig9-sweep: seed 1 output differs from %s", b.golden)
}

// sweep runs the figure-9 quick sweep at seed; with tr set, every cell
// is a span from its backend's construction to its progress report and
// runs under the epoch phase profiler.
func (b *fig9Sweep) sweep(e exp.Experiment, seed uint64, tr *tracer) (*fig9Run, error) {
	build, err := analytic()
	if err != nil {
		return nil, err
	}
	run := &fig9Run{root: -1}
	var mu sync.Mutex
	byLabel := make(map[string]*fig9Cell)
	opts := exp.Options{Seed: seed, Quick: true, Workers: workers}
	opts.NewBackend = func(label string, _ uint64) memsim.Builder {
		c := &fig9Cell{label: label, span: -1}
		mu.Lock()
		run.cells = append(run.cells, c)
		byLabel[label] = c
		mu.Unlock()
		inner := tallyBuilder(build, tr, &c.span, func(tb *tallyBackend) { c.tally = tb })
		if tr == nil {
			return inner
		}
		return func(m *memsim.Machine, o ...memsim.Option) memsim.Backend {
			c.span = tr.start("runner.cell", run.root)
			return inner(m, o...)
		}
	}
	if tr != nil {
		opts.Progress = func(_, _ int, label string) {
			mu.Lock()
			c := byLabel[label]
			mu.Unlock()
			if c != nil && c.span >= 0 {
				tr.end(c.span)
			}
		}
		opts.NewObs = func(string, uint64) *obs.Obs {
			h := obs.New()
			mu.Lock()
			run.handles = append(run.handles, h)
			mu.Unlock()
			return h
		}
		opts.ProfileEpochs = true
		run.root = tr.start("exp.figure9", -1)
	}
	r, err := e.Run(context.Background(), opts)
	if tr != nil {
		tr.end(run.root)
	}
	if err != nil {
		return nil, err
	}
	if len(byLabel) != len(run.cells) {
		return nil, fmt.Errorf("sweep cell labels are not unique (%d labels, %d cells)", len(byLabel), len(run.cells))
	}
	// The byte layout of heterobench -format=csv, which the golden
	// was captured from.
	var buf bytes.Buffer
	r.Table.RenderCSV(&buf)
	if r.Notes != "" {
		fmt.Fprintln(&buf, r.Notes)
	}
	fmt.Fprintln(&buf)
	run.csv = buf.Bytes()
	sort.Slice(run.cells, func(i, j int) bool { return run.cells[i].label < run.cells[j].label })
	return run, nil
}

func (b *fig9Sweep) iterate(it *iteration) {
	const cells = 12
	var e exp.Experiment
	setup, err := timePerCall(func() error {
		var ok bool
		if e, ok = exp.ByID("figure9"); !ok {
			return errors.New("no figure9 experiment")
		}
		return nil
	})
	if err != nil {
		it.fail(cells, "fig9-sweep", err)
		return
	}
	it.setupNs = setup

	t1 := time.Now()
	run, err := b.sweep(e, b.seed, it.tr)
	if err != nil {
		it.fail(cells, "fig9-sweep: sweep", err)
		return
	}
	type cellOutcome struct {
		Label   string
		Epochs  uint64
		SimTime int64
		Misses  [memsim.NumTiers]uint64
	}
	outcomes := make([]cellOutcome, 0, len(run.cells))
	var charges uint64
	var sum core.VMResult
	for _, c := range run.cells {
		if !it.op(c.tally != nil && c.tally.charges > 0, "fig9-sweep: cell %s priced no epoch", c.label) {
			continue
		}
		t := c.tally
		outcomes = append(outcomes, cellOutcome{c.label, t.charges, int64(t.simTime), t.misses})
		charges += t.charges
		sum.SimTime += t.simTime
		for i := range t.misses {
			sum.Misses[i] += t.misses[i]
		}
	}
	it.op(len(run.cells) == cells, "fig9-sweep: %d cells, want %d", len(run.cells), cells)
	if b.seed == 1 {
		it.op(bytes.Equal(run.csv, b.want), "fig9-sweep: output differs from %s", b.golden)
	}
	sum.Epochs = int(charges)
	outcome(it, &sum)
	it.digest = digestOf(struct {
		CSV   string
		Cells []cellOutcome
	}{string(run.csv), outcomes})
	it.wallNs = since(t1)

	tr := it.tr
	if tr == nil {
		return
	}
	cellNs := tr.durations("runner.cell")
	var busy, longest float64
	for _, d := range cellNs {
		busy += d
		if d > longest {
			longest = d
		}
	}
	sweepNs := tr.total("exp.figure9")
	it.layers["runner.cells"] = float64(len(cellNs))
	it.layers["runner.cell_ns.p50"] = quantile(cellNs, 0.5)
	it.layers["runner.cell_ns.max"] = longest
	it.layers["runner.busy_frac"] = ratio(busy, workers*sweepNs)
	it.layers["runner.critical_cell_share"] = ratio(longest, sweepNs)
	memsimLayers(it, charges)
	var merged obs.Snapshot
	for _, h := range run.handles {
		merged = merged.Merge(h.Metrics.Snapshot())
		if err := h.Close(); err != nil {
			it.fail(1, "fig9-sweep: obs", err)
		}
	}
	phaseLayers(it, merged)
}

// fleetMix is a benchmark-owned fleet script: mixed applications on a
// few dozen hosts with placement, live migration, DRF sharing and a
// host failure, driven round by round through fleet.NewCluster,
// Cluster.StepRound and Cluster.Result.
type fleetMix struct {
	seed   uint64
	script []byte
}

func (b *fleetMix) prepare(*iteration) {}

func (b *fleetMix) iterate(it *iteration) {
	tr := it.tr
	t0 := time.Now()
	sc, err := fleet.Parse(b.script)
	if err != nil {
		it.fail(1, "fleet-mix: parse", err)
		return
	}
	sc.Seed = b.seed
	var c *fleet.Cluster
	tr.call("fleet.new_cluster", func() { c, err = fleet.NewCluster(sc, fleet.Options{Workers: workers}) })
	if err != nil {
		it.fail(sc.TotalVMs(), "fleet-mix: cluster", err)
		return
	}
	it.setupNs = since(t0)

	t1 := time.Now()
	ctx := context.Background()
	for r := 0; r < sc.Rounds; r++ {
		tr.call("fleet.round", func() { err = c.StepRound(ctx) })
		if err != nil {
			it.fail(sc.TotalVMs(), "fleet-mix: run", err)
			return
		}
	}
	var res *fleet.Result
	tr.call("fleet.result", func() { res, err = c.Result() })
	if !it.op(err == nil, "fleet-mix: final invariant sweep: %v", err) {
		return
	}
	lost, evacuations := 0, 0
	for _, v := range res.VMs {
		if !it.op(!v.Lost, "fleet-mix: VM %d (%s) lost", v.ID, v.App) {
			lost++
		}
	}
	heat := true
	for _, m := range res.Migrations {
		heat = heat && m.HeatPreserved
		if m.Evacuation {
			evacuations++
		}
	}
	it.op(heat, "fleet-mix: a live migration did not preserve the VM's heat profile")
	sum := res.FleetSum()
	var hosts core.VMResult
	for i := range res.HostRuns {
		h := res.HostSum(i)
		fleet.AddResults(&hosts, &h)
	}
	it.op(reflect.DeepEqual(sum, hosts), "fleet-mix: FleetSum differs from the sum of HostSum")
	outcome(it, &sum)
	it.digest = digestOf(res)
	it.wallNs = since(t1)
	if tr == nil {
		return
	}

	rounds := tr.durations("fleet.round")
	longest := 0.0
	for _, d := range rounds {
		if d > longest {
			longest = d
		}
	}
	it.layers["fleet.new_cluster_ns"] = tr.total("fleet.new_cluster")
	it.layers["fleet.round_ns.p50"] = quantile(rounds, 0.5)
	it.layers["fleet.round_ns.max"] = longest
	it.layers["fleet.result_ns"] = tr.total("fleet.result")
	it.layers["fleet.migrations"] = float64(len(res.Migrations))
	it.layers["fleet.evacuations"] = float64(evacuations)
	it.layers["fleet.lost_vms"] = float64(lost)
	it.layers["fleet.vm_epochs"] = float64(sum.Epochs)
	resultLayers(it, &sum)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	it.layers["fleet.heap_bytes_per_host"] = float64(ms.HeapInuse) / float64(res.Hosts)
	runtime.KeepAlive(c)
}

// scenarioCkpt is a benchmark-owned single-host scenario with periodic
// checkpoints, resumed from a mid-run checkpoint through
// scenario.ResumeFile; the resumed result must equal the uninterrupted
// one.
type scenarioCkpt struct {
	seed   uint64
	script []byte
	// dir receives the checkpoint files.
	dir string
}

// ckptEvery is the periodic checkpoint cadence in epochs.
const ckptEvery = 16

func (b *scenarioCkpt) prepare(*iteration) {}

func (b *scenarioCkpt) iterate(it *iteration) {
	tr := it.tr
	var sc *scenario.Scenario
	setup, err := timePerCall(func() (err error) {
		sc, err = scenario.Parse(b.script)
		return err
	})
	if err != nil {
		it.fail(1, "scenario-ckpt: parse", err)
		return
	}
	it.setupNs = setup
	sc.Seed = b.seed
	mid := filepath.Join(b.dir, "mid.snap")
	periodic := filepath.Join(b.dir, "periodic.snap")
	for i := range sc.Events {
		if sc.Events[i].Kind == scenario.KindCheckpoint {
			sc.Events[i].Path = mid
		}
	}
	for _, p := range []string{mid, periodic} {
		if err := os.Remove(p); err != nil && !errors.Is(err, os.ErrNotExist) {
			it.fail(1, "scenario-ckpt: stale checkpoint", err)
			return
		}
	}

	t1 := time.Now()
	ctx := context.Background()
	var full, resumed *scenario.Result
	tr.call("scenario.run", func() {
		full, err = sc.RunWithCheckpoints(ctx, nil, scenario.CheckpointOptions{Every: ckptEvery, Path: periodic})
	})
	if err != nil {
		it.fail(len(sc.VMs), "scenario-ckpt: run", err)
		return
	}
	tr.call("scenario.resume", func() { resumed, err = scenario.ResumeFile(ctx, mid, nil, scenario.CheckpointOptions{}) })
	if !it.op(err == nil, "scenario-ckpt: resume: %v", err) {
		return
	}
	var sum core.VMResult
	for i := range full.VMs {
		v := &full.VMs[i]
		it.op(v.Res.Epochs > 0, "scenario-ckpt: VM %d never ran", v.ID)
		fleet.AddResults(&sum, &v.Res)
	}
	it.op(full.Sys.CheckInvariants() == nil && resumed.Sys.CheckInvariants() == nil,
		"scenario-ckpt: final invariants")
	fullJSON, errFull := json.Marshal(full)
	resumedJSON, errResumed := json.Marshal(resumed)
	it.op(errFull == nil && errResumed == nil && bytes.Equal(fullJSON, resumedJSON),
		"scenario-ckpt: the run resumed from %s differs from the uninterrupted run", filepath.Base(mid))
	outcome(it, &sum)
	it.digest = digestOf(full)
	it.wallNs = since(t1)
	if tr == nil {
		return
	}

	it.layers["scenario.run_ns"] = tr.total("scenario.run")
	it.layers["scenario.resume_ns"] = tr.total("scenario.resume")
	if st, err := os.Stat(mid); it.op(err == nil, "scenario-ckpt: %v", err) {
		it.layers["snapshot.checkpoint_bytes"] = float64(st.Size())
	}
	// Periodic checkpoints replace one file; the last one's epoch
	// tells how many were written.
	last, err := checkpointEpoch(periodic)
	if it.op(err == nil, "scenario-ckpt: periodic checkpoint: %v", err) {
		it.layers["snapshot.checkpoints"] = float64(1 + last/ckptEvery)
	}
	resultLayers(it, &sum)
}

// checkpointEpoch reads the epoch a scenario checkpoint resumes at.
func checkpointEpoch(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	rd, err := snapshot.Open(f)
	if err != nil {
		return 0, err
	}
	blob, err := core.Meta(rd)
	if err != nil {
		return 0, err
	}
	var meta struct {
		Epoch int `json:"epoch"`
	}
	if err := json.Unmarshal(blob, &meta); err != nil {
		return 0, err
	}
	return meta.Epoch, nil
}
