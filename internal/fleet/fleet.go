package fleet

import (
	"context"
	"fmt"
	"sort"
	"strconv"

	"heteroos/internal/core"
	"heteroos/internal/memsim"
	"heteroos/internal/obs"
	"heteroos/internal/policy"
	"heteroos/internal/runner"
	"heteroos/internal/vmm"
	"heteroos/internal/workload"
)

// Options configures a fleet run.
type Options struct {
	// Workers bounds hosts stepping concurrently; <=0 means GOMAXPROCS.
	// The result is byte-identical regardless of this value.
	Workers int
	// Obs, when non-nil, attaches observability: each host gets a
	// NestedJobScope child handle, so every host's metrics land under
	// "host/<id>/..." of this handle's registry and one Snapshot (or
	// Rollup) aggregates the whole fleet. Read it only after Run
	// returns.
	Obs *obs.Obs
}

// vmState is the fleet's book-keeping for one VM across its whole
// life, including migrations between hosts.
type vmState struct {
	id                   vmm.VMID
	app, mode            string
	fastPages, slowPages uint64
	// host indexes the System currently holding the VM (and, after
	// shutdown, its final result).
	host       int
	bootRound  int
	down       bool
	downRound  int
	lost       bool
	lostRound  int
	migrations int
	wrap       *workload.Surge
}

func (st *vmState) view() VMView {
	return VMView{ID: st.id, Host: st.host, FastPages: st.fastPages, SlowPages: st.slowPages}
}

// host is one datacenter machine: a full core.System plus the fleet's
// span-commitment books the placement policies read.
type host struct {
	id     int
	sys    *core.System
	obs    *obs.Obs
	failed bool
	// fastCommitted / slowCommitted sum resident VM spans (see
	// HostView).
	fastCommitted, slowCommitted uint64
	resident                     map[vmm.VMID]*vmState
}

func (h *host) view() HostView {
	return HostView{
		ID: h.id, Failed: h.failed,
		FastFrames: h.sys.Cfg.FastFrames, SlowFrames: h.sys.Cfg.SlowFrames,
		FastCommitted: h.fastCommitted, SlowCommitted: h.slowCommitted,
		VMs: len(h.resident),
	}
}

// action is one expanded script step; surge windows unfold into a
// start action and (for Duration > 0) a clear action.
type action struct {
	at    int
	ev    *Event
	clear bool
}

// Cluster is a running fleet: N hosts advanced in lock-step rounds.
// Build one with NewCluster, drive it with StepRound (or just use
// Run), then collect the outcome with Result.
type Cluster struct {
	sc      *Script
	opts    Options
	place   Placement
	hosts   []*host
	vms     map[vmm.VMID]*vmState
	order   []vmm.VMID
	actions []action
	// surged maps a windowed surge event to the VMs its start action
	// resolved, so the clear action unwinds exactly that set.
	surged map[*Event][]vmm.VMID

	round          int
	migrations     []MigrationRecord
	prevMigrations int
	timeline       []RoundSample
	viewBuf        []HostView
}

// hostSeed derives host id's system seed from the fleet seed: the
// fleet seed is mixed once, golden-ratio-offset per host, and mixed
// again, so sibling hosts' RNG streams are as unrelated as two
// independent seeds (see runner.Mix64).
func hostSeed(fleetSeed uint64, id int) uint64 {
	s := runner.Mix64(runner.Mix64(fleetSeed) ^ (uint64(id)+1)*0x9e3779b97f4a7c15)
	if s == 0 {
		s = 1
	}
	return s
}

// NewCluster validates the script, boots every host (empty), places
// and boots the round-0 VM groups, and returns the cluster positioned
// before round 0.
func NewCluster(sc *Script, opts Options) (*Cluster, error) {
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	place, err := PlacementByName(sc.placement())
	if err != nil {
		return nil, err
	}
	build, err := memsim.BuilderByName(sc.backend())
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		sc: sc, opts: opts, place: place,
		vms:    make(map[vmm.VMID]*vmState, sc.TotalVMs()),
		surged: make(map[*Event][]vmm.VMID),
	}
	for id := 0; id < sc.Hosts; id++ {
		sys, err := core.NewSystem(core.Config{
			FastFrames: sc.Host.FastFrames,
			SlowFrames: sc.Host.SlowFrames,
			Share:      core.ShareKind(sc.share()),
			// Hosts are driven by StepEpoch, not RunContext; the budget
			// only caps a runaway script.
			MaxEpochs:  sc.Rounds*sc.RoundEpochs + 1,
			AllowNoVMs: true,
			CostScale:  float64(sc.scale()),
			Backend:    build,
			Obs:        opts.Obs.NestedJobScope("host", strconv.Itoa(id)),
			Seed:       hostSeed(sc.Seed, id),
		})
		if err != nil {
			return nil, fmt.Errorf("fleet %q: host %d: %w", sc.Name, id, err)
		}
		c.hosts = append(c.hosts, &host{id: id, sys: sys, obs: sys.Cfg.Obs, resident: make(map[vmm.VMID]*vmState)})
	}
	for i := range sc.VMs {
		if err := c.bootGroup(&sc.VMs[i], 0); err != nil {
			return nil, err
		}
	}
	c.actions = expandActions(sc.Events)
	return c, nil
}

// expandActions unfolds the script into round-ordered actions; the
// sort is stable so actions sharing a round keep script order.
func expandActions(events []Event) []action {
	var out []action
	for i := range events {
		e := &events[i]
		out = append(out, action{at: e.At, ev: e})
		if e.Kind == KindSurge && e.Duration > 0 {
			out = append(out, action{at: e.At + e.Duration, ev: e, clear: true})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].at < out[j].at })
	return out
}

// vmConfig materialises a VM's core config: a fresh workload seeded
// from the fleet seed and the VM id — stable across migrations, so a
// re-built workload on the destination host restores the travelling
// cursor into an identical generator — wrapped for surge control.
func (c *Cluster) vmConfig(st *vmState) (core.VMConfig, error) {
	mode, err := policy.ByName(st.mode)
	if err != nil {
		return core.VMConfig{}, err
	}
	w, err := workload.ByName(st.app, workload.Config{
		Seed:  runner.DeriveSeed(c.sc.Seed, int(st.id)),
		Scale: c.sc.scale(),
	})
	if err != nil {
		return core.VMConfig{}, err
	}
	st.wrap = workload.NewSurge(w)
	return core.VMConfig{
		ID: st.id, Mode: mode, Workload: st.wrap,
		FastPages: st.fastPages, SlowPages: st.slowPages,
	}, nil
}

// hostViews snapshots every host's placement view into a reused
// buffer.
func (c *Cluster) hostViews() []HostView {
	if c.viewBuf == nil {
		c.viewBuf = make([]HostView, len(c.hosts))
	}
	for i, h := range c.hosts {
		c.viewBuf[i] = h.view()
	}
	return c.viewBuf
}

// bootGroup places and boots every VM of one group.
func (c *Cluster) bootGroup(g *VMGroup, round int) error {
	for i := 0; i < g.count(); i++ {
		st := &vmState{
			id:  vmm.VMID(len(c.order) + 1),
			app: g.App, mode: g.Mode,
			fastPages: g.FastPages, slowPages: g.SlowPages,
			bootRound: round,
		}
		target := c.place.PlaceBoot(st.view(), c.hostViews())
		if target < 0 {
			return fmt.Errorf("fleet %q round %d: no host fits VM %d (%s, %d fast + %d slow)",
				c.sc.Name, round, st.id, st.app, st.fastPages, st.slowPages)
		}
		vc, err := c.vmConfig(st)
		if err != nil {
			return err
		}
		h := c.hosts[target]
		if _, err := h.sys.BootVM(vc); err != nil {
			return fmt.Errorf("fleet %q round %d: boot VM %d on host %d: %w", c.sc.Name, round, st.id, target, err)
		}
		st.host = target
		h.admit(st)
		c.vms[st.id] = st
		c.order = append(c.order, st.id)
	}
	return nil
}

func (h *host) admit(st *vmState) {
	h.fastCommitted += st.fastPages
	h.slowCommitted += st.slowPages
	h.resident[st.id] = st
}

func (h *host) release(st *vmState) {
	h.fastCommitted -= st.fastPages
	h.slowCommitted -= st.slowPages
	delete(h.resident, st.id)
}

// running reports whether the VM is still doing work somewhere: not
// shut down, not stranded, workload unfinished.
func (c *Cluster) running(st *vmState) bool {
	return !st.down && !st.lost && !st.wrap.Done() && !c.hosts[st.host].failed
}

// targets resolves a shutdown/surge event's VM set: the explicit id,
// or the Count lowest-id VMs satisfying eligible. Count events tolerate
// a smaller eligible set (mass churn takes what is there); explicit
// targets must exist.
func (c *Cluster) targets(e *Event, eligible func(*vmState) bool) ([]vmm.VMID, error) {
	if e.VM > 0 {
		st, ok := c.vms[vmm.VMID(e.VM)]
		if !ok {
			return nil, fmt.Errorf("%s targets VM %d before it booted", e.Kind, e.VM)
		}
		if !eligible(st) {
			return nil, fmt.Errorf("%s targets VM %d, which is not eligible (down=%v lost=%v)", e.Kind, e.VM, st.down, st.lost)
		}
		return []vmm.VMID{st.id}, nil
	}
	var ids []vmm.VMID
	for _, id := range c.order {
		if len(ids) == e.Count {
			break
		}
		if eligible(c.vms[id]) {
			ids = append(ids, id)
		}
	}
	return ids, nil
}

// apply executes one script action at the current round.
func (c *Cluster) apply(a action) error {
	e := a.ev
	switch e.Kind {
	case KindBoot:
		return c.bootGroup(e.Boot, c.round)
	case KindShutdown:
		ids, err := c.targets(e, func(st *vmState) bool {
			return !st.down && !st.lost && !c.hosts[st.host].failed
		})
		if err != nil {
			return err
		}
		for _, id := range ids {
			st := c.vms[id]
			h := c.hosts[st.host]
			if _, err := h.sys.ShutdownVM(id); err != nil {
				return err
			}
			if err := h.sys.CheckInvariants(); err != nil {
				return fmt.Errorf("host %d after shutdown of VM %d: %w", h.id, id, err)
			}
			h.release(st)
			st.down, st.downRound = true, c.round
		}
	case KindSurge:
		factor := e.Factor
		if factor == 0 {
			factor = 2
		}
		if a.clear {
			for _, id := range c.surged[e] {
				st := c.vms[id]
				st.wrap.Active = false
				if !st.down && !st.lost {
					c.hosts[st.host].sys.EmitFault(id, obs.FaultSurge, false)
				}
			}
			delete(c.surged, e)
			return nil
		}
		ids, err := c.targets(e, c.running)
		if err != nil {
			return err
		}
		for _, id := range ids {
			st := c.vms[id]
			st.wrap.Active, st.wrap.Factor = true, factor
			c.hosts[st.host].sys.EmitFault(id, obs.FaultSurge, true)
		}
		if e.Duration > 0 {
			c.surged[e] = ids
		}
	case KindHostFail:
		return c.failHost(e.Host)
	}
	return nil
}

// failHost marks the host failed — it never steps again — and
// mass-evacuates its running VMs by live migration to wherever the
// placement policy finds room. VMs that fit nowhere are stranded on
// the dead host and recorded as lost (their partial results remain
// readable); finished VMs stay put, their results final.
func (c *Cluster) failHost(id int) error {
	h := c.hosts[id]
	if h.failed {
		return fmt.Errorf("host %d failed twice", id)
	}
	h.failed = true
	ids := make([]vmm.VMID, 0, len(h.resident))
	for vid := range h.resident {
		ids = append(ids, vid)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, vid := range ids {
		st := h.resident[vid]
		if st.wrap.Done() {
			continue
		}
		target := c.place.PlaceBoot(st.view(), c.hostViews())
		if target < 0 {
			st.lost, st.lostRound = true, c.round
			continue
		}
		if err := c.migrate(st, target, true); err != nil {
			return err
		}
	}
	return nil
}

// migrate live-migrates one VM: emigrate from its current host,
// immigrate onto the target, with the heat-profile carry-over checked
// against pre/post HeatIndex summaries.
func (c *Cluster) migrate(st *vmState, to int, evacuation bool) error {
	src, dst := c.hosts[st.host], c.hosts[to]
	var pre vmm.HeatSummary
	preOK := false
	for _, inst := range src.sys.VMs {
		if inst.ID == st.id {
			pre, preOK = inst.HeatIndexSummary()
			break
		}
	}
	img, err := src.sys.EmigrateVM(st.id)
	if err != nil {
		return fmt.Errorf("host %d: %w", src.id, err)
	}
	src.release(st)
	vc, err := c.vmConfig(st)
	if err != nil {
		return err
	}
	inst, err := dst.sys.ImmigrateVM(vc, img)
	if err != nil {
		return fmt.Errorf("host %d: immigrate VM %d: %w", dst.id, st.id, err)
	}
	dst.admit(st)
	st.host = to
	st.migrations++
	post, postOK := inst.HeatIndexSummary()
	c.migrations = append(c.migrations, MigrationRecord{
		Round: c.round, VM: st.id, From: src.id, To: dst.id,
		Frames: img.Frames(), Evacuation: evacuation,
		HeatPreserved: preOK && postOK && pre == post,
	})
	return nil
}

// rebalance asks the placement policy for moves and applies them.
func (c *Cluster) rebalance() error {
	var views []VMView
	for _, id := range c.order {
		if st := c.vms[id]; c.running(st) {
			views = append(views, st.view())
		}
	}
	for _, m := range c.place.Rebalance(c.hostViews(), views) {
		st, ok := c.vms[m.VM]
		if !ok || !c.running(st) {
			return fmt.Errorf("fleet %q round %d: %s rebalance moves ineligible VM %d", c.sc.Name, c.round, c.place.Name(), m.VM)
		}
		if m.To < 0 || m.To >= len(c.hosts) || m.To == st.host {
			return fmt.Errorf("fleet %q round %d: %s rebalance moves VM %d to invalid host %d", c.sc.Name, c.round, c.place.Name(), m.VM, m.To)
		}
		if v := c.hosts[m.To].view(); !v.Fits(st.fastPages, st.slowPages) {
			return fmt.Errorf("fleet %q round %d: %s rebalance overcommits host %d with VM %d", c.sc.Name, c.round, c.place.Name(), m.To, m.VM)
		}
		if err := c.migrate(st, m.To, false); err != nil {
			return fmt.Errorf("fleet %q round %d: %w", c.sc.Name, c.round, err)
		}
	}
	return nil
}

// StepRound advances the fleet one lock-step round: due script events
// apply, the placement policy rebalances (migrations run serially),
// every live host steps RoundEpochs epochs concurrently through the
// runner pool, and a timeline sample is taken at the barrier. Calling
// it past Script.Rounds is an error.
func (c *Cluster) StepRound(ctx context.Context) error {
	if c.round >= c.sc.Rounds {
		return fmt.Errorf("fleet %q: stepping past round %d", c.sc.Name, c.sc.Rounds)
	}
	for len(c.actions) > 0 && c.actions[0].at <= c.round {
		a := c.actions[0]
		c.actions = c.actions[1:]
		if err := c.apply(a); err != nil {
			return fmt.Errorf("fleet %q round %d: %w", c.sc.Name, c.round, err)
		}
	}
	if err := c.rebalance(); err != nil {
		return err
	}
	if err := c.stepHosts(ctx); err != nil {
		return err
	}
	c.sample()
	c.round++
	return nil
}

// stepHosts runs every live host's RoundEpochs epochs through the
// runner pool. Hosts share no mutable state, and the futures are
// awaited in host order, so this is the only concurrent phase and it
// cannot perturb determinism.
func (c *Cluster) stepHosts(ctx context.Context) error {
	pool := runner.NewPool(ctx, runner.Options{Workers: c.opts.Workers})
	futures := make([]*runner.Future, len(c.hosts))
	for i, h := range c.hosts {
		if h.failed {
			continue
		}
		h := h
		futures[i] = pool.SubmitFunc("host"+strconv.Itoa(h.id), func(context.Context) (*core.VMResult, *core.System, error) {
			for e := 0; e < c.sc.RoundEpochs; e++ {
				alive, err := h.sys.StepEpoch()
				if err != nil {
					return nil, nil, err
				}
				if !alive {
					break
				}
			}
			return nil, h.sys, nil
		})
	}
	for i, f := range futures {
		if f == nil {
			continue
		}
		if err := f.Err(); err != nil {
			return fmt.Errorf("fleet %q round %d: host %d: %w", c.sc.Name, c.round, i, err)
		}
	}
	return nil
}

// sample appends one timeline point (after the round's barrier).
// Migrations is the delta since the previous sample.
func (c *Cluster) sample() {
	s := RoundSample{Round: c.round, Migrations: len(c.migrations) - c.prevMigrations}
	c.prevMigrations = len(c.migrations)
	for _, h := range c.hosts {
		if h.failed {
			continue
		}
		s.LiveHosts++
		s.FastFree += h.sys.Machine.FreeFrames(memsim.FastMem)
	}
	for _, id := range c.order {
		st := c.vms[id]
		if st.lost {
			s.Lost++
			continue
		}
		if st.down {
			continue
		}
		s.ResidentVMs++
		if c.running(st) {
			s.RunningVMs++
		}
	}
	c.timeline = append(c.timeline, s)
}

// Result finalises the run: every live host's invariants are checked
// and the per-VM outcomes, migration log, and timeline are assembled.
func (c *Cluster) Result() (*Result, error) {
	res := &Result{
		Name: c.sc.Name, Seed: c.sc.Seed,
		Hosts: len(c.hosts), Rounds: c.round,
		Placement:  c.place.Name(),
		Migrations: c.migrations,
		Timeline:   c.timeline,
	}
	for _, h := range c.hosts {
		if !h.failed {
			if err := h.sys.CheckInvariants(); err != nil {
				return nil, fmt.Errorf("fleet %q: host %d final invariants: %w", c.sc.Name, h.id, err)
			}
		}
		res.HostRuns = append(res.HostRuns, HostRun{
			ID: h.id, Failed: h.failed, Epochs: h.sys.Epochs(),
			VMs: len(h.resident), Sys: h.sys, Obs: h.obs,
		})
	}
	for _, id := range c.order {
		st := c.vms[id]
		run := VMRun{
			ID: st.id, App: st.app, Mode: st.mode,
			BootRound: st.bootRound, Host: st.host,
			ShutdownRound: -1,
			Migrations:    st.migrations,
			Completed:     st.wrap.Done(),
			Lost:          st.lost,
		}
		if st.down {
			run.ShutdownRound = st.downRound
		}
		if vr, ok := c.hosts[st.host].sys.VMResultByID(st.id); ok {
			run.Res = *vr
		} else {
			return nil, fmt.Errorf("fleet %q: VM %d vanished from host %d", c.sc.Name, st.id, st.host)
		}
		res.VMs = append(res.VMs, run)
	}
	return res, nil
}

// Run executes a fleet script to completion.
//
// Determinism: the result — and, with opts.Obs attached, the metric
// tree — is a pure function of (*sc, sc.Seed), byte-identical across
// worker counts.
func Run(ctx context.Context, sc *Script, opts Options) (*Result, error) {
	c, err := NewCluster(sc, opts)
	if err != nil {
		return nil, err
	}
	for c.round < sc.Rounds {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := c.StepRound(ctx); err != nil {
			return nil, err
		}
	}
	return c.Result()
}
