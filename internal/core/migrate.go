// Cross-host live migration: a VM departs one System as a serialized
// VMImage and re-materializes on another, carrying its full mutable
// state — guest OS structures, page heat, workload cursor, accumulated
// results — across the move. The mechanism mirrors checkpoint/restore
// (reconstruct a fresh boot, then overlay serialized state), with one
// addition: the image's machine-frame bindings are remapped onto frames
// adopted from the destination host, tier-for-tier, so the guest's
// physical-page layout (and with it the heat profile) survives even
// though the backing MFNs are necessarily different.
package core

import (
	"bytes"
	"fmt"

	"heteroos/internal/guestos"
	"heteroos/internal/memsim"
	"heteroos/internal/obs"
	"heteroos/internal/sim"
	"heteroos/internal/snapshot"
	"heteroos/internal/vmm"
	"heteroos/internal/workload"
)

// VMImage is one VM's serialized migratable state: everything a
// destination host needs to continue the guest bit-for-bit, minus the
// things only the fleet layer knows (which workload type to construct,
// what spans to reserve — those travel in the VMConfig the caller
// presents to ImmigrateVM).
//
// Wire format: a snapshot container (magic, named length-prefixed
// sections, CRC64 trailer) with sections
//
//	meta     — VM id, per-tier frame footprint, guest span
//	inst     — core.VMInstance scheduler state (clock, scan debt,
//	           budgets, fault flags, Res, TraceLog, scanner/interval)
//	vm       — vmm.VM grant counters and fault flags
//	p2m      — backed pages in ascending PFN order: (pfn, mfn, tier);
//	           the source-host MFNs recorded here are what ImmigrateVM
//	           rebinds onto destination frames
//	guestos  — the guest OS's complete mutable state
//	workload — the workload cursor (workload.Snapshotter)
type VMImage struct {
	// ID is the migrating VM's identity, preserved across hosts.
	ID vmm.VMID
	// Pages is the per-tier machine-frame footprint the VM carries; the
	// destination must adopt exactly this many frames per tier.
	Pages [memsim.NumTiers]uint64
	// Data is the snapshot container described above.
	Data []byte
}

// Frames reports the image's total machine-frame footprint.
func (img *VMImage) Frames() uint64 {
	var n uint64
	for t := memsim.Tier(0); t < memsim.NumTiers; t++ {
		n += img.Pages[t]
	}
	return n
}

// EmigrateVM captures a live VM into a VMImage and tears it down
// locally: balloon unwound, P2M cleared, every machine frame returned
// to this host's VMM pool, the VM deregistered from the share policy.
// The ID is retired into Departed as a migrated-out stub (zero result —
// the real, still-accumulating result travels in the image), so results
// stay unambiguous and the ID can only return via ImmigrateVM.
//
// The VM must still be running (shut finished VMs down instead — their
// result is final and moving them buys nothing) and its workload must
// implement workload.Snapshotter. Call only between epochs.
func (s *System) EmigrateVM(id vmm.VMID) (*VMImage, error) {
	inst, ok := s.instByID(id)
	if !ok {
		return nil, fmt.Errorf("core: EmigrateVM: no live VM %d", id)
	}
	if inst.Done {
		return nil, fmt.Errorf("core: EmigrateVM: VM %d has finished; shut it down instead", id)
	}
	ws, ok := inst.W.(workload.Snapshotter)
	if !ok {
		return nil, fmt.Errorf("core: EmigrateVM: workload %T on VM %d does not support migration", inst.W, id)
	}

	img := &VMImage{ID: id}
	for t := memsim.Tier(0); t < memsim.NumTiers; t++ {
		img.Pages[t] = inst.VM.Granted(t)
	}

	var buf bytes.Buffer
	sw, err := snapshot.NewWriter(&buf)
	if err != nil {
		return nil, err
	}
	if err := sw.Section("meta", func(e *snapshot.Encoder) {
		e.U32(uint32(id))
		for t := memsim.Tier(0); t < memsim.NumTiers; t++ {
			e.U64(img.Pages[t])
		}
		e.U64(inst.OS.NumPFNs())
	}); err != nil {
		return nil, err
	}
	var sectionErr error
	if err := sw.Section("inst", func(e *snapshot.Encoder) {
		e.I64(int64(inst.Clock.Now()))
		e.I64(int64(inst.scanDebt))
		e.Int(inst.moveBudget)
		e.Int(inst.throttledPasses)
		e.Bool(inst.stallMigration)
		e.Int(inst.stallSkips)
		if err := e.JSON(&inst.Res); err != nil && sectionErr == nil {
			sectionErr = err
		}
		if err := e.JSON(inst.TraceLog); err != nil && sectionErr == nil {
			sectionErr = err
		}
		e.Bool(inst.scanner != nil)
		if inst.scanner != nil {
			inst.scanner.SnapshotState(e)
		}
		e.Bool(inst.interval != nil)
		if inst.interval != nil {
			inst.interval.SnapshotState(e)
		}
	}); err != nil {
		return nil, err
	}
	if err := sw.Section("vm", func(e *snapshot.Encoder) {
		inst.VM.SnapshotState(e)
	}); err != nil {
		return nil, err
	}
	if err := sw.Section("p2m", func(e *snapshot.Encoder) {
		var n uint64
		inst.OS.ForEachBacked(func(guestos.PFN, memsim.MFN) { n++ })
		e.U64(n)
		inst.OS.ForEachBacked(func(pfn guestos.PFN, mfn memsim.MFN) {
			e.U64(uint64(pfn))
			e.U64(uint64(mfn))
			e.U8(uint8(s.Machine.TierOf(mfn)))
		})
	}); err != nil {
		return nil, err
	}
	if err := sw.Section("guestos", func(e *snapshot.Encoder) {
		inst.OS.SnapshotState(e)
	}); err != nil {
		return nil, err
	}
	if err := sw.Section("workload", func(e *snapshot.Encoder) {
		ws.SnapshotState(e)
	}); err != nil {
		return nil, err
	}
	if sectionErr != nil {
		return nil, fmt.Errorf("core: EmigrateVM VM %d: %w", id, sectionErr)
	}
	if err := sw.Close(); err != nil {
		return nil, err
	}
	img.Data = buf.Bytes()

	// Local teardown, mirroring ShutdownVM — except the result is NOT
	// finalised (the VM is still running; its result continues on the
	// destination) and the Departed stub carries a zero result so the
	// per-host sums never double-count a migrant.
	released := inst.OS.Teardown()
	if err := inst.OS.P2MEmpty(); err != nil {
		return nil, fmt.Errorf("core: EmigrateVM VM %d: %w", id, err)
	}
	if err := s.VMM.DestroyVM(id); err != nil {
		return nil, fmt.Errorf("core: EmigrateVM VM %d: %w", id, err)
	}
	for i, cand := range s.VMs {
		if cand == inst {
			s.VMs = append(s.VMs[:i], s.VMs[i+1:]...)
			break
		}
	}
	stub := &VMInstance{ID: id, Done: true, MigratedOut: true}
	stub.Clock.Restore(inst.Clock.Now())
	s.Departed = append(s.Departed, stub)
	if s.sysScope != nil {
		s.sysScope.Emit(obs.EvVMMigrateOut, obs.DirNone, obs.TierNone, 0, released, uint64(id), 0)
	}
	return img, nil
}

// ImmigrateVM re-materializes a migrated VM on this host. vc must
// describe the VM exactly as its original boot did (same ID, mode,
// spans, reservations) with a freshly constructed workload of the same
// type and seed — the fleet layer reconstructs this from its own VM
// records, just as checkpoint front-ends reconstruct Config. The guest
// is booted silently (no observability, like RestoreSystem's reboot),
// its transient boot footprint dropped, the image's per-tier frame
// counts adopted from this host's pools, and the serialized state
// overlaid with every guest page rebound old-MFN→new-MFN. The VM joins
// the lockstep from the next epoch with clock, heat profile, workload
// cursor, and accumulated result intact.
//
// A VM that previously migrated OUT of this host may migrate back in
// (the migrated-out stub is un-retired); an ID retired by a real
// shutdown stays retired.
func (s *System) ImmigrateVM(vc VMConfig, img *VMImage) (inst *VMInstance, err error) {
	// The boot-overlay path executes guest code paths that can panic via
	// *guestos.GuestPanic on a genuinely overloaded host; contain those
	// like stepVM does rather than killing the caller's round loop.
	defer func() {
		if r := recover(); r != nil {
			gp, ok := r.(*guestos.GuestPanic)
			if !ok {
				panic(r)
			}
			inst, err = nil, fmt.Errorf("core: ImmigrateVM VM %d: %w", img.ID, gp)
		}
	}()
	if vc.ID != img.ID {
		return nil, fmt.Errorf("core: ImmigrateVM: config names VM %d, image carries VM %d", vc.ID, img.ID)
	}
	for _, live := range s.VMs {
		if live.ID == vc.ID {
			return nil, fmt.Errorf("core: ImmigrateVM: VM %d already running", vc.ID)
		}
	}
	for i, stub := range s.Departed {
		if stub.ID != vc.ID {
			continue
		}
		if !stub.MigratedOut {
			return nil, fmt.Errorf("core: ImmigrateVM: VM id %d already used by a departed VM", vc.ID)
		}
		s.Departed = append(s.Departed[:i], s.Departed[i+1:]...)
		break
	}
	fast, slow := vc.effectiveSpans()
	if fast+slow == 0 {
		return nil, fmt.Errorf("core: ImmigrateVM: VM %d has a zero memory span", vc.ID)
	}
	if fast > s.Cfg.FastFrames || slow > s.Cfg.SlowFrames {
		return nil, fmt.Errorf("core: ImmigrateVM: VM %d span (%d fast, %d slow) exceeds machine (%d, %d)",
			vc.ID, fast, slow, s.Cfg.FastFrames, s.Cfg.SlowFrames)
	}
	if vc.Workload == nil {
		return nil, fmt.Errorf("core: ImmigrateVM: VM %d has no workload", vc.ID)
	}
	ws, ok := vc.Workload.(workload.Snapshotter)
	if !ok {
		return nil, fmt.Errorf("core: ImmigrateVM: workload %T on VM %d does not support migration", vc.Workload, vc.ID)
	}

	r, err := snapshot.OpenBytes(img.Data)
	if err != nil {
		return nil, fmt.Errorf("core: ImmigrateVM VM %d: %w", vc.ID, err)
	}

	// Boot silently: the reconstruction boot replays allocation and
	// workload-init activity that already happened on the source host,
	// none of which may reach this host's event sinks. Observability is
	// attached after the overlay.
	h := s.Cfg.Obs
	s.Cfg.Obs = nil
	inst, err = s.bootVM(vc)
	s.Cfg.Obs = h
	if err != nil {
		return nil, fmt.Errorf("core: ImmigrateVM VM %d: rebooting: %w", vc.ID, err)
	}

	// Drop the transient boot footprint; the image's frames replace it.
	inst.OS.Teardown()
	if err := inst.OS.P2MEmpty(); err != nil {
		return nil, fmt.Errorf("core: ImmigrateVM VM %d: %w", vc.ID, err)
	}

	// Adopt destination frames matching the image's per-tier footprint.
	// All-or-nothing: on shortfall the half-built guest is destroyed and
	// the host is left exactly as before the call.
	var adopted [memsim.NumTiers][]memsim.MFN
	abort := func(cause error) (*VMInstance, error) {
		for t := memsim.Tier(0); t < memsim.NumTiers; t++ {
			if len(adopted[t]) > 0 {
				inst.VM.Release(adopted[t])
			}
		}
		if derr := s.VMM.DestroyVM(vc.ID); derr != nil {
			return nil, fmt.Errorf("core: ImmigrateVM VM %d: %w (and teardown failed: %v)", vc.ID, cause, derr)
		}
		return nil, fmt.Errorf("core: ImmigrateVM VM %d: %w", vc.ID, cause)
	}
	for t := memsim.Tier(0); t < memsim.NumTiers; t++ {
		mfns, aerr := inst.VM.AdoptFrames(t, img.Pages[t])
		if aerr != nil {
			return abort(aerr)
		}
		adopted[t] = mfns
	}

	// Rebind the image's source-host MFNs onto the adopted frames, in
	// ascending PFN order per tier so the binding is deterministic.
	d, err := r.Section("p2m")
	if err != nil {
		return abort(err)
	}
	n := d.U64()
	var cursor [memsim.NumTiers]uint64
	mfnMap := make(map[memsim.MFN]memsim.MFN, n)
	for i := uint64(0); i < n; i++ {
		d.U64() // pfn: implied by the guestos section, recorded for tooling
		old := memsim.MFN(d.U64())
		t := memsim.Tier(d.U8())
		if t >= memsim.NumTiers || cursor[t] >= uint64(len(adopted[t])) {
			return abort(fmt.Errorf("p2m entry %d: tier %d frame count exceeds image footprint", i, t))
		}
		mfnMap[old] = adopted[t][cursor[t]]
		cursor[t]++
	}
	if err := d.Err(); err != nil {
		return abort(err)
	}
	for t := memsim.Tier(0); t < memsim.NumTiers; t++ {
		if cursor[t] != uint64(len(adopted[t])) {
			return abort(fmt.Errorf("image carries %d backed %v pages but grants %d frames", cursor[t], t, len(adopted[t])))
		}
	}
	mapMFN := func(m memsim.MFN) memsim.MFN {
		if nm, ok := mfnMap[m]; ok {
			return nm
		}
		return m
	}

	// Overlay, mirroring EmigrateVM's section order exactly.
	if d, err = r.Section("inst"); err != nil {
		return abort(err)
	}
	inst.Clock.Restore(sim.Time(d.I64()))
	inst.scanDebt = sim.Duration(d.I64())
	inst.moveBudget = d.Int()
	inst.throttledPasses = d.Int()
	inst.stallMigration = d.Bool()
	inst.stallSkips = d.Int()
	inst.Res = VMResult{}
	if err := d.JSON(&inst.Res); err != nil {
		return abort(err)
	}
	inst.TraceLog = nil
	if err := d.JSON(&inst.TraceLog); err != nil {
		return abort(err)
	}
	if had := d.Bool(); had != (inst.scanner != nil) {
		return abort(fmt.Errorf("image scanner presence %v != booted instance %v (mode mismatch?)", had, inst.scanner != nil))
	}
	if inst.scanner != nil {
		if err := inst.scanner.RestoreState(d); err != nil {
			return abort(err)
		}
	}
	if had := d.Bool(); had != (inst.interval != nil) {
		return abort(fmt.Errorf("image adaptive-interval presence %v != booted instance %v (mode mismatch?)", had, inst.interval != nil))
	}
	if inst.interval != nil {
		if err := inst.interval.RestoreState(d); err != nil {
			return abort(err)
		}
	}
	if err := d.Err(); err != nil {
		return abort(err)
	}

	if d, err = r.Section("vm"); err != nil {
		return abort(err)
	}
	if err := inst.VM.RestoreState(d); err != nil {
		return abort(err)
	}

	if d, err = r.Section("guestos"); err != nil {
		return abort(err)
	}
	if err := inst.OS.RestoreStateMapped(d, mapMFN); err != nil {
		return abort(err)
	}
	if inst.scanner != nil {
		// The heat index is a pure function of guest page state; rebuild
		// it over the restored, rebound store.
		inst.OS.SetPageIndexer(vmm.NewHeatIndex(inst.scanner, s.Machine.TierOf))
	}

	if d, err = r.Section("workload"); err != nil {
		return abort(err)
	}
	if err := ws.RestoreState(d, inst.OS); err != nil {
		return abort(err)
	}

	s.VMs = append(s.VMs, inst)
	if h != nil {
		scope := h.Scope(int(inst.ID), inst.simNow)
		inst.obsScope = scope
		inst.probes = newCoreProbes(scope)
		inst.OS.AttachObs(scope)
		if inst.scanner != nil {
			inst.scanner.AttachObs(scope)
		}
		if inst.migrator != nil {
			inst.migrator.AttachObs(scope)
		}
		if s.Cfg.ProfileEpochs {
			inst.phases = obs.NewPhaseProfiler(scope.Registry())
			if inst.scanner != nil {
				inst.scanner.AttachPhases(inst.phases)
			}
		}
	}
	if s.sysScope != nil {
		s.sysScope.Emit(obs.EvVMMigrateIn, obs.DirNone, obs.TierNone, 0, img.Frames(), uint64(vc.ID), 0)
	}
	return inst, nil
}

// HeatIndexSummary reports the VM's heat-bucket fingerprint, or false
// when no heat index is attached (modes without migration). Fleet tests
// compare pre/post-migration summaries to assert the profile survived.
func (inst *VMInstance) HeatIndexSummary() (vmm.HeatSummary, bool) {
	if inst.scanner == nil {
		return vmm.HeatSummary{}, false
	}
	if ix := inst.scanner.Index(); ix != nil {
		return ix.Summary(), true
	}
	return vmm.HeatSummary{}, false
}
