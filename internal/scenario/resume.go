// Checkpoint/resume for scenario runs. The scenario engine stores its
// own position — script cursor, epoch, timeline, per-VM run records —
// as the snapshot's front-end meta blob; the core system state rides
// in the snapshot sections proper. Resume rebuilds the engine from the
// meta, the system from the sections, and re-enters the shared epoch
// loop; everything the remaining epochs produce (figure output, JSONL
// events, VMResults) is byte-identical to the uninterrupted run.
package scenario

import (
	"context"
	"encoding/json"
	"fmt"
	"os"

	"heteroos/internal/core"
	"heteroos/internal/obs"
	"heteroos/internal/snapshot"
	"heteroos/internal/vmm"
	"heteroos/internal/workload"
)

// metaKind tags scenario checkpoints so a snapshot written by another
// front-end fails fast instead of half-restoring.
const metaKind = "heteroos/scenario"

// resumeMeta is the scenario engine's checkpoint state, serialized as
// the snapshot's front-end meta blob.
type resumeMeta struct {
	Kind string `json:"kind"`
	// Scenario is the full script, embedded so a checkpoint file is
	// self-contained (resume needs no scenario file).
	Scenario *Scenario `json:"scenario"`
	// Epoch is the lockstep epoch the resumed loop re-enters at.
	Epoch int `json:"epoch"`
	// Consumed is how many expanded script actions were already applied.
	Consumed int `json:"consumed"`
	// Fired marks Epoch as an event epoch (a checkpoint event fired
	// mid-epoch before the snapshot was taken).
	Fired bool `json:"fired"`
	// Runs, Timeline, and the delta cursors reproduce the engine's
	// sampling state exactly.
	Runs        []*VMRun `json:"runs"`
	Timeline    []Sample `json:"timeline,omitempty"`
	PrevMove    uint64   `json:"prev_move"`
	PrevBallIn  uint64   `json:"prev_ball_in"`
	PrevRefuse  uint64   `json:"prev_refuse"`
	LastSampled int      `json:"last_sampled"`
}

// writeCheckpoint snapshots the engine and the system to path. The
// write is atomic (temp file + rename) so a crash mid-write never
// leaves a truncated checkpoint behind.
func (st *runState) writeCheckpoint(path string, nextEpoch int, fired bool) error {
	meta := resumeMeta{
		Kind:        metaKind,
		Scenario:    st.sc,
		Epoch:       nextEpoch,
		Consumed:    st.consumed,
		Fired:       fired,
		Runs:        st.runs,
		Timeline:    st.timeline,
		PrevMove:    st.prevMove,
		PrevBallIn:  st.prevBallIn,
		PrevRefuse:  st.prevRefuse,
		LastSampled: st.lastSampled,
	}
	blob, err := json.Marshal(&meta)
	if err != nil {
		return fmt.Errorf("checkpoint meta: %w", err)
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := st.sys.Checkpoint(f, blob); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("checkpoint: %w", err)
	}
	return nil
}

// vmDescByID finds the VMDesc that introduced a VM id, searching the
// epoch-0 set then the script's boot events.
func (sc *Scenario) vmDescByID(id int32) *VMDesc {
	for i := range sc.VMs {
		if sc.VMs[i].ID == id {
			return &sc.VMs[i]
		}
	}
	for i := range sc.Events {
		if e := &sc.Events[i]; e.Kind == KindBoot && e.Boot != nil && e.Boot.ID == id {
			return e.Boot
		}
	}
	return nil
}

// Resume continues a checkpointed scenario run from rd. The checkpoint
// is self-contained — the scenario script rides in the meta blob — so
// the only inputs are the snapshot and the run-time attachments (obs
// handle, further checkpoint options). The remaining epochs execute
// exactly as the uninterrupted run's would; the returned Result is
// identical to what the original Run would have returned.
func Resume(ctx context.Context, rd *snapshot.Reader, h *obs.Obs, ck CheckpointOptions) (*Result, error) {
	blob, err := core.Meta(rd)
	if err != nil {
		return nil, fmt.Errorf("scenario: resume: %w", err)
	}
	var meta resumeMeta
	if err := json.Unmarshal(blob, &meta); err != nil {
		return nil, fmt.Errorf("scenario: resume: decoding meta: %w", err)
	}
	if meta.Kind != metaKind {
		return nil, fmt.Errorf("scenario: resume: snapshot meta kind %q is not a scenario checkpoint", meta.Kind)
	}
	sc := meta.Scenario
	if sc == nil {
		return nil, fmt.Errorf("scenario: resume: checkpoint carries no scenario")
	}
	if err := sc.Validate(); err != nil {
		return nil, fmt.Errorf("scenario: resume: %w", err)
	}
	if ck.Every > 0 && ck.Path == "" {
		return nil, fmt.Errorf("scenario %q: periodic checkpoints need a path", sc.Name)
	}
	st := &runState{
		sc: sc, wraps: make(map[vmm.VMID]*workload.Surge),
		runs: meta.Runs, timeline: meta.Timeline,
		prevMove: meta.PrevMove, prevBallIn: meta.PrevBallIn, prevRefuse: meta.PrevRefuse,
		lastSampled: meta.LastSampled, consumed: meta.Consumed, ck: ck,
	}
	cfg, err := sc.baseConfig(h)
	if err != nil {
		return nil, err
	}
	// The restored system boots exactly the VMs live at checkpoint
	// time, in boot order (runs is boot-ordered; departed VMs come back
	// as result-only stubs from the snapshot's departed section).
	for _, r := range st.runs {
		if r.ShutdownEpoch >= 0 {
			continue
		}
		v := sc.vmDescByID(int32(r.ID))
		if v == nil {
			return nil, fmt.Errorf("scenario: resume: checkpointed VM %d not in script", r.ID)
		}
		vc, err := st.vmConfig(v)
		if err != nil {
			return nil, err
		}
		cfg.VMs = append(cfg.VMs, vc)
	}
	sys, err := core.RestoreSystem(rd, cfg)
	if err != nil {
		return nil, fmt.Errorf("scenario: resume: %w", err)
	}
	st.sys = sys

	actions := expandActions(sc.Events)
	if meta.Consumed < 0 || meta.Consumed > len(actions) {
		return nil, fmt.Errorf("scenario: resume: checkpoint consumed %d of %d script actions", meta.Consumed, len(actions))
	}
	return st.loop(ctx, meta.Epoch, actions[meta.Consumed:], meta.Fired)
}

// ResumeFile opens a checkpoint file and resumes it.
func ResumeFile(ctx context.Context, path string, h *obs.Obs, ck CheckpointOptions) (*Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: resume: %w", err)
	}
	defer f.Close()
	rd, err := snapshot.Open(f)
	if err != nil {
		return nil, fmt.Errorf("scenario: resume %s: %w", path, err)
	}
	return Resume(ctx, rd, h, ck)
}
