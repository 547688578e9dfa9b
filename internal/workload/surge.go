package workload

import (
	"fmt"

	"heteroos/internal/guestos"
	"heteroos/internal/snapshot"
)

// Surge wraps a workload so a surge window can multiply its demand:
// while Active, Step runs the inner workload Factor times per epoch (a
// hog VM allocating and touching at a multiple of its steady rate).
// Inactive, it is a single branch. Scenario and fleet VMs both run
// wrapped, and the scenario/fleet engines flip Active and Factor as
// their scripts open and close surge windows.
//
// Surge implements Snapshotter, which is what makes wrapped VMs
// checkpointable and migratable: the window state plus the inner
// workload's cursor are captured, and a freshly built wrapper restores
// both — a surging VM keeps surging after a restore or a migration.
type Surge struct {
	inner Workload
	// Factor is the demand multiple applied while Active.
	Factor int
	Active bool
	// done records whether the inner workload ran to completion, which
	// distinguishes "finished" from "shut down mid-run" in the result.
	done bool
}

// NewSurge wraps w with its surge window closed.
func NewSurge(w Workload) *Surge { return &Surge{inner: w, Factor: 1} }

// Done reports whether the inner workload ran to completion.
func (w *Surge) Done() bool { return w.done }

func (w *Surge) Profile() Profile { return w.inner.Profile() }

func (w *Surge) Init(os *guestos.OS) error { return w.inner.Init(os) }

func (w *Surge) Step(os *guestos.OS) (uint64, bool) {
	steps := 1
	if w.Active && w.Factor > 1 {
		steps = w.Factor
	}
	var instr uint64
	var done bool
	for i := 0; i < steps && !done; i++ {
		var n uint64
		n, done = w.inner.Step(os)
		instr += n
	}
	if done {
		w.done = true
	}
	return instr, done
}

// SnapshotState implements Snapshotter: the surge window state plus the
// wrapped workload's own progress. Core refuses to checkpoint a
// workload that cannot be restored, so the inner-snapshotter presence
// bit lets that refusal surface as a decode error instead of silence.
func (w *Surge) SnapshotState(e *snapshot.Encoder) {
	e.Bool(w.Active)
	e.Int(w.Factor)
	e.Bool(w.done)
	ws, ok := w.inner.(Snapshotter)
	e.Bool(ok)
	if ok {
		ws.SnapshotState(e)
	}
}

// RestoreState implements Snapshotter.
func (w *Surge) RestoreState(d *snapshot.Decoder, os *guestos.OS) error {
	w.Active = d.Bool()
	w.Factor = d.Int()
	w.done = d.Bool()
	if !d.Bool() {
		return fmt.Errorf("workload: saved %T state was taken without snapshot support", w.inner)
	}
	ws, ok := w.inner.(Snapshotter)
	if !ok {
		return fmt.Errorf("workload: %T cannot restore saved state", w.inner)
	}
	return ws.RestoreState(d, os)
}
