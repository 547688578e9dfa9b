package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"heteroos/internal/memsim"
	"heteroos/internal/obs"
)

// eventful builds a scenario exercising every event kind alongside the
// checkpoint machinery: mid-run boot and shutdown, a surge window, a
// migration stall, a balloon refusal, and a throttle shift.
func eventful(name string, seed uint64) *Scenario {
	sc := contended(name, seed).WithMaxEpochs(48)
	sc.BootAt(6, VMDesc{
		ID: 4, App: "stream", Mode: "HeteroOS-coordinated",
		FastPages: 128, SlowPages: 1024,
	})
	sc.SurgeAt(8, 1, 10, 3)
	sc.MigrationStallAt(10, 2, 8)
	sc.BalloonRefusalAt(12, 3, 6)
	sc.ShutdownAt(18, 2)
	sc.ThrottleShiftAt(20, memsim.Throttle{L: 8, B: 12})
	return sc
}

// runWithEvents executes fn against a JSONL-sinked obs handle and
// returns the marshalled result (Sys excluded by its json:"-" tag) and
// the raw event stream.
func runWithEvents(t *testing.T, fn func(h *obs.Obs) (*Result, error)) (resultJSON, events []byte) {
	t.Helper()
	var buf bytes.Buffer
	h := obs.New()
	h.SetRunTag("ckpt")
	h.Tracer.AddSink(obs.NewJSONLSink(&buf, "ckpt"))
	r, err := fn(h)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Close(); err != nil {
		t.Fatal(err)
	}
	out, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return out, buf.Bytes()
}

// eventTail strips the JSONL meta header and returns the event lines.
func eventLines(b []byte) [][]byte {
	lines := bytes.Split(b, []byte("\n"))
	if len(lines) > 0 {
		lines = lines[1:] // meta header
	}
	return lines
}

// TestCheckpointNonPerturbation: a run with periodic checkpointing must
// produce results and an event stream byte-identical to a plain run of
// the same scenario — writing snapshots never alters the simulation.
func TestCheckpointNonPerturbation(t *testing.T) {
	dir := t.TempDir()
	plainRes, plainEv := runWithEvents(t, func(h *obs.Obs) (*Result, error) {
		return eventful("ckpt", 23).Run(context.Background(), h)
	})
	ckRes, ckEv := runWithEvents(t, func(h *obs.Obs) (*Result, error) {
		return eventful("ckpt", 23).RunWithCheckpoints(context.Background(), h,
			CheckpointOptions{Every: 7, Path: filepath.Join(dir, "latest.hosnap")})
	})
	if !bytes.Equal(plainRes, ckRes) {
		t.Errorf("results differ with checkpointing on:\n%s\nvs\n%s", plainRes, ckRes)
	}
	if !bytes.Equal(plainEv, ckEv) {
		t.Errorf("event streams differ with checkpointing on (%d vs %d bytes)", len(plainEv), len(ckEv))
	}
	if _, err := os.Stat(filepath.Join(dir, "latest.hosnap")); err != nil {
		t.Fatalf("no checkpoint written: %v", err)
	}
}

// TestResumeParity is the restore gold standard at the scenario level:
// resume a mid-run checkpoint and the remaining epochs must reproduce
// the uninterrupted run exactly — same Result JSON, and an event
// stream equal to the tail of the full run's.
func TestResumeParity(t *testing.T) {
	dir := t.TempDir()
	ckPath := filepath.Join(dir, "mid.hosnap")

	fullRes, fullEv := runWithEvents(t, func(h *obs.Obs) (*Result, error) {
		// A checkpoint event mid-script: after the surge started, while
		// the stall and refusal windows are open, before the shutdown.
		return eventful("ckpt", 23).CheckpointAt(14, ckPath).Run(context.Background(), h)
	})
	resumedRes, resumedEv := runWithEvents(t, func(h *obs.Obs) (*Result, error) {
		return ResumeFile(context.Background(), ckPath, h, CheckpointOptions{})
	})
	if !bytes.Equal(fullRes, resumedRes) {
		t.Errorf("resumed result differs from uninterrupted run:\n%s\nvs\n%s", fullRes, resumedRes)
	}
	full, resumed := eventLines(fullEv), eventLines(resumedEv)
	if len(resumed) == 0 || len(resumed) > len(full) {
		t.Fatalf("resumed stream has %d event lines, full has %d", len(resumed), len(full))
	}
	tail := full[len(full)-len(resumed):]
	for i := range resumed {
		if !bytes.Equal(tail[i], resumed[i]) {
			t.Fatalf("resumed event %d differs from full-run tail:\nfull    %s\nresumed %s",
				i, tail[i], resumed[i])
		}
	}
}

// TestResumeAcrossBackends checks checkpoint/restore of a scenario that
// names its backend: the name rides inside the checkpoint's embedded
// scenario, and the resumed run must rebuild the same backend and
// finish byte-identically — and identically to the unnamed default.
func TestResumeAcrossBackends(t *testing.T) {
	dir := t.TempDir()
	ckPath := filepath.Join(dir, "named.hosnap")
	mk := func(backend string) *Scenario {
		sc := eventful("ckpt-named", 31)
		sc.Backend = backend
		return sc
	}
	fullRes, _ := runWithEvents(t, func(h *obs.Obs) (*Result, error) {
		return mk(memsim.BackendAnalytic).CheckpointAt(21, ckPath).Run(context.Background(), h)
	})
	resumedRes, _ := runWithEvents(t, func(h *obs.Obs) (*Result, error) {
		return ResumeFile(context.Background(), ckPath, h, CheckpointOptions{})
	})
	if !bytes.Equal(fullRes, resumedRes) {
		t.Errorf("resumed named-backend result differs:\n%s\nvs\n%s", fullRes, resumedRes)
	}
	defaultRes, _ := runWithEvents(t, func(h *obs.Obs) (*Result, error) {
		return mk("").CheckpointAt(21, filepath.Join(dir, "default.hosnap")).Run(context.Background(), h)
	})
	if !bytes.Equal(fullRes, defaultRes) {
		t.Errorf("named analytic differs from the default backend:\n%s\nvs\n%s", fullRes, defaultRes)
	}
}

// TestResumeChainedCheckpoints resumes a run that itself keeps
// checkpointing, then resumes the second-generation checkpoint —
// checkpoints of resumed runs must be as good as first-generation ones.
func TestResumeChainedCheckpoints(t *testing.T) {
	dir := t.TempDir()
	first := filepath.Join(dir, "first.hosnap")
	second := filepath.Join(dir, "second.hosnap")

	fullRes, _ := runWithEvents(t, func(h *obs.Obs) (*Result, error) {
		return eventful("ckpt", 23).CheckpointAt(9, first).CheckpointAt(25, second).Run(context.Background(), h)
	})
	// Resume the first checkpoint; it re-writes the second on its way.
	if err := os.Remove(second); err != nil {
		t.Fatal(err)
	}
	midRes, _ := runWithEvents(t, func(h *obs.Obs) (*Result, error) {
		return ResumeFile(context.Background(), first, h, CheckpointOptions{})
	})
	if !bytes.Equal(fullRes, midRes) {
		t.Errorf("first-generation resume differs from full run")
	}
	lastRes, _ := runWithEvents(t, func(h *obs.Obs) (*Result, error) {
		return ResumeFile(context.Background(), second, h, CheckpointOptions{})
	})
	if !bytes.Equal(fullRes, lastRes) {
		t.Errorf("second-generation resume differs from full run")
	}
}

// TestResumeRejectsForeignMeta feeds Resume a snapshot whose meta blob
// is not a scenario checkpoint.
func TestResumeRejectsForeignMeta(t *testing.T) {
	if _, err := ResumeFile(context.Background(), filepath.Join(t.TempDir(), "absent.hosnap"), nil, CheckpointOptions{}); err == nil {
		t.Fatal("resuming a missing file succeeded")
	}
}
