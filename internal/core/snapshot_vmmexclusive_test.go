package core

import (
	"bytes"
	"testing"

	"heteroos/internal/policy"
	"heteroos/internal/snapshot"
	"heteroos/internal/workload"
)

// TestSnapshotVMMExclusive pins the checkpoint/restore contract for the
// mode outside TestSnapshotRoundTripParity's coverage: a VMM-exclusive
// VM, whose migration state lives in the VMM rather than the guest.
// After restore, ten lockstep epochs must keep the full serialized
// state byte-identical; on divergence the test names the first
// checkpoint section to differ.
func TestSnapshotVMMExclusive(t *testing.T) {
	mk := func() *System {
		w, err := workload.ByName("writeheavy", workload.Config{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		sys, err := NewSystem(Config{
			FastFrames: 8192, SlowFrames: 32768,
			Seed: 7, MaxEpochs: 4096,
			VMs: []VMConfig{{
				ID: 4, Mode: policy.VMMExclusive(), Workload: w,
				FastPages: 2048, SlowPages: 8192,
			}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	sys := mk()
	for i := 0; i < 20; i++ {
		if _, err := sys.StepEpoch(); err != nil {
			t.Fatal(err)
		}
	}
	snapBytes := checkpointBytes(t, sys)
	rd, err := snapshot.Open(bytes.NewReader(snapBytes))
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreSystem(rd, mk().Cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := sys.StepEpoch(); err != nil {
			t.Fatal(err)
		}
		if _, err := restored.StepEpoch(); err != nil {
			t.Fatal(err)
		}
		a, b := checkpointBytes(t, sys), checkpointBytes(t, restored)
		if bytes.Equal(a, b) {
			continue
		}
		ra, _ := snapshot.Open(bytes.NewReader(a))
		rb, _ := snapshot.Open(bytes.NewReader(b))
		for _, name := range ra.Sections() {
			ba, _ := ra.Raw(name)
			bb, _ := rb.Raw(name)
			if !bytes.Equal(ba, bb) {
				off := 0
				for off < len(ba) && off < len(bb) && ba[off] == bb[off] {
					off++
				}
				t.Errorf("epoch +%d: section %q differs at offset %d (%d vs %d bytes)",
					i+1, name, off, len(ba), len(bb))
			}
		}
		t.FailNow()
	}
}
