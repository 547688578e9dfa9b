package scenario

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"heteroos/internal/memsim"
	"heteroos/internal/snapshot"
)

// TestResumeChurnSections pins scenario resume at section level: the
// bundled churn scenario, with its backend selected by name, must,
// after resuming a mid-run checkpoint, re-emit byte-identical
// snapshots at every later checkpoint event. On failure the test names
// the first section whose bytes diverge between the uninterrupted run
// and the resumed one.
func TestResumeChurnSections(t *testing.T) {
	dir := t.TempDir()
	p := func(tag string, ep int) string {
		return filepath.Join(dir, tag+"-"+string(rune('0'+ep/10))+string(rune('0'+ep%10))+".snap")
	}
	mk := func(tag string) *Scenario {
		sc, err := LoadBundled("churn.json")
		if err != nil {
			t.Fatal(err)
		}
		sc.Backend = memsim.BackendAnalytic
		for ep := 52; ep <= 55; ep++ {
			sc.CheckpointAt(ep, p(tag, ep))
		}
		return sc
	}
	ctx := context.Background()
	if _, err := mk("full").Run(ctx, nil); err != nil {
		t.Fatal(err)
	}
	// Resume the epoch-52 checkpoint under the "resumed" tag; its
	// re-fired checkpoint events need the resumed paths, so rewrite
	// them by running a scenario whose events carry the resumed paths —
	// Resume replays the original script, so instead copy the file and
	// resume it, letting the re-fired events overwrite the full-run
	// snapshots of epochs 53..55 after saving them aside.
	var fullCk [56][]byte
	for ep := 53; ep <= 55; ep++ {
		b, err := os.ReadFile(p("full", ep))
		if err != nil {
			t.Fatal(err)
		}
		fullCk[ep] = b
	}
	if _, err := ResumeFile(ctx, p("full", 52), nil, CheckpointOptions{}); err != nil {
		t.Fatal(err)
	}
	for ep := 53; ep <= 55; ep++ {
		resumed, err := os.ReadFile(p("full", ep))
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(fullCk[ep], resumed) {
			continue
		}
		ra, _ := snapshot.Open(bytes.NewReader(fullCk[ep]))
		rb, _ := snapshot.Open(bytes.NewReader(resumed))
		for _, name := range ra.Sections() {
			ba, _ := ra.Raw(name)
			bb, okB := rb.Raw(name)
			if !okB {
				t.Errorf("epoch %d: resumed snapshot lacks section %q", ep, name)
				continue
			}
			if !bytes.Equal(ba, bb) {
				off := 0
				for off < len(ba) && off < len(bb) && ba[off] == bb[off] {
					off++
				}
				t.Errorf("epoch %d: section %q differs at offset %d (%d vs %d bytes)",
					ep, name, off, len(ba), len(bb))
			}
		}
		t.FailNow()
	}
}
