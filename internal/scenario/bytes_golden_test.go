package scenario

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"runtime"
	"testing"
)

// checkpointSHA256 pins the exact bytes of a checkpoint of each bundled
// scenario taken at epoch 20 (after churn's second boot, inside
// degrade's throttle shift). Any change to the snapshot codec, a
// section writer, or the simulated state it captures moves a hash; a
// deliberate format change bumps snapshot.Version and re-pins these.
var checkpointSHA256 = map[string]string{
	"churn.json":   "35a0282963596fc9d95f47fbc896dc7219a38c6f433bff2a30ae001c8faf254e",
	"degrade.json": "be3710b76dae46f7aa498b7389903a8ecaf01ce1813e8d64709c1c47e1e418e2",
}

func TestCheckpointBytesPinned(t *testing.T) {
	// The checkpoint path rides inside the embedded script, so it must
	// be the same relative name on every machine.
	t.Chdir(t.TempDir())
	for _, name := range Bundled() {
		want, ok := checkpointSHA256[name]
		if !ok {
			t.Errorf("bundled scenario %s has no pinned checkpoint hash", name)
			continue
		}
		sc, err := LoadBundled(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sc.CheckpointAt(20, "pinned.snap").Run(context.Background(), nil); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		raw, err := os.ReadFile("pinned.snap")
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(raw)
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s: checkpoint sha256 = %s (%d bytes), want %s", name, got, len(raw), want)
		}
	}
}

// TestCheckpointSteadyStateAllocs: once the codec's pooled section
// buffer is warm, checkpointing an unchanged System allocates less than
// 1% of the bytes it writes — the encoder's cost is the state it
// serializes, not buffer growth. The pool keeps buffers per P, so the
// test runs on one P: a goroutine that moved to another P between the
// two checkpoints would find that P's pool empty and regrow a buffer.
func TestCheckpointSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled buffers at random, so reuse cannot be measured")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	sc, err := LoadBundled("churn.json")
	if err != nil {
		t.Fatal(err)
	}
	res, err := sc.WithMaxEpochs(24).Run(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Sys.Checkpoint(io.Discard, nil); err != nil {
		t.Fatal(err)
	}
	var n countingWriter
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = res.Sys.Checkpoint(&n, nil)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	if n == 0 || alloc*100 >= uint64(n) {
		t.Fatalf("second checkpoint allocated %d bytes for %d written (bound: under 1%%)", alloc, n)
	}
}

// countingWriter discards what it is given and counts the bytes.
type countingWriter int64

func (c *countingWriter) Write(p []byte) (int, error) {
	*c += countingWriter(len(p))
	return len(p), nil
}
