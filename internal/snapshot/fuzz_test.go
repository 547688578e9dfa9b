package snapshot_test

import (
	"bytes"
	"os"
	"testing"

	"heteroos/internal/core"
	"heteroos/internal/policy"
	"heteroos/internal/snapshot"
	"heteroos/internal/workload"
)

// smallCheckpoint is a real System checkpoint: one small coordinated
// memlat VM two epochs in, every section the core writer emits.
func smallCheckpoint(tb testing.TB) []byte {
	tb.Helper()
	w, err := workload.ByName("memlat", workload.Config{Seed: 3, Scale: 4096})
	if err != nil {
		tb.Fatal(err)
	}
	sys, err := core.NewSystem(core.Config{
		FastFrames: 512, SlowFrames: 1024, Seed: 3, MaxEpochs: 100,
		VMs: []core.VMConfig{{ID: 1, Mode: policy.HeteroOSCoordinated(), Workload: w, FastPages: 128, SlowPages: 512}},
	})
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := sys.StepEpoch(); err != nil {
			tb.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := sys.Checkpoint(&buf, nil); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// drain reads b with a Decoder in an order the bytes themselves choose,
// until the first error, so every primitive's bounds checks meet
// hostile lengths. Every read consumes at least one byte, so it ends.
func drain(b []byte) {
	d := snapshot.NewDecoder(b)
	for d.Err() == nil {
		switch d.U8() % 10 {
		case 0:
			d.Bool()
		case 1:
			d.U16()
		case 2:
			d.U32()
		case 3:
			d.F64()
		case 4:
			d.Bytes()
		case 5:
			d.Str()
		case 6:
			d.U64s()
		case 7:
			d.F64s()
		case 8:
			var v any
			_ = d.JSON(&v)
		case 9:
			d.Len()
		}
	}
}

// FuzzOpenBytes feeds raw bytes to the snapshot reader, which also
// parses every VM image: each input must either be rejected with an
// error or open into sections that decode (to data or to a decode
// error) without a panic. Inputs that once crashed live under
// testdata/fuzz/FuzzOpenBytes.
func FuzzOpenBytes(f *testing.F) {
	v1, err := os.ReadFile("testdata/v1-empty.snap")
	if err != nil {
		f.Fatal(err)
	}
	ck := smallCheckpoint(f)
	if _, err := snapshot.OpenBytes(ck); err != nil {
		f.Fatalf("seed checkpoint does not open: %v", err)
	}
	f.Add(v1)
	f.Add(ck)
	f.Fuzz(func(t *testing.T, data []byte) {
		drain(data)
		r, err := snapshot.OpenBytes(data)
		if err != nil {
			return
		}
		for _, name := range r.Sections() {
			raw, ok := r.Raw(name)
			if !ok || !r.Has(name) {
				t.Fatalf("listed section %q is missing", name)
			}
			if _, err := r.Section(name); err != nil {
				t.Fatalf("listed section %q: %v", name, err)
			}
			drain(raw)
		}
	})
}
