package main

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"heteroos/internal/fleet"
	"heteroos/internal/scenario"
)

type benchmarkJSON struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestMetricListsMatchBenchmarkJSON pins the metric names and units the
// binary reports to the ones BENCHMARK.json declares.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	check := func(kind string, declared []struct{ Name, Unit string }, defs []metricDef) {
		if len(declared) != len(defs) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark reports %d", kind, len(declared), len(defs))
			return
		}
		for i, d := range defs {
			if declared[i].Name != d.name || declared[i].Unit != d.unit {
				t.Errorf("%s metric %d: BENCHMARK.json has %s [%s], the benchmark reports %s [%s]",
					kind, i, declared[i].Name, declared[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}

// TestInputsParse checks that the benchmark's own fleet and scenario
// inputs load and name the analytic backend.
func TestInputsParse(t *testing.T) {
	fl, err := fleet.Parse(fleetMixJSON)
	if err != nil {
		t.Fatal(err)
	}
	if fl.Host.Backend != "analytic" {
		t.Errorf("fleet-mix backend %q, want analytic named explicitly", fl.Host.Backend)
	}
	sc, err := scenario.Parse(scenarioCkptJSON)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Backend != "" && sc.Backend != "analytic" {
		t.Errorf("scenario-ckpt backend %q, want analytic", sc.Backend)
	}
	checkpoints := 0
	for _, e := range sc.Events {
		if e.Kind == scenario.KindCheckpoint {
			checkpoints++
		}
	}
	if checkpoints != 1 {
		t.Errorf("scenario-ckpt has %d checkpoint events, want exactly 1 (the mid-run resume point)", checkpoints)
	}
}

// TestWorkloadsTiny runs every workload at a tiny size in both modes and
// checks that the run is correct and reports exactly the declared
// metrics with their units.
func TestWorkloadsTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	tinyScenario, err := os.ReadFile(filepath.Join("testdata", "scenario-tiny.json"))
	if err != nil {
		t.Fatal(err)
	}
	tinyFleet, err := os.ReadFile(filepath.Join("testdata", "fleet-tiny.json"))
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("..", "testdata", "backend", "figure9_quick.csv")
	cases := []struct {
		name string
		make func(dir string) bench
	}{
		{"single-graphchi", func(string) bench { return &singleGraphChi{seed: 3, scale: 512} }},
		{"fig9-sweep", func(string) bench { return &fig9Sweep{seed: 1, golden: golden} }},
		{"fleet-mix", func(string) bench { return &fleetMix{seed: 3, script: tinyFleet} }},
		{"scenario-ckpt", func(dir string) bench { return &scenarioCkpt{seed: 3, script: tinyScenario, dir: dir} }},
	}
	for _, c := range cases {
		for _, traced := range []bool{false, true} {
			dir := t.TempDir()
			o := options{workload: c.name, seed: 3, seconds: 1e-3, trace: traced, out: dir}
			res, err := measure(c.make(dir), o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", c.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", c.name, traced, res.Correct, res.Attempted, res.Failed)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			var want, got []string
			for _, d := range defs {
				want = append(want, d.name+" ["+d.unit+"]")
			}
			for name, m := range res.Metrics {
				got = append(got, name+" ["+m.Unit+"]")
			}
			sort.Strings(want)
			sort.Strings(got)
			if strings.Join(want, ",") != strings.Join(got, ",") {
				t.Errorf("%s trace=%v: metrics\n got %v\nwant %v", c.name, traced, got, want)
			}
			if !traced {
				for _, d := range endToEnd {
					if res.Metrics[d.name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %v, want > 0", c.name, d.name, res.Metrics[d.name].Value)
					}
				}
			}
		}
	}
}

// TestCorruptedGoldenFails checks that the figure-9 check fails on a
// golden that differs from the simulator's output, both on the measured
// seed-1 path and on the separate seed-1 sweep other seeds run.
func TestCorruptedGoldenFails(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the figure-9 sweep")
	}
	want, err := os.ReadFile(filepath.Join("..", "testdata", "backend", "figure9_quick.csv"))
	if err != nil {
		t.Fatal(err)
	}
	corrupt := filepath.Join(t.TempDir(), "figure9_quick.csv")
	if err := os.WriteFile(corrupt, []byte(strings.Replace(string(want), "82.80", "82.81", 1)), 0o644); err != nil {
		t.Fatal(err)
	}

	b := &fig9Sweep{seed: 1, golden: corrupt}
	it := &iteration{}
	b.prepare(it)
	b.iterate(it)
	if it.failed != 1 {
		t.Errorf("seed 1 against a corrupted golden: %d failed operations, want 1", it.failed)
	}

	b = &fig9Sweep{seed: 2, golden: corrupt}
	it = &iteration{}
	b.prepare(it)
	if it.failed != 1 {
		t.Errorf("seed 2 against a corrupted golden: %d failed operations, want 1", it.failed)
	}
}

// TestKnownDefectVMMExclusiveMigration records a simulator defect the
// benchmark found: VMM-exclusive migration promotes pages into FastMem
// without regard to the VM's FastMem span, and cross-host live
// migration then refuses to adopt the larger footprint. fleet-mix sizes
// its VMM-exclusive Redis VMs with a FastMem span covering their whole
// footprint because of it. When this test starts failing, the defect is
// fixed: shrink Redis in inputs/fleet-mix.json to the 1/4 FastMem share
// the other apps use, and delete this test.
func TestKnownDefectVMMExclusiveMigration(t *testing.T) {
	sc, err := fleet.LoadFile(filepath.Join("testdata", "fleet-vmm-exclusive-migration.json"))
	if err != nil {
		t.Fatal(err)
	}
	_, err = fleet.Run(context.Background(), sc, fleet.Options{Workers: 1})
	if err == nil || !strings.Contains(err.Error(), "exceeds reservation") {
		t.Fatalf("fleet run error %v, want the FastMem reservation refusal", err)
	}
}
