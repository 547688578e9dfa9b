// Command perfbench is the repository benchmark for the HeteroOS
// simulator. One invocation runs one named workload, closed-loop, for a
// fixed host-time budget: it repeats the workload from set-up to checked
// result until the budget is spent, then prints one JSON object as the
// last line of standard output.
//
//	perfbench --workload single-graphchi --seed 1 --seconds 20 --trace 0
//
// With --trace 0 every iteration runs uninstrumented and the result
// holds the end-to-end metrics (medians over iterations). With --trace 1
// plain and traced iterations alternate and the result holds the
// per-layer metrics: spans recorded around calls into the simulator's
// public entry points and decorators of its public interfaces (see
// trace.go). Nothing inside the simulator is changed to measure it.
//
// The workload seed overrides every seed the inputs carry (core config,
// exp options, fleet script, scenario script). Every iteration checks
// the simulated outputs; a failed check, a guest panic, a lost VM or a
// run error counts as a failed operation and makes "correct" false.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit. The lists below
// are the benchmark's contract; BENCHMARK.json at the repository root
// mirrors them (perfbench_test.go checks that they agree).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"vm_epochs_per_s", "vm_epochs/s"},
	{"peak_rss_mb", "MB"},
	{"alloc_mb", "MB"},
	{"sim_runtime_s", "sim_s"},
	{"fast_traffic_pct", "%"},
}

var perLayer = []metricDef{
	{"workload.init_ns", "ns"},
	{"workload.step_ns", "ns"},
	{"workload.step_ns.p50", "ns"},
	{"workload.step_ns.p90", "ns"},
	{"workload.touches", "count"},
	{"workload.step_ns_per_touch", "ns/touch"},
	{"guestos.faults", "count"},
	{"guestos.demotions", "count"},
	{"guestos.promotions", "count"},
	{"guestos.cache_evictions", "count"},
	{"guestos.fast_alloc_miss_ratio", "ratio"},
	{"core.new_system_ns", "ns"},
	{"core.step_epoch_ns.p50", "ns"},
	{"core.step_epoch_ns.p90", "ns"},
	{"core.step_other_ns", "ns"},
	{"core.check_invariants_ns", "ns"},
	{"vmm.scan_passes", "count"},
	{"vmm.migrations", "count"},
	{"vmm.promotions_per_pass", "pages/pass"},
	{"vmm.scan_sim_s", "sim_s"},
	{"memsim.charge_calls", "count"},
	{"memsim.charge_ns", "ns"},
	{"memsim.charge_ns_per_call", "ns"},
	{"memsim.mpki_ns", "ns"},
	{"runner.cells", "count"},
	{"runner.cell_ns.p50", "ns"},
	{"runner.cell_ns.max", "ns"},
	{"runner.busy_frac", "ratio"},
	{"runner.critical_cell_share", "ratio"},
	{"fleet.new_cluster_ns", "ns"},
	{"fleet.round_ns.p50", "ns"},
	{"fleet.round_ns.max", "ns"},
	{"fleet.result_ns", "ns"},
	{"fleet.heap_bytes_per_host", "B"},
	{"fleet.migrations", "count"},
	{"fleet.evacuations", "count"},
	{"fleet.lost_vms", "count"},
	{"fleet.vm_epochs", "count"},
	{"scenario.run_ns", "ns"},
	{"scenario.resume_ns", "ns"},
	{"snapshot.checkpoint_bytes", "B"},
	{"snapshot.checkpoints", "count"},
	{"go.mallocs", "count"},
	{"go.gc_cycles", "count"},
	{"phase.workload.wall_ns", "ns"},
	{"phase.balance.wall_ns", "ns"},
	{"phase.scan.wall_ns", "ns"},
	{"phase.rank.wall_ns", "ns"},
	{"phase.migrate.wall_ns", "ns"},
	{"phase.charge.wall_ns", "ns"},
	{"trace.overhead_pct", "%"},
}

// minIterations is the fewest iterations of each kind a run measures,
// whatever its budget, so every reported median has samples to stand on.
const minIterations = 3

// workers is the sweep-cell and fleet-host concurrency: the benchmark
// box has two CPUs, and more workers would measure the scheduler.
const workers = 2

// bench is one named workload.
type bench interface {
	// prepare runs once before measuring, for checks that need no
	// timing (fig9-sweep's golden comparison at seed 1).
	prepare(it *iteration)
	// iterate runs the workload once, from set-up to checked result,
	// filling it. Traced iterations (it.tr != nil) also fill it.layers.
	iterate(it *iteration)
}

// iteration is the outcome of one run of a workload.
type iteration struct {
	tr *tracer // nil in plain iterations

	setupNs  float64 // input parsing plus system construction
	wallNs   float64 // first simulated epoch to checked result
	vmEpochs float64
	simNs    float64 // Σ simulated runtime over the workload's VMs
	fastMiss float64 // Σ FastMem LLC misses
	allMiss  float64 // Σ LLC misses over both tiers

	// digest hashes every simulated statistic; summary is a readable
	// line of the same outcome.
	digest, summary string

	ops, failed int
	layers      map[string]float64

	allocBytes, mallocs, gcCycles float64
}

// op counts one operation and, when it failed, reports why.
func (it *iteration) op(ok bool, format string, args ...interface{}) bool {
	it.ops++
	if !ok {
		it.failed++
		fmt.Fprintf(os.Stderr, "perfbench: failed: "+format+"\n", args...)
	}
	return ok
}

// fail counts n operations that could not run because an earlier step
// of the iteration failed with err.
func (it *iteration) fail(n int, what string, err error) {
	if n < 1 {
		n = 1
	}
	it.ops += n
	it.failed += n
	fmt.Fprintf(os.Stderr, "perfbench: failed: %s: %v\n", what, err)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// out holds the spans file and scratch checkpoints.
	out string
}

// goldenCSV is the committed figure-9 quick CSV, relative to the
// repository root the benchmark runs from.
const goldenCSV = "testdata/backend/figure9_quick.csv"

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload: single-graphchi, fig9-sweep, fleet-mix or scenario-ckpt")
	flag.Uint64Var(&o.seed, "seed", 1, "workload seed (overrides every seed in the inputs)")
	flag.Float64Var(&o.seconds, "seconds", 20, "host-time budget to measure for")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from traced iterations")
	flag.Parse()
	o.out = filepath.Join(".bench_build", "perfbench")
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	o.trace = traceFlag == 1
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// newBench resolves a workload name.
func newBench(o options, scratch string) (bench, error) {
	switch o.workload {
	case "single-graphchi":
		return &singleGraphChi{seed: o.seed}, nil
	case "fig9-sweep":
		return &fig9Sweep{seed: o.seed, golden: goldenCSV}, nil
	case "fleet-mix":
		return &fleetMix{seed: o.seed, script: fleetMixJSON}, nil
	case "scenario-ckpt":
		return &scenarioCkpt{seed: o.seed, script: scenarioCkptJSON, dir: scratch}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want single-graphchi, fig9-sweep, fleet-mix or scenario-ckpt)", o.workload)
}

// run measures one workload and assembles its result.
func run(o options) (*result, error) {
	if o.seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(o.out, "scratch-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	b, err := newBench(o, scratch)
	if err != nil {
		return nil, err
	}
	return measure(b, o)
}

func measure(b bench, o options) (*result, error) {
	pre := &iteration{}
	b.prepare(pre)
	attempted, failed := pre.ops, pre.failed

	var plain, traced []*iteration
	var lastTracer *tracer
	budget := time.Duration(o.seconds * float64(time.Second))
	start := time.Now()
	for i := 0; ; i++ {
		enough := len(plain) >= minIterations && (!o.trace || len(traced) >= minIterations)
		if enough && time.Since(start) >= budget {
			break
		}
		it := &iteration{}
		if o.trace && i%2 == 1 {
			it.tr = newTracer()
			it.layers = make(map[string]float64)
		}
		runIteration(b, it)
		fmt.Fprintf(os.Stderr, "perfbench: iteration %d traced=%v set-up %.6fs wall %.6fs\n", i, it.tr != nil, it.setupNs/1e9, it.wallNs/1e9)
		attempted += it.ops
		failed += it.failed
		if it.tr != nil {
			traced = append(traced, it)
			lastTracer = it.tr
		} else {
			plain = append(plain, it)
		}
		if it.failed > 0 {
			// A failing workload fails the same way again; measuring
			// it further says nothing.
			break
		}
	}

	// Determinism: every iteration must reproduce the first one's
	// simulated statistics exactly.
	all := append(append([]*iteration(nil), plain...), traced...)
	ref := all[0]
	for _, it := range all[1:] {
		attempted++
		if it.digest != ref.digest {
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: failed: simulated outcome differs between iterations (%s vs %s)\n", ref.digest, it.digest)
		}
	}
	fmt.Printf("digest %s seed=%d sha256=%s\n", o.workload, o.seed, ref.digest)
	fmt.Printf("outcome %s seed=%d %s\n", o.workload, o.seed, ref.summary)

	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	if failed > 0 {
		// A failed run still reports every metric, from what it has.
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d operations failed\n", failed, attempted)
	}
	if !o.trace {
		wall := median(field(plain, func(it *iteration) float64 { return it.wallNs })) / 1e9
		vals := map[string]float64{
			"wall_s":           wall,
			"setup_s":          median(field(plain, func(it *iteration) float64 { return it.setupNs })) / 1e9,
			"vm_epochs_per_s":  ratio(ref.vmEpochs, wall),
			"peak_rss_mb":      peakRSSBytes() / 1e6,
			"alloc_mb":         median(field(plain, func(it *iteration) float64 { return it.allocBytes })) / 1e6,
			"sim_runtime_s":    ref.simNs / 1e9,
			"fast_traffic_pct": 100 * ratio(ref.fastMiss, ref.allMiss),
		}
		for _, d := range endToEnd {
			res.Metrics[d.name] = metric{Value: vals[d.name], Unit: d.unit}
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d iterations, median wall %.4fs\n", o.workload, len(plain), wall)
		return res, nil
	}

	vals := make(map[string]float64)
	for _, d := range perLayer {
		vals[d.name] = 0 // not measured on this workload
	}
	keys := make(map[string]bool)
	for _, it := range traced {
		for k := range it.layers {
			keys[k] = true
		}
	}
	for k := range keys {
		vals[k] = median(field(traced, func(it *iteration) float64 { return it.layers[k] }))
	}
	vals["go.mallocs"] = median(field(plain, func(it *iteration) float64 { return it.mallocs }))
	vals["go.gc_cycles"] = median(field(plain, func(it *iteration) float64 { return it.gcCycles }))
	plainWall := median(field(plain, func(it *iteration) float64 { return it.wallNs }))
	tracedWall := median(field(traced, func(it *iteration) float64 { return it.wallNs }))
	vals["trace.overhead_pct"] = 100 * (ratio(tracedWall, plainWall) - 1)
	for _, d := range perLayer {
		res.Metrics[d.name] = metric{Value: vals[d.name], Unit: d.unit}
	}
	for k := range vals {
		if _, ok := res.Metrics[k]; !ok {
			return nil, fmt.Errorf("workload reported per-layer metric %q that the benchmark does not define", k)
		}
	}
	if lastTracer != nil {
		path := filepath.Join(o.out, "spans-"+o.workload+".jsonl")
		if err := lastTracer.writeFile(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "perfbench: spans of the last traced iteration written to %s\n", path)
	}
	return res, nil
}

// runIteration runs one iteration with the heap settled beforehand and
// records the Go runtime's allocation counters across it.
func runIteration(b bench, it *iteration) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b.iterate(it)
	runtime.ReadMemStats(&m1)
	it.allocBytes = float64(m1.TotalAlloc - m0.TotalAlloc)
	it.mallocs = float64(m1.Mallocs - m0.Mallocs)
	it.gcCycles = float64(m1.NumGC - m0.NumGC)
}

// peakRSSBytes is the process's peak resident set size.
func peakRSSBytes() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 // Linux reports KiB
}

func field(its []*iteration, f func(*iteration) float64) []float64 {
	out := make([]float64, len(its))
	for i, it := range its {
		out[i] = f(it)
	}
	return out
}

// median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile interpolates linearly between the order statistics of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// since is the host time elapsed from t0, in ns.
func since(t0 time.Time) float64 { return float64(time.Since(t0)) }

// timePerCall reports the median per-call host time of fn over batches
// of calls, for set-up steps too short to time one at a time.
func timePerCall(fn func() error) (float64, error) {
	const batches, calls = 15, 64
	per := make([]float64, 0, batches)
	for b := 0; b < batches; b++ {
		t0 := time.Now()
		for c := 0; c < calls; c++ {
			if err := fn(); err != nil {
				return 0, err
			}
		}
		per = append(per, since(t0)/calls)
	}
	return median(per), nil
}
