// Command heterosim runs a single VM simulation: one application under
// one management mode at a chosen FastMem:SlowMem shape, and prints a
// detailed result breakdown.
//
// Usage:
//
//	heterosim -app GraphChi -mode HeteroOS-coordinated -ratio 4
//	heterosim -app LevelDB -mode Heap-IO-Slab-OD -ratio 8 -seed 7
//	heterosim -modes                    # list mode names
//
// Scenario mode replaces the single fixed VM with a timed script of VM
// arrivals, departures, surges, and fault injections (see
// internal/scenario). The file is a JSON scenario; the bundled ones
// (churn.json, degrade.json) resolve by name from any directory:
//
//	heterosim -scenario churn.json
//	heterosim -scenario degrade.json -events=out.jsonl
//	heterosim -scenarios                # list bundled scenarios
//
// Fleet mode (see DESIGN.md §5j) simulates a whole datacenter instead
// of one host: N hosts advance in lock-step rounds with cross-host VM
// live migration, pluggable placement policies, and host failures with
// mass evacuation. Results are byte-identical for any -workers value:
//
//	heterosim -fleet fleet-churn.json
//	heterosim -fleet fleet-churn-1k.json -workers 8
//	heterosim -fleets                   # list bundled fleet scripts
//
// Checkpoint/restore (see DESIGN.md §5g): periodic checkpoints write
// the full system + engine state; -restore resumes one and produces
// output byte-identical to the uninterrupted run's remainder:
//
//	heterosim -scenario churn.json -checkpoint-every 16 -checkpoint-path churn.hosnap
//	heterosim -restore churn.hosnap
//
// Exit codes: 0 success, 2 usage or unloadable input, 3 runtime
// failure, 130 interrupted.
//
// Observability:
//
//	heterosim -events=out.jsonl         # structured event stream (JSONL; analyze with heterotrace)
//	heterosim -chrome-trace=out.trace   # Perfetto / chrome://tracing export
//	heterosim -metrics=out.csv          # end-of-run metrics snapshot
//	heterosim -trace -format=csv        # per-epoch series as CSV
//	heterosim -profile-epochs           # per-phase epoch cost breakdown (sim + wall)
//	heterosim -listen :9090             # live /metrics (OpenMetrics) + /snapshot.json
//
// Machine-model backends (see DESIGN.md §5f): runs price through the
// analytic Table-3 model; a recorded epoch stream can stand in for it:
//
//	heterosim -record-trace run.jsonl            # record the epoch stream
//	heterosim -replay-trace run.jsonl            # replay a recorded stream
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"

	"heteroos/internal/core"
	"heteroos/internal/fleet"
	"heteroos/internal/memsim"
	"heteroos/internal/obs"
	"heteroos/internal/policy"
	"heteroos/internal/scenario"
	"heteroos/internal/snapshot"
	"heteroos/internal/workload"

	"heteroos/internal/metrics"
)

func main() {
	var (
		app       = flag.String("app", "GraphChi", "application (Table 2 name, or memlat/stream)")
		modeName  = flag.String("mode", "HeteroOS-coordinated", "management mode (Table 5 / baseline name)")
		ratio     = flag.Int("ratio", 4, "SlowMem:FastMem capacity ratio denominator (fast = 8GiB/ratio)")
		seed      = flag.Uint64("seed", 1, "simulation seed")
		listModes = flag.Bool("modes", false, "list mode names and exit")
		scenarioF = flag.String("scenario", "", "run a JSON scenario file (bundled names resolve from any directory)")
		listScens = flag.Bool("scenarios", false, "list bundled scenario names and exit")
		fleetF    = flag.String("fleet", "", "run a JSON fleet script (bundled names resolve from any directory)")
		listFlts  = flag.Bool("fleets", false, "list bundled fleet script names and exit")
		workersF  = flag.Int("workers", 0, "fleet host-stepping goroutines (0 = GOMAXPROCS); any value yields the identical result")
		trace     = flag.Bool("trace", false, "print a per-epoch time series")
		format    = flag.String("format", "text", "trace/metrics table format: text, csv, or markdown")
		events    = flag.String("events", "", "write structured events as JSON lines to this file")
		chrome    = flag.String("chrome-trace", "", "write a Chrome trace_event export (Perfetto-loadable) to this file")
		metricsF  = flag.String("metrics", "", "write an end-of-run metrics snapshot (CSV) to this file")
		recordF   = flag.String("record-trace", "", "record the per-epoch (charge, cost) stream as JSONL to this file")
		replayF   = flag.String("replay-trace", "", "replay a recorded JSONL epoch stream (selects the replay backend)")
		ckEvery   = flag.Int("checkpoint-every", 0, "write a scenario checkpoint after every N epochs (needs -scenario or -restore)")
		ckPath    = flag.String("checkpoint-path", "", "checkpoint destination file for -checkpoint-every")
		restoreF  = flag.String("restore", "", "resume a scenario checkpoint file and run it to completion")
		profileF  = flag.Bool("profile-epochs", false, "record per-phase epoch costs (sim + wall) and print a phase breakdown table")
		listenF   = flag.String("listen", "", "serve live /metrics (OpenMetrics) and /snapshot.json on this address during the run")
	)
	flag.Parse()

	if *listModes {
		for _, m := range policy.All() {
			fmt.Printf("%-22s %s\n", m.Name, m.Description)
		}
		return
	}
	if *listScens {
		for _, name := range scenario.Bundled() {
			fmt.Println(name)
		}
		return
	}
	if *listFlts {
		for _, name := range fleet.Bundled() {
			fmt.Println(name)
		}
		return
	}
	switch *format {
	case "text", "csv", "markdown":
	default:
		fmt.Fprintf(os.Stderr, "heterosim: unknown -format %q (want text, csv, or markdown)\n", *format)
		os.Exit(2)
	}

	if *restoreF != "" && *scenarioF != "" {
		fmt.Fprintln(os.Stderr, "heterosim: -restore and -scenario are mutually exclusive")
		os.Exit(2)
	}
	if *ckEvery < 0 {
		fmt.Fprintln(os.Stderr, "heterosim: -checkpoint-every must be >= 0")
		os.Exit(2)
	}
	if *ckEvery > 0 && *scenarioF == "" && *restoreF == "" {
		fmt.Fprintln(os.Stderr, "heterosim: -checkpoint-every needs -scenario or -restore")
		os.Exit(2)
	}
	if *ckEvery > 0 && *ckPath == "" {
		fmt.Fprintln(os.Stderr, "heterosim: -checkpoint-every needs -checkpoint-path")
		os.Exit(2)
	}
	ck := scenario.CheckpointOptions{Every: *ckEvery, Path: *ckPath}
	of := obsFlags{events: *events, chrome: *chrome, metricsF: *metricsF,
		listen: *listenF, profile: *profileF, format: *format}

	if *fleetF != "" {
		if *scenarioF != "" || *restoreF != "" {
			fmt.Fprintln(os.Stderr, "heterosim: -fleet is mutually exclusive with -scenario and -restore")
			os.Exit(2)
		}
		if *recordF != "" || *replayF != "" {
			fmt.Fprintln(os.Stderr, "heterosim: -fleet does not support trace record/replay backends")
			os.Exit(2)
		}
		if *profileF {
			fmt.Fprintln(os.Stderr, "heterosim: -profile-epochs is not supported with -fleet")
			os.Exit(2)
		}
		runFleet(*fleetF, seedOverride(seed), *workersF, of)
		return
	}

	build, closeBackend, err := buildBackend(*recordF, *replayF)
	if err != nil {
		fmt.Fprintln(os.Stderr, "heterosim:", err)
		os.Exit(2)
	}

	if *restoreF != "" {
		if *profileF {
			// A checkpoint's embedded scenario does not carry the
			// profiling request; profile the original run instead.
			fmt.Fprintln(os.Stderr, "heterosim: -profile-epochs is not supported with -restore")
			os.Exit(2)
		}
		traceOverride := false
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "record-trace" || f.Name == "replay-trace" {
				traceOverride = true
			}
		})
		if traceOverride {
			// A checkpoint pins the backend it was taken under; restoring
			// it under a different model could not be byte-identical.
			fmt.Fprintln(os.Stderr, "heterosim: -restore uses the checkpoint's own backend; backend flags conflict")
			os.Exit(2)
		}
		runRestore(*restoreF, ck, closeBackend, of)
		return
	}

	if *scenarioF != "" {
		// The trace flags override the scenario's own backend field;
		// without them build is nil and the script's field stands.
		// Recorder checkpoints are refused by core, and a replay
		// checkpoint fails the restore-time backend identity check.
		runScenario(*scenarioF, seedOverride(seed), build, closeBackend, ck, of)
		return
	}

	mode, err := policy.ByName(*modeName)
	if err != nil {
		fmt.Fprintf(os.Stderr, "heterosim: %v; try -modes\n", err)
		os.Exit(2)
	}
	w, err := workload.ByName(*app, workload.Config{Seed: *seed})
	if err != nil {
		fmt.Fprintln(os.Stderr, "heterosim:", err)
		os.Exit(2)
	}
	if *ratio < 1 {
		fmt.Fprintln(os.Stderr, "heterosim: ratio must be >= 1")
		os.Exit(2)
	}

	slow := workload.Config{}.Pages(8 * workload.GiB)
	fast := slow / uint64(*ratio)
	cfg := core.Config{
		FastFrames: fast + slow + 8192,
		SlowFrames: slow + 8192,
		Seed:       *seed,
		Trace:      *trace,
		VMs: []core.VMConfig{{
			ID: 1, Mode: mode, Workload: w,
			FastPages: fast, SlowPages: slow,
		}},
	}

	runTag := fmt.Sprintf("%s/%s ratio=%d seed=%d", *app, *modeName, *ratio, *seed)
	handle, closeObs := newObsHandle(runTag, of)
	cfg.Obs = handle
	cfg.ProfileEpochs = *profileF
	cfg.Backend = build
	closeServer := serveMetrics(handle, *listenF)

	// Ctrl-C cancels the run at the next simulation epoch.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	res, sys, err := core.RunSingleContext(ctx, cfg)
	if err != nil {
		closeObs()
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "heterosim: interrupted")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "heterosim:", err)
		os.Exit(3)
	}

	prof := w.Profile()
	fmt.Printf("%s under %s (FastMem 1/%d of 8GiB SlowMem, %s)\n",
		prof.Name, mode.Name, *ratio, sys.VMM.SharePolicyName())
	fmt.Printf("  runtime          %10.2f s\n", res.RuntimeSeconds())
	if prof.OpsPerEpoch > 0 {
		fmt.Printf("  throughput       %10.0f ops/s (%s)\n",
			res.Throughput(prof.OpsPerEpoch), prof.Metric)
	}
	fmt.Printf("  cpu time         %10.2f s\n", res.CPUTime.Seconds())
	fmt.Printf("  FastMem stall    %10.2f s  (%d misses)\n",
		res.MemTime[memsim.FastMem].Seconds(), res.Misses[memsim.FastMem])
	fmt.Printf("  SlowMem stall    %10.2f s  (%d misses)\n",
		res.MemTime[memsim.SlowMem].Seconds(), res.Misses[memsim.SlowMem])
	fmt.Printf("  OS/software time %10.2f s\n", res.OSTime.Seconds())
	fmt.Printf("  faults=%d swapIn=%d swapOut=%d diskRead=%d diskWrite=%d\n",
		res.Faults, res.SwapIns, res.SwapOuts, res.DiskReadPages, res.DiskWritePages)
	fmt.Printf("  fastAllocMissRatio=%.3f demotions=%d promotions=%d vmmMigrations=%d\n",
		res.MissRatio(), res.Demotions, res.Promotions, res.VMMMigrations)
	fmt.Printf("  scanPasses=%d scanCost=%.2fs migrateCost=%.2fs\n",
		res.ScanPasses, res.ScanCostNs/1e9, res.MigrateCostNs/1e9)

	if *trace {
		fmt.Println()
		t := core.TraceTable(fmt.Sprintf("%s / %s per-epoch trace", prof.Name, mode.Name),
			sys.VMs[0].TraceLog)
		renderTable(t, *format, os.Stdout)
	}

	if *profileF {
		fmt.Println()
		renderTable(obs.PhaseTable(handle.Metrics.Snapshot(),
			"epoch phase breakdown: "+runTag), *format, os.Stdout)
	}
	if *metricsF != "" {
		writeMetrics(handle, *metricsF)
	}
	closeServer()
	closeObs()
	closeBackendOrDie(closeBackend)
}

// runScenario executes a scripted multi-VM scenario and prints its
// per-VM outcomes and sampled timeline. A non-nil build overrides the
// scenario's own backend field (CLI flags win over the JSON).
func runScenario(path string, seedOverride *uint64, build memsim.Builder, closeBackend func() error, ck scenario.CheckpointOptions, of obsFlags) {
	sc, err := scenario.LoadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "heterosim:", err)
		os.Exit(2)
	}
	if seedOverride != nil {
		sc.Seed = *seedOverride
	}
	if build != nil {
		sc.WithBackendBuilder(build)
	}
	sc.ProfileEpochs = of.profile
	runTag := fmt.Sprintf("scenario/%s seed=%d", sc.Name, sc.Seed)
	executeScenario(runTag, func(ctx context.Context, h *obs.Obs) (*scenario.Result, error) {
		return sc.RunWithCheckpoints(ctx, h, ck)
	}, closeBackend, of)
}

// runRestore resumes a scenario checkpoint and runs it to completion;
// its output is byte-identical to what the uninterrupted run would
// have printed (and, with -events, its event stream is exactly the
// uninterrupted run's tail).
func runRestore(path string, ck scenario.CheckpointOptions, closeBackend func() error, of obsFlags) {
	// Open and verify the snapshot up front so an unreadable or corrupt
	// checkpoint reports as bad input (exit 2), exactly like an
	// unloadable -scenario file; only the resumed run itself can exit 3.
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "heterosim:", err)
		os.Exit(2)
	}
	rd, err := snapshot.Open(f)
	f.Close()
	if err != nil {
		fmt.Fprintf(os.Stderr, "heterosim: restore %s: %v\n", path, err)
		os.Exit(2)
	}
	runTag := "restore/" + path
	executeScenario(runTag, func(ctx context.Context, h *obs.Obs) (*scenario.Result, error) {
		return scenario.Resume(ctx, rd, h, ck)
	}, closeBackend, of)
}

// runFleet executes a fleet script: N hosts in lock-step rounds with
// live migration and placement (see internal/fleet). Per-VM rows print
// only for small fleets; at datacenter scale the per-app aggregate,
// migration log, and timeline carry the story.
func runFleet(path string, seedOverride *uint64, workers int, of obsFlags) {
	sc, err := fleet.LoadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "heterosim:", err)
		os.Exit(2)
	}
	if seedOverride != nil {
		sc.Seed = *seedOverride
	}
	runTag := fmt.Sprintf("fleet/%s seed=%d", sc.Name, sc.Seed)
	handle, closeObs := newObsHandle(runTag, of)
	closeServer := serveMetrics(handle, of.listen)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	r, err := fleet.Run(ctx, sc, fleet.Options{Workers: workers, Obs: handle})
	if err != nil {
		closeServer()
		closeObs()
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "heterosim: interrupted")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "heterosim:", err)
		os.Exit(3)
	}

	completed, lost, heat := 0, 0, 0
	for i := range r.VMs {
		if r.VMs[i].Completed {
			completed++
		}
		if r.VMs[i].Lost {
			lost++
		}
	}
	evacuations := 0
	for i := range r.Migrations {
		if r.Migrations[i].Evacuation {
			evacuations++
		}
		if r.Migrations[i].HeatPreserved {
			heat++
		}
	}
	fmt.Printf("fleet %s: %d hosts, %d VMs over %d rounds, seed %d, placement %s\n",
		r.Name, r.Hosts, len(r.VMs), r.Rounds, r.Seed, r.Placement)
	fmt.Printf("  completed %d  lost %d  migrations %d (%d evacuations, %d heat-preserved)\n",
		completed, lost, len(r.Migrations), evacuations, heat)
	fmt.Println()
	renderTable(r.AppTable(), of.format, os.Stdout)
	if len(r.VMs) <= 64 {
		fmt.Println()
		renderTable(r.Table(), of.format, os.Stdout)
	}
	if n := len(r.Migrations); n > 0 && n <= 200 {
		fmt.Println()
		renderTable(r.MigrationTable(), of.format, os.Stdout)
	}
	fmt.Println()
	renderTable(r.TimelineTable(), of.format, os.Stdout)

	if of.metricsF != "" {
		writeMetrics(handle, of.metricsF)
	}
	closeServer()
	closeObs()
}

// executeScenario drives one scenario run (fresh or resumed) under
// signal handling and prints the shared result rendering.
func executeScenario(runTag string, run func(context.Context, *obs.Obs) (*scenario.Result, error), closeBackend func() error, of obsFlags) {
	handle, closeObs := newObsHandle(runTag, of)
	closeServer := serveMetrics(handle, of.listen)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	r, err := run(ctx, handle)
	if err != nil {
		closeServer()
		closeObs()
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "heterosim: interrupted")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "heterosim:", err)
		os.Exit(3)
	}

	fmt.Printf("scenario %s: %d VMs over %d epochs, seed %d, %s\n",
		r.Name, len(r.VMs), r.Epochs, r.Seed, r.Sys.VMM.SharePolicyName())
	fmt.Println()
	renderTable(r.Table(), of.format, os.Stdout)
	fmt.Println()
	renderTable(r.TimelineTable(), of.format, os.Stdout)

	if of.profile {
		fmt.Println()
		renderTable(obs.PhaseTable(handle.Metrics.Snapshot(),
			"epoch phase breakdown: "+runTag), of.format, os.Stdout)
	}
	if of.metricsF != "" {
		writeMetrics(handle, of.metricsF)
	}
	closeServer()
	closeObs()
	closeBackendOrDie(closeBackend)
}

// seedOverride returns seed when -seed was passed explicitly, else nil:
// scenario and fleet scripts carry their own seed, which only an
// explicit flag overrides.
func seedOverride(seed *uint64) *uint64 {
	var out *uint64
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			out = seed
		}
	})
	return out
}

// buildBackend resolves the trace flags into a core.Config builder plus
// a cleanup that flushes any trace recording. The builder is nil — the
// analytic default — when neither flag is set.
func buildBackend(record, replay string) (memsim.Builder, func() error, error) {
	if record != "" && replay != "" {
		return nil, nil, errors.New("-record-trace and -replay-trace are mutually exclusive")
	}
	var build memsim.Builder
	if replay != "" {
		tr, err := memsim.LoadTraceFile(replay)
		if err != nil {
			return nil, nil, err
		}
		build = tr.Builder()
	}
	closeBackend := func() error { return nil }
	if record != "" {
		f, err := os.Create(record)
		if err != nil {
			return nil, nil, err
		}
		var recorders []*memsim.Recorder
		build = func(m *memsim.Machine, opts ...memsim.Option) memsim.Backend {
			r := memsim.NewRecorder(memsim.NewAnalytic(m, opts...), f)
			recorders = append(recorders, r)
			return r
		}
		closeBackend = func() error {
			var first error
			for _, r := range recorders {
				if err := r.Flush(); err != nil && first == nil {
					first = err
				}
			}
			if err := f.Close(); err != nil && first == nil {
				first = err
			}
			return first
		}
	}
	return build, closeBackend, nil
}

// closeBackendOrDie flushes trace recording; an unwritable trace is a
// hard error (a truncated recording would replay wrong).
func closeBackendOrDie(closeBackend func() error) {
	if err := closeBackend(); err != nil {
		fmt.Fprintln(os.Stderr, "heterosim: record-trace:", err)
		os.Exit(3)
	}
}

// obsFlags bundles the observability flags every run path shares.
type obsFlags struct {
	events, chrome, metricsF string
	listen                   string
	profile                  bool
	format                   string
}

// on reports whether any flag asks for an observability handle.
func (of obsFlags) on() bool {
	return of.events != "" || of.chrome != "" || of.metricsF != "" ||
		of.listen != "" || of.profile
}

// newObsHandle builds an observability handle when any output was
// requested (nil otherwise — the default path stays byte-identical to
// an uninstrumented build) and returns it with its cleanup function.
// The cleanup surfaces ring overflow on stderr: a run analyzed from a
// partially captured stream would silently under-count.
func newObsHandle(runTag string, of obsFlags) (*obs.Obs, func()) {
	if !of.on() {
		return nil, func() {}
	}
	handle := obs.New()
	handle.SetRunTag(runTag)
	var outFiles []*os.File
	openSink := func(path string, mk func(wr io.Writer, run string) obs.Sink) {
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "heterosim:", err)
			os.Exit(2)
		}
		outFiles = append(outFiles, f)
		handle.Tracer.AddSink(mk(f, runTag))
	}
	if of.events != "" {
		openSink(of.events, func(wr io.Writer, run string) obs.Sink { return obs.NewJSONLSink(wr, run) })
	}
	if of.chrome != "" {
		openSink(of.chrome, func(wr io.Writer, run string) obs.Sink { return obs.NewChromeTraceSink(wr, run) })
	}
	return handle, func() {
		if err := handle.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "heterosim: event sink:", err)
		}
		if msg := handle.DroppedWarning(); msg != "" {
			fmt.Fprintln(os.Stderr, "heterosim:", msg)
		}
		for _, f := range outFiles {
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "heterosim:", err)
			}
		}
	}
}

// serveMetrics starts the live metrics endpoint when addr is set and
// wires per-epoch snapshot publication into the handle's epoch hook.
// The returned cleanup stops the server.
func serveMetrics(handle *obs.Obs, addr string) func() {
	if addr == "" {
		return func() {}
	}
	srv, err := obs.NewMetricsServer(addr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "heterosim: -listen:", err)
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "heterosim: serving http://%s/metrics and /snapshot.json\n", srv.Addr())
	handle.SetEpochHook(func(int) {
		srv.Publish(handle.Metrics.Snapshot(), handle.RunTag())
	})
	// Publish once up front so the endpoints are never empty.
	srv.Publish(handle.Metrics.Snapshot(), handle.RunTag())
	return func() {
		if err := srv.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "heterosim: -listen:", err)
		}
	}
}

// writeMetrics dumps the end-of-run metrics snapshot as CSV.
func writeMetrics(handle *obs.Obs, path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "heterosim:", err)
		os.Exit(2)
	}
	snap := handle.Metrics.Snapshot()
	snap.Table("metrics: " + handle.RunTag()).RenderCSV(f)
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "heterosim:", err)
	}
}

// renderTable writes t in the selected format.
func renderTable(t *metrics.Table, format string, w io.Writer) {
	switch format {
	case "csv":
		t.RenderCSV(w)
	case "markdown":
		t.RenderMarkdown(w)
	default:
		t.Render(w)
	}
}
