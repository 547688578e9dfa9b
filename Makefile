GO ?= go

.PHONY: all build test vet race check obs-parity scenario-smoke backend-parity \
	snapshot-parity fuzz-smoke fleet-smoke bench bench-all bench-json bench-guard figures

all: check

build:
	$(GO) build ./...

# vet also fails on any file gofmt would rewrite.
vet:
	$(GO) vet ./...
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt: these files need formatting:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# The runner, core, scenario, and fleet packages are the
# concurrency-bearing ones: the worker pool, futures, progress
# callbacks, per-epoch context checks, scenario batches, and the fleet's
# pooled host-stepping barrier all live there, so they get a dedicated
# race pass. vmm rides along since its scanner/index state is shared
# with the sweep jobs.
race:
	$(GO) test -race ./internal/runner ./internal/core ./internal/vmm/... ./internal/scenario \
		./internal/fleet
	$(GO) test -race -run 'Backend|Replay|Record|Trace|GainSweep' \
		./internal/memsim ./internal/exp

# obs-parity asserts the observability contract: the figure pipeline's
# stdout is byte-identical with and without metrics collection attached
# (CSV format, so no wall-clock lines differ). Figure 6 sweeps three
# modes through the runner, exercising the instrumented chokepoints.
# The second half re-asserts the same for both bundled scenarios (the
# scenario path wires per-VM scopes and the epoch hook, a different
# plumbing route than the figure runner).
obs-parity:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) run ./cmd/heterobench -exp figure6 -quick -format=csv \
		> "$$tmp/off.csv" || exit 1; \
	$(GO) run ./cmd/heterobench -exp figure6 -quick -format=csv \
		-metrics "$$tmp/metrics.csv" > "$$tmp/on.csv" || exit 1; \
	if ! cmp -s "$$tmp/off.csv" "$$tmp/on.csv"; then \
		echo "obs-parity: figure output differs with metrics enabled:"; \
		diff "$$tmp/off.csv" "$$tmp/on.csv"; exit 1; \
	fi; \
	test -s "$$tmp/metrics.csv" || { echo "obs-parity: no metrics written"; exit 1; }; \
	echo "obs-parity: figure output byte-identical with observability on"; \
	$(GO) build -o "$$tmp/heterosim" ./cmd/heterosim || exit 1; \
	for sc in churn.json degrade.json; do \
		"$$tmp/heterosim" -scenario $$sc -format=csv \
			> "$$tmp/sc-off.csv" || exit 1; \
		"$$tmp/heterosim" -scenario $$sc -format=csv \
			-metrics "$$tmp/sc-metrics.csv" \
			> "$$tmp/sc-on.csv" 2>/dev/null || exit 1; \
		if ! cmp -s "$$tmp/sc-off.csv" "$$tmp/sc-on.csv"; then \
			echo "obs-parity: $$sc output differs with metrics collection on:"; \
			diff "$$tmp/sc-off.csv" "$$tmp/sc-on.csv"; exit 1; \
		fi; \
		test -s "$$tmp/sc-metrics.csv" || { echo "obs-parity: $$sc wrote no metrics"; exit 1; }; \
		echo "obs-parity: $$sc scenario byte-identical with observability on"; \
	done

# scenario-smoke runs both bundled scenarios end-to-end through the
# CLI and checks determinism: two runs of the same scenario must print
# byte-identical output (the churn run also exercises BootVM/ShutdownVM
# and the per-departure invariant sweep).
scenario-smoke:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	for sc in churn.json degrade.json; do \
		$(GO) run ./cmd/heterosim -scenario $$sc -format=csv > "$$tmp/a.csv" || exit 1; \
		$(GO) run ./cmd/heterosim -scenario $$sc -format=csv > "$$tmp/b.csv" || exit 1; \
		if ! cmp -s "$$tmp/a.csv" "$$tmp/b.csv"; then \
			echo "scenario-smoke: $$sc output differs between identical runs:"; \
			diff "$$tmp/a.csv" "$$tmp/b.csv"; exit 1; \
		fi; \
		echo "scenario-smoke: $$sc deterministic"; \
	done

# snapshot-parity is the checkpoint/restore gold standard, exercised
# end-to-end through the CLI for both bundled scenarios: (1) writing
# checkpoints must not perturb the run (stdout with -checkpoint-every ==
# stdout without); (2) a run restored from a mid-scenario snapshot must
# finish byte-identically (stdout == the uninterrupted run, and the
# restored event log == the tail of the full run's event log). The
# restore takes no backend flag — the snapshot pins the backend it was
# taken under.
snapshot-parity:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/heterosim" ./cmd/heterosim || exit 1; \
	for sc in churn.json degrade.json; do \
		"$$tmp/heterosim" -scenario $$sc -format=csv \
			-events "$$tmp/full.jsonl" > "$$tmp/plain.csv" || exit 1; \
		"$$tmp/heterosim" -scenario $$sc -format=csv \
			-checkpoint-every 13 -checkpoint-path "$$tmp/ck.snap" > "$$tmp/ck.csv" || exit 1; \
		if ! cmp -s "$$tmp/plain.csv" "$$tmp/ck.csv"; then \
			echo "snapshot-parity: $$sc output perturbed by checkpointing:"; \
			diff "$$tmp/plain.csv" "$$tmp/ck.csv"; exit 1; \
		fi; \
		"$$tmp/heterosim" -restore "$$tmp/ck.snap" -format=csv -events "$$tmp/rest.jsonl" \
			> "$$tmp/rest.csv" || exit 1; \
		if ! cmp -s "$$tmp/plain.csv" "$$tmp/rest.csv"; then \
			echo "snapshot-parity: $$sc restored run diverged:"; \
			diff "$$tmp/plain.csv" "$$tmp/rest.csv"; exit 1; \
		fi; \
		tail -n +2 "$$tmp/rest.jsonl" > "$$tmp/rest.tail"; \
		n=$$(wc -l < "$$tmp/rest.tail"); \
		test "$$n" -gt 0 || { echo "snapshot-parity: $$sc restore replayed no events (checkpoint at end of run?)"; exit 1; }; \
		tail -n "$$n" "$$tmp/full.jsonl" > "$$tmp/full.tail"; \
		if ! cmp -s "$$tmp/full.tail" "$$tmp/rest.tail"; then \
			echo "snapshot-parity: $$sc restored event log diverged:"; \
			diff "$$tmp/full.tail" "$$tmp/rest.tail"; exit 1; \
		fi; \
		rm -f "$$tmp"/ck.snap "$$tmp"/*.jsonl "$$tmp"/*.tail; \
		echo "snapshot-parity: $$sc restore byte-identical ($$n event lines)"; \
	done

# fuzz-smoke drives the fixed seed band through the scenario generator
# under the strict invariant harness (~5s). A failing seed shrinks
# itself and lands in internal/scenario/testdata/fuzz/repros/.
fuzz-smoke:
	$(GO) test -run 'TestFuzzSmoke|TestCommittedRepro' -count=1 ./internal/scenario

# fleet-smoke runs the 1000-host / 10000-VM churn script end-to-end
# through the CLI at two worker counts and requires byte-identical
# output — the fleet layer's determinism contract at datacenter scale
# (boot storms, a surge wave, three host failures with mass evacuation,
# and a 500-VM drain, all priced by the analytic backend). The output
# must also match the committed sha256 in testdata/backend/, so a change
# that shifts both worker counts alike still fails.
fleet-smoke:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/heterosim" ./cmd/heterosim || exit 1; \
	"$$tmp/heterosim" -fleet fleet-churn-1k.json -workers 1 -format=csv \
		> "$$tmp/w1.csv" || exit 1; \
	"$$tmp/heterosim" -fleet fleet-churn-1k.json -workers 4 -format=csv \
		> "$$tmp/w4.csv" || exit 1; \
	if ! cmp -s "$$tmp/w1.csv" "$$tmp/w4.csv"; then \
		echo "fleet-smoke: 1k-host fleet output differs across worker counts:"; \
		diff "$$tmp/w1.csv" "$$tmp/w4.csv" | head -20; exit 1; \
	fi; \
	cp "$$tmp/w1.csv" "$$tmp/fleet-churn-1k.csv"; \
	(cd "$$tmp" && sha256sum -c --quiet "$(CURDIR)/testdata/backend/fleet-churn-1k.csv.sha256") || { \
		echo "fleet-smoke: fleet-churn-1k output drifted from testdata/backend/fleet-churn-1k.csv.sha256"; exit 1; }; \
	echo "fleet-smoke: fleet-churn-1k byte-identical at 1 and 4 workers and to the committed sha256"

# backend-parity pins the simulated outcome to committed goldens: the
# default analytic pricing path must reproduce every committed quick
# figure CSV byte-for-byte. figure6 and figure9 were captured from the
# pre-backend seed tree; the others were captured before the guest
# access path was rewritten for speed (figures 10-12 run HeteroOS-LRU
# reclaim over mixed anonymous and page-cache LRU lists). So any drift
# in pricing, placement or reclaim decisions fails the gate. figure13
# is left out: it takes about half a minute. The small bundled fleet
# script (fleet-churn.json: live migration, evacuation, surge) is pinned
# the same way; the 1k-host script is pinned by hash in fleet-smoke.
BACKEND_GOLDENS = figure1 figure2 figure3 figure4 figure6 figure7 figure8 \
	figure9 figure10 figure11 figure12

backend-parity:
	@tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/heterobench" ./cmd/heterobench || exit 1; \
	for f in $(BACKEND_GOLDENS); do \
		got="$$tmp/$$f.csv"; want="testdata/backend/$${f}_quick.csv"; \
		"$$tmp/heterobench" -exp $$f -quick -format=csv > "$$got" || exit 1; \
		if ! cmp -s "$$want" "$$got"; then \
			echo "backend-parity: $$f output drifted from $$want:"; \
			diff "$$want" "$$got"; exit 1; \
		fi; \
	done; \
	$(GO) build -o "$$tmp/heterosim" ./cmd/heterosim || exit 1; \
	"$$tmp/heterosim" -fleet fleet-churn.json -format=csv > "$$tmp/fleet-churn.csv" || exit 1; \
	if ! cmp -s testdata/backend/fleet-churn.csv "$$tmp/fleet-churn.csv"; then \
		echo "backend-parity: fleet-churn.json output drifted from testdata/backend/fleet-churn.csv:"; \
		diff testdata/backend/fleet-churn.csv "$$tmp/fleet-churn.csv"; exit 1; \
	fi; \
	echo "backend-parity: $(words $(BACKEND_GOLDENS)) quick figures and fleet-churn.json byte-identical to committed goldens"

# check is the pre-commit gate: static analysis and formatting, full
# build, the full test suite, the race detector over the concurrent
# packages, the observability no-perturbation check, the scenario smoke
# run, the figure golden parity gate, the checkpoint/restore parity
# gate, the fuzz seed-band smoke run, and the datacenter-scale fleet
# determinism smoke run.
check: vet build test race obs-parity scenario-smoke backend-parity \
	snapshot-parity fuzz-smoke fleet-smoke

# bench runs the ranking, scan, default-run, figure9-sweep, guest
# page-allocator and checkpoint-encoder benchmarks at
# benchstat-grade repetition: save the output before and after a change
# and compare the two files with benchstat.
bench:
	$(GO) test -run=NONE -bench='HottestIn|ColdestIn|HotScan|ScanNext|SweepFigure9|EpochPricing|DefaultRun|BuddySplitCoalesce|AllocatorFastPath|Checkpoint|Obs|FleetEpochRound' \
		-benchmem -count=5 .

# bench-json regenerates the committed perf-trajectory baselines: the
# analytic-side benchmarks (the default run, the buddy and per-CPU
# allocator paths and the checkpoint encoder among them) into
# BENCH_analytic.json, the word-at-a-time
# scan (with its speedup over the per-page reference path) into
# BENCH_scan.json, the observability aggregation path (direct scope
# rollup, its speedup over the snapshot merge fold, and the OpenMetrics
# encoder) into BENCH_obs.json, and the fleet epoch round (pooled
# barrier over its serial twin) into BENCH_fleet.json.
bench-json:
	@tmp=$$(mktemp); trap 'rm -f "$$tmp"' EXIT; \
	$(GO) test -run=NONE -bench='HottestIn|ColdestIn|HotScan|ScanNext|SweepFigure9|EpochPricing|DefaultRun|BuddySplitCoalesce|AllocatorFastPath|Checkpoint|Obs|FleetEpochRound' \
		-benchmem -count=5 . > "$$tmp" || { cat "$$tmp"; exit 1; }; \
	$(GO) run ./cmd/benchjson -label analytic \
		-match 'HottestIn|ColdestIn|HotScan|SweepFigure9Workers|EpochPricingAnalytic|DefaultRun|BuddySplitCoalesce|AllocatorFastPath|Checkpoint' \
		< "$$tmp" > BENCH_analytic.json || exit 1; \
	$(GO) run ./cmd/benchjson -label scan \
		-match 'ScanNext' \
		-speedup ScanNextWord=ScanNextRef \
		< "$$tmp" > BENCH_scan.json || exit 1; \
	$(GO) run ./cmd/benchjson -label obs \
		-match 'ObsRollup|ObsOpenMetrics' \
		-speedup ObsRollupDirect=ObsRollupMergeFold \
		< "$$tmp" > BENCH_obs.json || exit 1; \
	$(GO) run ./cmd/benchjson -label fleet \
		-match 'FleetEpochRound' \
		-speedup FleetEpochRound=FleetEpochRoundWorkers1 \
		< "$$tmp" > BENCH_fleet.json || exit 1; \
	echo "bench-json: wrote BENCH_analytic.json BENCH_scan.json BENCH_obs.json BENCH_fleet.json"

# bench-guard re-runs the speedup-pair benchmarks and fails if any
# committed factor regressed more than 5%: word-over-reference scanning
# (BENCH_scan.json), direct-over-merge-fold obs rollup (BENCH_obs.json),
# and the pooled-over-serial fleet round (BENCH_fleet.json). The ratio
# (not raw ns/op) is guarded, so the check is stable across machines.
# Not part of check: benchmarks are too noisy for an always-on gate.
bench-guard:
	@$(GO) test -run=NONE -bench='ScanNext' -benchmem -count=3 . \
		| $(GO) run ./cmd/benchjson -guard BENCH_scan.json -tolerance 0.05
	@$(GO) test -run=NONE -bench='ObsRollup' -benchmem -count=3 . \
		| $(GO) run ./cmd/benchjson -guard BENCH_obs.json -tolerance 0.05
	@$(GO) test -run=NONE -bench='FleetEpochRound' -benchmem -count=3 . \
		| $(GO) run ./cmd/benchjson -guard BENCH_fleet.json -tolerance 0.05

# bench-all smoke-runs every benchmark once (artifact regeneration
# included), trading statistical weight for coverage.
bench-all:
	$(GO) test -run=NONE -bench=. -benchtime=1x .

figures:
	$(GO) run ./cmd/heterobench -quick
