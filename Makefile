# Convenience targets for the dxbar reproduction.

GO ?= go

# Every example program, derived from the directory listing so adding an
# example never requires touching this file.
EXAMPLES := $(notdir $(wildcard examples/*))

.PHONY: all build test test-race race lint census bench benchmark pairs figures claims-seeds examples examples-smoke telemetry-smoke dashboard-smoke diag-smoke checkpoint-smoke determinism clean

all: build test

build:
	$(GO) build ./...
	$(GO) vet ./...

# benchmark/ is its own module (root ./... patterns skip it), so it is vetted
# and tested by name: a PR that breaks the API surface it is frozen against
# fails here, not in the pipeline that judges the PR.
test: test-race examples-smoke
	$(GO) vet ./...
	$(GO) test ./...
	$(GO) -C benchmark vet .
	$(GO) -C benchmark test .

# Race-detector pass over the packages — the per-package lockstep tests of
# every bit-parallel router core against its branchy twin included — plus the
# concurrent paths of the root package: the RunMany batch runner, the
# execution-path oracle's sharded suites (oracle_test.go) and its crossing
# rows, where shards meet observers, resumes and restores, and the flit-pool
# guard, whose sharded leg grows the engine's pool between worker cycles.
test-race:
	$(GO) test -race ./internal/...
	$(GO) test -race -run 'TestRunMany|TestShard|TestArbitrationBitIdentitySharded|TestOracleCrossings|TestNetworkFlitsFollowTraffic' .

race:
	$(GO) test -race ./...

# Static analysis beyond go vet. staticcheck is not vendored; install it with
#   go install honnef.co/go/tools/cmd/staticcheck@latest
# shellcheck covers the smoke scripts. Both skip gracefully where missing
# (offline containers) — CI installs and enforces them.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "lint: staticcheck not installed, skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi
	@if command -v shellcheck >/dev/null 2>&1; then \
		shellcheck -x scripts/*.sh; \
	else \
		echo "lint: shellcheck not installed, skipping (apt install shellcheck)"; \
	fi

# Shell census (ROADMAP item 5): where every exported root symbol, CLI flag,
# diag/metrics option field and dxbar_* series is reached, and the non-test
# line count per package. Informational — it reports, it does not gate.
census:
	@sh scripts/census.sh

# The engine micro-benchmarks (bench_test.go), and BenchmarkPaperClaimsSeeds,
# which rewrites results/claims_seeds.md. The paper's numbers live in
# TestPaperClaims (EXPERIMENTS.md's claim tables); `dxbar-sweep -fig N`
# regenerates each figure.
bench:
	$(GO) test -bench=. -benchmem

# The repo's benchmark (BENCHMARK.json): seven workloads, one process each,
# end-to-end host-time metrics and an output-digest check. Records land in
# benchmark/out/; see benchmark/README.md for -trace 1, -selfcheck and -list.
benchmark:
	bash benchmark/run.sh

# The speed-claim rule applied for you: N alternating parent/change runs of
# one workload — `make pairs WORKLOAD=steady8 [N=10] [SEED=7] [PARENT=<ref>]`
# — with each side's quartiles, the wins and the parent-IQR test per
# end-to-end metric (scripts/pairs.sh; a few minutes per workload).
N ?= 10
pairs:
	PAIRS_PARENT=$(PARENT) sh scripts/pairs.sh $(WORKLOAD) $(N) $(SEED)

# Regenerate every figure at full quality as CSV + SVG + Markdown under
# results/ — the committed files EXPERIMENTS.md points to (minutes). The
# quick-quality numbers live in EXPERIMENTS.md's claim tables instead
# (TestPaperClaims).
figures:
	$(GO) run ./cmd/dxbar-sweep -fig all -quality full -out results -svg -md

# Every paperClaims row at seeds 42-46 (k added to each run's seed), written
# to results/claims_seeds.md with the rows whose verdict differs marked; about
# a minute. TestClaimsSeedsCoversEveryRow holds the file to the table.
claims-seeds:
	$(GO) test -run '^$$' -bench '^BenchmarkPaperClaimsSeeds$$' -benchtime 1x .

examples:
	for e in $(EXAMPLES); do \
		echo "=== $$e ==="; $(GO) run ./examples/$$e || exit 1; \
	done

# Build and run every example with DXBAR_SMOKE=1, which caps the open-loop
# windows (warmup <= 200, measure <= 800 cycles) so the whole suite finishes
# in seconds — a compile+runtime regression gate, not a demo.
examples-smoke:
	for e in $(EXAMPLES); do \
		echo "=== $$e (smoke) ==="; DXBAR_SMOKE=1 $(GO) run ./examples/$$e > /dev/null || exit 1; \
	done
	rm -f flightrecorder_trace.json

# Launch a sharded dxbar-sim with -http and assert /healthz and /metrics
# serve the expected series while the simulation runs, then a dxbar-sweep
# with -http -ledger and assert its /metrics aggregates the engine and ledger
# counters of the sweep's points (needs curl). The smoke scripts share
# scripts/lib.sh.
telemetry-smoke:
	sh scripts/telemetry_smoke.sh

# Run-ledger + live-dashboard smoke: a short run must archive its Result
# under its content key (and a -ledger-reuse re-run must be served from the
# archive), then a live run with -http must serve the dashboard page at /
# and stream SSE frames from /events (needs curl).
dashboard-smoke:
	sh scripts/dashboard_smoke.sh

# Force an anomaly on a saturated run and SIGQUIT a live one; assert both
# leave complete post-mortem bundles under diag-artifacts/.
diag-smoke:
	sh scripts/diag_smoke.sh diag-artifacts

# Crash-recovery drill: kill -9 a checkpointed dxbar-sim mid-flight, resume
# from the newest surviving checkpoint and assert the resumed run's metrics
# match an uninterrupted reference exactly.
checkpoint-smoke:
	sh scripts/checkpoint_smoke.sh

# The checkpoint/replay determinism suite under the race detector: resume
# bit-identity across designs, seeds and both engine backends, snapshot
# round-trip byte stability, corrupt-input robustness, rewind renormalization,
# the committed golden checkpoint (cross-version format stability), the
# retired version-1 checkpoint's rejection and the injector's RNG source held
# to math/rand draw for draw. Then the execution-path oracle's lockstep suites (oracle_test.go: Engine.Snapshot
# digests equal to the sequential engine's every 50 cycles — all designs past
# saturation, fault plans, the closed loop) with the barrier driven on 1, 2
# and 4 processors, and a minute of FuzzExecutionPaths: random rows and path
# subsets held to the same oracle (the crossing rows run under -race in
# test-race), then 30 s of FuzzRestoreEngine: mutated snapshots of every
# design, CRC recomputed, restored and run on — an error, never a panic.
determinism:
	$(GO) test -race -count=1 -run 'TestCheckpoint|TestSnapshot|TestGolden|TestRewind|TestRestoreEngine|TestRestoreEngineRejectsV1|TestResumeParentBuffered8' .
	$(GO) test -race -count=1 ./internal/snapshot/
	$(GO) test -race -count=1 -run 'TestSourceMatchesStdlib|TestSourceCopyResumes' ./internal/traffic/
	$(GO) test -race -count=1 -cpu 1,2,4 -run 'Lockstep' .
	$(GO) test -race -run '^$$' -fuzz FuzzExecutionPaths -fuzztime 60s .
	$(GO) test -run '^$$' -fuzz FuzzRestoreEngine -fuzztime 30s .

clean:
	rm -rf flightrecorder_trace.json diag-artifacts
