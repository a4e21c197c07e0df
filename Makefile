# Development workflow for the semloc reproduction. `make check` is the
# full gate, and runs what CI runs: gofmt + vet (the root module and the
# perfbench module, which compiles against the repository's packages) +
# build + race-enabled tests + the simulated-results golden (every named
# cell plus Figure 13's parameterised cells), the stdout golden of
# cmd/experiments (the race build skips both) and
# the written-trace golden (the bytes of every generator's trace file) +
# short fuzz runs of the trace decoder, the trace emitter's
# compact storage, the prefetchd wire-frame decoder, the daemon snapshot
# parser, the learner restore path, the observability endpoint's
# request-head parser and the file readers of cmd/inspect + the
# recorded BENCH
# diff (the frozen simulator reports must validate and show no
# regression) + an overhead guard that pins the disabled-telemetry hot
# path at zero allocations per access + a race-enabled live observability
# smoke (sweep with -listen, /metrics scraped mid-run, leak-checked
# shutdown) + a race-enabled serving smoke (prefetchd SIGTERM drain,
# snapshot warm-start, chaos transport) + a race-enabled load-generator
# smoke and the recorded LOADGEN gate + a race-enabled
# learner-introspection smoke (instrumented and unsampled artifacts
# rendered via inspect learner, live explain round-trip against
# prefetchd, and the learner snapshot's one CST scan) + one iteration of
# each trace generation and walk benchmark (BenchmarkGenerate,
# BenchmarkGenerateSetup, BenchmarkCursor) + perfbench's own
# tests (it is a separate Go module, so `go test ./...` skips them).
# `make results`, which rewrites results/experiments_scale1.txt at paper
# scale, stays out of check, and so does `make results-check`, which CI
# runs as a step of its own after check.

GO ?= go

.PHONY: all fmt vet build test race golden results results-check fuzz bench-diff overhead-guard obs-smoke serve-smoke loadgen-smoke loadgen-gate learner-smoke bench-smoke perfbench-test check clean

all: build

# fmt fails on any file gofmt would rewrite (CI's own gofmt step).
fmt:
	@test -z "$$(gofmt -l .)" || { gofmt -l .; exit 1; }

# vet covers both modules: the root `go vet ./...` never reaches perfbench.
vet:
	$(GO) vet ./...
	cd perfbench && $(GO) vet .

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# golden checks every workload under every prefetcher in PrefetcherNames
# and both policy variants, plus Figure 13's parameterised cells, at scale
# 0.1 against the committed internal/exp/testdata/golden_scale0.1.txt (367
# cells, about 8 s), so a change to simulated results shows in review
# (DESIGN.md §10, "Bit-identical refactors"). It checks what
# cmd/experiments prints at scale 0.05 and seed 1 against the committed
# cmd/experiments/testdata/stdout_scale0.05.txt (652 lines, about 3 s), so
# a change to the averages, rankings and sentences the figures compute
# from those cells shows too. `race` skips both: the race detector makes
# them over ten times slower. It also checks the SHA-256 and
# length of every generator's trace file at scale 0.1 against the
# committed internal/workloads/testdata/trace_files_scale0.1.txt (under a
# second), so a change to how the emitter lays out a trace shows too. A
# change meant to move results or trace bytes reruns the test concerned
# with -update and commits the diff.
golden:
	$(GO) test -count=1 -run '^TestGoldenResults$$' ./internal/exp
	$(GO) test -count=1 -run '^TestStdoutGolden$$' ./cmd/experiments
	$(GO) test -count=1 -run '^TestTraceFilesGolden$$' ./internal/workloads

# results regenerates the committed record of every table and figure at
# paper scale (about 55 s on the 2-CPU reference machine). It is not part
# of check: a change meant to move results reruns it with the golden and
# commits both diffs.
results:
	$(GO) run ./cmd/experiments -q -scale 1 -seed 1 > results/experiments_scale1.txt

# results-check regenerates the same record into a temporary file and
# diffs it against the committed one, so a change that moves results
# without rerunning `make results` fails (the record was once stale for
# eighteen changes). It takes as long as results and stays out of check
# for the same reason; CI runs it as a step of its own after check.
results-check:
	@tmp=$$(mktemp) && trap 'rm -f "$$tmp"' EXIT && \
		$(GO) run ./cmd/experiments -q -scale 1 -seed 1 > "$$tmp" && \
		diff -u results/experiments_scale1.txt "$$tmp"

# fuzz smokes the untrusted-input decoders, trace.Read (FuzzReader), the
# prefetchd wire-protocol frame decoder (FuzzDecodeFrame), the snapshot
# file a daemon boots from (FuzzLoadSnapshot: refused, or parsed back
# deeply equal once written back through the envelope code), the learner
# restore path a warm start takes from a snapshot (FuzzLearnerState: any
# state Validate accepts must restore and then decide without panicking)
# and the observability endpoint's request-head parser (FuzzRequestHead:
# bounded reads, and agreement with net/http's ReadRequest on every GET or
# HEAD it accepts), every form of cmd/inspect that reads a file
# (FuzzInspectReaders: run artifacts, decision traces, span files, LOADGEN
# and BENCH reports and explain dumps are rendered or refused with exit 0
# or 1, never a panic), and the trace emitter's compact storage against a
# plain record list (FuzzAppend); go test allows one -fuzz pattern per
# invocation, hence seven runs. The snapshot, learner-state and inspect
# inputs are kilobytes of JSON, whose minimisation would take the whole
# 10 s, so those runs skip it (-fuzzminimizetime=0); a crasher is written
# to testdata at full size. The snapshot, endpoint and inspect runs skip
# their packages' unit tests (-run '^$$'), which the FuzzDecodeFrame run
# has already run for serve, one of which waits out the 5 s read deadline
# for the endpoint, and which `test` and `race` run for inspect.
fuzz:
	$(GO) test -fuzz=FuzzReader -fuzztime=10s ./internal/trace
	$(GO) test -fuzz=FuzzAppend -fuzztime=10s ./internal/trace
	$(GO) test -fuzz=FuzzDecodeFrame -fuzztime=10s ./internal/serve
	$(GO) test -run '^$$' -fuzz=FuzzLoadSnapshot -fuzztime=10s -fuzzminimizetime=0 ./internal/serve
	$(GO) test -fuzz=FuzzLearnerState -fuzztime=10s -fuzzminimizetime=0 ./internal/core
	$(GO) test -run '^$$' -fuzz=FuzzRequestHead -fuzztime=10s ./internal/obs/endpoint
	$(GO) test -run '^$$' -fuzz=FuzzInspectReaders -fuzztime=10s -fuzzminimizetime=0 ./cmd/inspect

# bench-diff checks two of the frozen simulator reports (BENCH_2-4; the
# schema is in DESIGN.md, "Hot path & benchmarking"): both must validate,
# and it fails on regression (>10% ns/access on any shared matrix cell, or
# any real allocs/access increase). Override OLD/NEW to compare other
# reports:
#   make bench-diff OLD=BENCH_2.json NEW=BENCH_3.json
OLD ?= BENCH_3.json
NEW ?= BENCH_4.json
bench-diff:
	$(GO) run ./cmd/inspect bench $(OLD) $(NEW)

# overhead-guard pins the telemetry overhead contract (DESIGN.md §11):
# with telemetry disabled, core.Prefetcher.OnAccess must stay at
# 0 allocs/op and within noise of its recorded cost (decide_ns_per_op
# 396-475 ns per access in two `perfbench --workload sim-context --seed 1
# --trace 1` runs on the 2-CPU reference machine). The ns/op ceiling is
# deliberately loose to absorb machine variance while still catching a
# hook that adds real per-access work.
OVERHEAD_NS_CEILING ?= 900
overhead-guard:
	$(GO) test -run '^$$' -bench '^BenchmarkOnAccess$$' -benchmem ./internal/core | tee .overhead-guard.txt
	awk -v ceil=$(OVERHEAD_NS_CEILING) \
		'/^BenchmarkOnAccess(-[0-9]+)?[ \t]/ { found=1; \
		   if ($$7+0 != 0) { print "overhead-guard: "$$7" allocs/op on the disabled-telemetry hot path (want 0)"; exit 1 }; \
		   if ($$3+0 > ceil) { print "overhead-guard: "$$3" ns/op exceeds ceiling "ceil; exit 1 } } \
		 END { if (!found) { print "overhead-guard: BenchmarkOnAccess missing from output"; exit 1 } }' \
		.overhead-guard.txt
	rm -f .overhead-guard.txt

# obs-smoke drives the live-observability loop end to end (DESIGN.md §13):
# a sweep runs with -listen 127.0.0.1:0 and -spans, /metrics is scraped
# while it executes, and the test asserts the listener (and its serving
# goroutine) are gone after a clean exit plus that the span file parses.
# Run under the race detector so a leaked goroutine or racy counter fails
# loudly; vet rides along for the CI step that invokes this target alone.
obs-smoke:
	$(GO) vet ./...
	$(GO) test -race -count=1 -run '^TestSweepLiveEndpoint$$' ./cmd/sweep

# serve-smoke proves the prefetchd robustness story end to end, race
# enabled: the daemon binary is built and booted, a client streams accesses
# against an in-process reference, SIGTERM lands mid-stream (clean drain +
# final snapshot), and the restarted daemon must resume the session
# bit-identically (DESIGN.md §14). The chaos transport tests (lossy proxy,
# abrupt kill + rewind replay) ride along from the client package.
serve-smoke:
	$(GO) test -race -count=1 -run '^TestSigtermDrainWarmStart$$' ./cmd/prefetchd
	$(GO) test -race -count=1 -run '^TestChaos' ./internal/serve/client

# loadgen-smoke drives the serving-path observability loop end to end,
# race enabled (DESIGN.md §16): closed-loop load-generator runs at
# batch=1 and batch=16 (subtests of TestLoadgenSmoke) against an
# instrumented in-process daemon must each produce a validating
# LOADGEN_<n>.json whose client and server views agree (every
# serve_*_latency histogram count equals serve_decisions_total, and for
# batched runs sum(serve_batch_size) re-adds to the same total), plus the
# alloc guards pinning at 0 allocs/op the disabled/unsampled serve tracer
# (TestTracerDisabledZeroAlloc), the steady-state batch codec
# (TestSteadyStateCodecZeroAlloc), and the warm session worker with the
# connection reader's busy and degraded replies
# (TestSteadyStateWorkerZeroAlloc, a non-race test) (DESIGN.md §17).
loadgen-smoke:
	$(GO) test -race -count=1 -run '^TestLoadgenSmoke$$/^batch=1$$' ./cmd/loadgen
	$(GO) test -race -count=1 -run '^TestLoadgenSmoke$$/^batch=16$$' ./cmd/loadgen
	$(GO) test -count=1 -run '^(TestTracerDisabledZeroAlloc|TestSteadyStateCodecZeroAlloc|TestSteadyStateWorkerZeroAlloc)$$' ./internal/serve

# loadgen-gate replays the recorded load-test trajectory: the committed
# batched artifact (LOADGEN_2, batch 16) must hold its throughput edge
# over the committed unbatched baseline (LOADGEN_1). Both files were
# recorded on the same machine in the same config (batch aside), so the
# comparison is deterministic — CI never re-measures saturation on shared
# runners, it only verifies the recorded artifacts still validate and
# still show the batched pipeline ahead.
loadgen-gate:
	$(GO) run ./cmd/inspect serve -min-rate-ratio 1 LOADGEN_1.json LOADGEN_2.json

# learner-smoke proves the learner-introspection layer end to end, race
# enabled (DESIGN.md §18): an instrumented sweep's artifact renders through
# `inspect learner` (health report, curve, anomaly gate), so does one
# written without interval sampling, and a live prefetchd session
# round-trips stats-with-health and an explain frame that the same
# subcommand pretty-prints. The introspection bit-identity guard rides
# along from exp, and from core the one CST scan's checks: the snapshot
# against the counters it copies, the delta ranking's ties and cap, and
# LearnerHealth(0) at zero allocations.
learner-smoke:
	$(GO) test -race -count=1 -run '^TestLearnerSmoke$$' ./cmd/inspect
	$(GO) test -race -count=1 -run '^TestRunJobsLearnerObsMatchesDisabled$$' ./internal/exp
	$(GO) test -count=1 -run '^(TestLearnerHealthSnapshotZeroAlloc|TestLearnerHealthMatchesMetrics|TestTopDeltas.*)$$' ./internal/core

# bench-smoke runs the trace benchmarks of internal/workloads once each, so
# one that no longer builds or runs fails check: BenchmarkGenerate
# (perfbench's five sim traces with the collector on), BenchmarkGenerateSetup
# (the same traces one by one with the collector paused, as perfbench's
# setup_s times them) and BenchmarkCursor. One iteration times nothing
# worth comparing; see DESIGN.md §10 for how to compare two trees.
bench-smoke:
	$(GO) test -run '^$$' -bench '^(BenchmarkGenerate|BenchmarkGenerateSetup|BenchmarkCursor)$$' -benchtime 1x ./internal/workloads

# perfbench-test runs the benchmark's own tests: every workload end to end
# at a tiny size, and the doctored-input checks that each correctness and
# closure check fails when it should. perfbench is its own Go module
# (BENCHMARK.json), so the root `go test ./...` never reaches it, while it
# compiles against the repository's packages.
perfbench-test:
	cd perfbench && $(GO) test -count=1 .

check: fmt vet build race golden fuzz bench-diff overhead-guard obs-smoke serve-smoke loadgen-smoke loadgen-gate learner-smoke bench-smoke perfbench-test

clean:
	rm -f .overhead-guard.txt
	$(GO) clean ./...
