// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments                 # run everything (Table 2/3, Figures 1-14, limit, ablations)
//	experiments -run fig12      # one experiment
//	experiments -run ablations  # reward shape, reducer, shadow, adaptive ε,
//	                            # granularity, sampling, softmax/UCB policies
//	experiments -run fig12,fig14 -scale 0.5
//	experiments -list           # list experiment ids
//	experiments -run fig12 -obs-dir results/obs -obs-interval 4096 -obs-rate 64
//	experiments -cpuprofile cpu.pprof -memprofile mem.pprof
//
// Tables and figures go to stdout; progress and diagnostics go to stderr
// as structured logs (-q silences them). -obs-dir persists one JSON
// artifact per (workload, prefetcher) run — result, final metrics,
// learned-state summary, telemetry series — plus a decision trace when
// -obs-rate is set; render them with cmd/inspect. -listen serves live
// metrics (Prometheus /metrics, expvar, pprof) for the duration of the
// run; -spans records a Perfetto-loadable span trace of every cell.
//
// SIGINT/SIGTERM cancel in-flight simulations; results already printed
// stand. Exit codes: 0 all experiments completed, 1 at least one
// experiment failed, 2 usage error, 3 cancelled (see DESIGN.md,
// "Failure model").
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"semloc/internal/exp"
	"semloc/internal/harness"
	"semloc/internal/obs"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		runIDs     = flag.String("run", "", "comma-separated experiment ids (default: all)")
		scale      = flag.Float64("scale", 1, "workload scale factor")
		seed       = flag.Uint64("seed", 1, "workload seed")
		list       = flag.Bool("list", false, "list experiment ids")
		par        = flag.Int("parallel", 0, "max concurrent simulations (default GOMAXPROCS)")
		stall      = flag.Duration("stall", 0, "abort a run making no forward progress for this long (0 disables the watchdog)")
		quiet      = flag.Bool("q", false, "suppress progress logging (errors still print)")
		obsDir     = flag.String("obs-dir", "", "persist per-run telemetry artifacts into this directory")
		obsIvl     = flag.Uint64("obs-interval", 0, "sample time-series metrics every N demand accesses (0 disables; requires -obs-dir)")
		obsRate    = flag.Uint64("obs-rate", 0, "trace one in N prefetch decisions to a JSONL file (0 disables; requires -obs-dir)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		listen     = flag.String("listen", "", "serve /metrics, /debug/vars and pprof on this address while experiments run (empty host binds loopback)")
		spansPath  = flag.String("spans", "", "write a Chrome trace-event span file (Perfetto-loadable) here on exit")
	)
	flag.Parse()
	logger := obs.NewLogger(os.Stderr, "experiments", *quiet)

	if *list {
		for _, e := range exp.Experiments() {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return harness.ExitOK
	}
	if (*obsIvl > 0 || *obsRate > 0) && *obsDir == "" {
		logger.Error("-obs-interval/-obs-rate need -obs-dir to land anywhere")
		return harness.ExitUsage
	}

	stopProf, err := obs.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		logger.Error("starting profiles", "err", err)
		return harness.ExitRunFailed
	}
	defer func() {
		if err := stopProf(); err != nil {
			logger.Error("writing profiles", "err", err)
		}
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	live, err := obs.StartLive(ctx, logger, *listen, *spansPath, 0)
	if err != nil {
		logger.Error("observability setup failed", "err", err)
		return harness.ExitUsage
	}
	defer live.Close()

	opts := exp.DefaultOptions()
	opts.Scale = *scale
	opts.Seed = *seed
	opts.Parallelism = *par
	opts.Harness = harness.RunConfig{StallTimeout: *stall}
	opts.OutDir = *obsDir
	opts.Metrics = live.Reg
	opts.Spans = live.Spans
	if *obsDir != "" {
		ivl := *obsIvl
		if ivl == 0 && *obsRate == 0 {
			// -obs-dir alone still means "observe": default the interval so
			// artifacts carry a learning curve.
			ivl = obs.DefaultInterval
		}
		opts.Telemetry = obs.Config{Interval: ivl, DecisionRate: *obsRate}
	}
	runner := exp.NewRunnerContext(ctx, opts)
	live.Ready()

	var selected []exp.Experiment
	if *runIDs == "" {
		selected = exp.Experiments()
	} else {
		for _, id := range strings.Split(*runIDs, ",") {
			e, err := exp.ByID(strings.TrimSpace(id))
			if err != nil {
				logger.Error("unknown experiment", "err", err)
				return harness.ExitUsage
			}
			selected = append(selected, e)
		}
	}
	logger.Info("starting", "experiments", len(selected), "scale", *scale, "seed", *seed,
		"obs_dir", *obsDir)

	// Pre-warm: fan the union of the selected experiments' simulation
	// matrices across the worker pool in one deduplicated batch. The
	// rendering loop below then reads memoized results in output order, so
	// cross-workload parallelism no longer depends on any one figure's
	// internal concurrency. Individual job failures are left for the owning
	// experiment to report in context; only batch-level corruption (a
	// mutated shared trace) aborts here.
	if warm := exp.PrewarmJobs(selected); len(warm) > 0 && ctx.Err() == nil {
		start := time.Now()
		if _, err := runner.RunJobs(warm); err != nil {
			logger.Error("pre-warm batch integrity check failed", "err", err)
			return harness.ExitRunFailed
		}
		logger.Info("pre-warm complete", "jobs", len(warm),
			"duration", time.Since(start).Round(time.Millisecond))
	}

	completed, failed := 0, 0
	for i, e := range selected {
		if ctx.Err() != nil {
			break
		}
		if i > 0 {
			fmt.Println()
		}
		fmt.Printf("### %s — %s (scale %g)\n\n", e.ID, e.Title, *scale)
		start := time.Now()
		if err := e.Run(runner, os.Stdout); err != nil {
			if harness.IsCancelled(err) || ctx.Err() != nil {
				break
			}
			// One failing experiment (bad pair, watchdog abort, recovered
			// panic) doesn't kill the sweep: report it and move on.
			logger.Error("experiment failed", "id", e.ID, "err", err)
			failed++
			continue
		}
		completed++
		logger.Info("experiment completed", "id", e.ID,
			"duration", time.Since(start).Round(time.Millisecond))
	}

	if ctx.Err() != nil {
		logger.Error("cancelled; partial results above",
			"completed", completed, "selected", len(selected))
		return harness.ExitCancelled
	}
	if failed > 0 {
		logger.Error("experiments failed", "failed", failed, "selected", len(selected))
		return harness.ExitRunFailed
	}
	logger.Info("done", "completed", completed)
	return harness.ExitOK
}
