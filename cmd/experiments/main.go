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
// The selected experiments' cells run as one batch, each distinct cell
// once, before the first table prints; an experiment whose cells failed
// is reported on stderr and the others still print. SIGINT/SIGTERM cancel
// in-flight simulations, and nothing more prints. Exit codes: 0 all
// experiments completed, 1 at least one experiment failed, 2 usage error,
// 3 cancelled (see DESIGN.md, "Failure model").
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"semloc/internal/exp"
	"semloc/internal/harness"
	"semloc/internal/obs"
	"semloc/internal/obs/endpoint"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		runIDs     = fs.String("run", "", "comma-separated experiment ids (default: all)")
		scale      = fs.Float64("scale", 1, "workload scale factor")
		seed       = fs.Uint64("seed", 1, "workload seed")
		list       = fs.Bool("list", false, "list experiment ids")
		par        = fs.Int("parallel", 0, "max concurrent simulations (default GOMAXPROCS)")
		stall      = fs.Duration("stall", 0, "abort a run making no forward progress for this long (0 disables the watchdog)")
		quiet      = fs.Bool("q", false, "suppress progress logging (errors still print)")
		obsDir     = fs.String("obs-dir", "", "persist per-run telemetry artifacts into this directory")
		obsIvl     = fs.Uint64("obs-interval", 0, "sample time-series metrics every N demand accesses (0 disables; requires -obs-dir)")
		obsRate    = fs.Uint64("obs-rate", 0, "trace one in N prefetch decisions to a JSONL file (0 disables; requires -obs-dir)")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = fs.String("memprofile", "", "write a heap profile to this file on exit")
		listen     = fs.String("listen", "", "serve /metrics, /debug/vars and pprof on this address while experiments run (empty host binds loopback)")
		spansPath  = fs.String("spans", "", "write a Chrome trace-event span file (Perfetto-loadable) here on exit")
	)
	if err := fs.Parse(args); err != nil {
		return harness.ExitUsage
	}
	logger := obs.NewLogger(stderr, "experiments", *quiet)

	if *list {
		for _, e := range exp.Experiments() {
			fmt.Fprintf(stdout, "%-8s %s\n", e.ID, e.Title)
		}
		return harness.ExitOK
	}
	if (*obsIvl > 0 || *obsRate > 0) && *obsDir == "" {
		logger.Error("-obs-interval/-obs-rate need -obs-dir to land anywhere")
		return harness.ExitUsage
	}

	stopProf, err := endpoint.StartProfiles(*cpuProfile, *memProfile)
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

	live, err := endpoint.StartLive(ctx, logger, *listen, *spansPath, 0)
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

	// One batch: the selected experiments' cells, concatenated. RunJobs
	// runs each distinct cell once, and each experiment renders its own
	// slice of the results. A failed cell fails the experiments that read
	// it; only batch-level corruption (a mutated shared trace) aborts here.
	var jobs []exp.Job
	counts := make([]int, len(selected))
	for i, e := range selected {
		if e.Jobs != nil {
			js := e.Jobs()
			jobs = append(jobs, js...)
			counts[i] = len(js)
		}
	}
	start := time.Now()
	results, err := runner.RunJobs(jobs)
	if err != nil {
		logger.Error("batch integrity check failed", "err", err)
		return harness.ExitRunFailed
	}
	logger.Info("simulations complete", "jobs", len(jobs),
		"duration", time.Since(start).Round(time.Millisecond))

	completed, failed := 0, 0
	for i, e := range selected {
		cells := results[:counts[i]]
		results = results[counts[i]:]
		if ctx.Err() != nil {
			break
		}
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		fmt.Fprintf(stdout, "### %s — %s (scale %g)\n\n", e.ID, e.Title, *scale)
		if err := e.Render(cells, runner.Options(), stdout); err != nil {
			// One failing experiment (bad cell, watchdog abort, recovered
			// panic) doesn't stop the others: report it and move on.
			logger.Error("experiment failed", "id", e.ID, "err", err)
			failed++
			continue
		}
		completed++
		logger.Info("experiment completed", "id", e.ID)
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
