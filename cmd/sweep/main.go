// Command sweep measures the context prefetcher's sensitivity to one
// configuration parameter: it runs a workload across a list of values and
// prints per value the speedup (vs no prefetching), IPC and L1 MPKI, and
// the learner's accuracy estimate and real prefetches at the end of the
// run (exp.JobResult.Learner).
//
// Usage:
//
//	sweep -workload list -param epsilon -values 0,0.02,0.05,0.1,0.2
//	sweep -workload mcf -param maxdegree -values 1,2,4,8 -scale 0.5
//	sweep -workload list -param epsilon -values 0,0.1 -parallel 8
//	sweep -params                      # list sweepable parameters
//
// Every -values entry is parsed and validated up front, before the
// expensive baseline simulation, so a typo in the last value fails fast.
// The baseline and the points run as one batch on the experiment engine's
// worker pool (-parallel, default GOMAXPROCS). Every point's learner
// explores with the same seed, derived from -seed, the workload and the
// prefetcher name (common random numbers), so the rows differ by the swept
// value alone, a value listed twice is one run printed twice, and the
// table is bit-identical at any parallelism. SIGINT/SIGTERM cancel
// in-flight simulations; the partial table is printed. The result table
// goes to stdout; progress and diagnostics go to stderr as structured logs
// (-q silences them). -listen serves live metrics (Prometheus /metrics,
// expvar, pprof) while the sweep runs; -spans records a Perfetto-loadable
// span trace of every cell (inspect it with "inspect spans"). -timeout
// bounds the whole sweep with a hard wall-clock deadline; exceeding it is
// a run failure, not a cancellation. Exit codes: 0 completed, 1 a run
// failed (including -timeout expiry), 2 usage error, 3 cancelled (see
// DESIGN.md, "Failure model").
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"semloc/internal/core"
	"semloc/internal/exp"
	"semloc/internal/harness"
	"semloc/internal/obs"
	"semloc/internal/obs/endpoint"
	"semloc/internal/stats"
	"semloc/internal/workloads"
)

// param describes one sweepable configuration axis.
type param struct {
	name  string
	desc  string
	apply func(cfg *core.Config, v string) error
}

var params = []param{
	{"epsilon", "exploration rate of the ε-greedy policy", func(c *core.Config, v string) error {
		f, err := strconv.ParseFloat(v, 64)
		c.Epsilon = f
		return err
	}},
	{"maxdegree", "maximum prefetches per access", func(c *core.Config, v string) error {
		n, err := strconv.Atoi(v)
		c.MaxDegree = n
		return err
	}},
	{"cstentries", "context-states-table entries (reducer scales at 8x)", func(c *core.Config, v string) error {
		n, err := strconv.Atoi(v)
		c.CSTEntries = n
		c.ReducerEntries = n * 8
		return err
	}},
	{"cstlinks", "candidate links per CST entry", func(c *core.Config, v string) error {
		n, err := strconv.Atoi(v)
		c.CSTLinks = n
		return err
	}},
	{"history", "history queue depth (sample depths adjust to fit)", func(c *core.Config, v string) error {
		n, err := strconv.Atoi(v)
		if err != nil {
			return err
		}
		c.HistoryDepth = n
		var depths []int
		for d := 1; d < n; d++ {
			depths = append(depths, d)
		}
		c.SampleDepths = depths
		return nil
	}},
	{"queue", "prefetch queue depth", func(c *core.Config, v string) error {
		n, err := strconv.Atoi(v)
		c.QueueDepth = n
		return err
	}},
	{"blockshift", "log2 of the prefetch block size", func(c *core.Config, v string) error {
		n, err := strconv.Atoi(v)
		c.BlockShift = uint(n)
		return err
	}},
	{"rewardhigh", "upper edge of the positive reward window", func(c *core.Config, v string) error {
		n, err := strconv.Atoi(v)
		c.Reward.High = n
		return err
	}},
	{"policy", "exploration policy (egreedy, softmax, ucb)", func(c *core.Config, v string) error {
		p, err := core.ParsePolicy(v)
		c.Policy = p
		return err
	}},
}

func findParam(name string) (param, bool) {
	for _, p := range params {
		if p.name == name {
			return p, true
		}
	}
	return param{}, false
}

// sweepPoint is one pre-validated value of the swept parameter.
type sweepPoint struct {
	value string
	cfg   core.Config
}

// validateValues parses and validates every swept value against the
// default configuration, before any simulation work happens. The returned
// error names the parameter and the offending value.
func validateValues(p param, values string) ([]sweepPoint, error) {
	var points []sweepPoint
	for _, v := range strings.Split(values, ",") {
		v = strings.TrimSpace(v)
		cfg := core.DefaultConfig()
		if err := p.apply(&cfg, v); err != nil {
			return nil, fmt.Errorf("-param %s value %q: %w", p.name, v, err)
		}
		if err := cfg.Validate(); err != nil {
			return nil, fmt.Errorf("-param %s value %q: %w", p.name, v, err)
		}
		points = append(points, sweepPoint{value: v, cfg: cfg})
	}
	return points, nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload  = fs.String("workload", "list", "workload name")
		paramName = fs.String("param", "", "parameter to sweep (see -params)")
		values    = fs.String("values", "", "comma-separated parameter values")
		scale     = fs.Float64("scale", 0.3, "workload scale factor")
		seed      = fs.Uint64("seed", 1, "seed for the workload and every point's learner")
		parallel  = fs.Int("parallel", 0, "concurrent simulations (0 = GOMAXPROCS)")
		list      = fs.Bool("params", false, "list sweepable parameters")
		stall     = fs.Duration("stall", 0, "abort a run making no forward progress for this long (0 disables the watchdog)")
		timeout   = fs.Duration("timeout", 0, "hard wall-clock budget for the whole sweep; exceeding it exits 1 (0 disables)")
		quiet     = fs.Bool("q", false, "suppress progress logging (errors still print)")
		listen    = fs.String("listen", "", "serve /metrics, /debug/vars and pprof on this address while the sweep runs (empty host binds loopback)")
		spansPath = fs.String("spans", "", "write a Chrome trace-event span file (Perfetto-loadable) here on exit")
	)
	if err := fs.Parse(args); err != nil {
		return harness.ExitUsage
	}
	logger := obs.NewLogger(stderr, "sweep", *quiet)

	if *list {
		sort.Slice(params, func(i, j int) bool { return params[i].name < params[j].name })
		for _, p := range params {
			fmt.Fprintf(stdout, "%-12s %s\n", p.name, p.desc)
		}
		return harness.ExitOK
	}
	p, ok := findParam(*paramName)
	if !ok {
		logger.Error("unknown parameter (see -params)", "param", *paramName)
		return harness.ExitUsage
	}
	if *values == "" {
		logger.Error("-values required")
		return harness.ExitUsage
	}
	// Validate every value before paying for the baseline simulation.
	points, err := validateValues(p, *values)
	if err != nil {
		logger.Error("invalid sweep values", "err", err)
		return harness.ExitUsage
	}
	if _, err := workloads.ByName(*workload); err != nil {
		logger.Error("unknown workload", "err", err)
		return harness.ExitUsage
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// The deadline threads through the same cancellation path as signals;
	// harness.IsTimeout distinguishes the two at exit-code time.
	ctx, cancelTimeout := harness.WithTimeout(ctx, *timeout)
	defer cancelTimeout()

	live, err := endpoint.StartLive(ctx, logger, *listen, *spansPath, 0)
	if err != nil {
		logger.Error("observability setup failed", "err", err)
		return harness.ExitUsage
	}
	defer live.Close()

	opts := exp.DefaultOptions()
	opts.Scale = *scale
	opts.Seed = *seed
	opts.Parallelism = *parallel
	opts.Harness = harness.RunConfig{StallTimeout: *stall}
	opts.Metrics = live.Reg
	opts.Spans = live.Spans
	runner := exp.NewRunnerContext(ctx, opts)
	live.Ready()

	// Job 0 is the no-prefetch baseline; jobs 1..n are the sweep points,
	// labelled by their index.
	jobs := make([]exp.Job, 0, 1+len(points))
	jobs = append(jobs, exp.Job{Workload: *workload, Prefetcher: "none"})
	for i, pt := range points {
		cfg := pt.cfg
		jobs = append(jobs, exp.Job{Workload: *workload, Prefetcher: "context", Point: i, Config: &cfg})
	}

	eff := *parallel
	if eff <= 0 {
		eff = runtime.GOMAXPROCS(0)
	}
	start := time.Now()
	results, batchErr := runner.RunJobs(jobs)
	logger.Info("sweep batch complete", "workload", *workload, "param", *paramName,
		"points", len(points), "parallel", eff)

	tb := stats.NewTable(
		fmt.Sprintf("sweep %s over %s on %s (scale %g)", *paramName, *values, *workload, *scale),
		*paramName, "speedup", "IPC", "L1 MPKI", "accuracy", "real-prefetches", "storage")
	failed, cancelled := 0, false

	base := results[0]
	switch {
	case base.Err != nil && harness.IsCancelled(base.Err):
		cancelled = true
	case base.Err != nil:
		logger.Error("baseline run failed", "err", base.Err)
		failed++
	case base.Result.IPC() == 0:
		logger.Error("baseline IPC is zero")
		failed++
	}
	for i, pt := range points {
		jr := results[1+i]
		switch {
		case jr.Err != nil && harness.IsCancelled(jr.Err):
			cancelled = true
			continue
		case jr.Err != nil:
			logger.Error("sweep point failed", "value", pt.value, "err", jr.Err)
			failed++
			continue
		case base.Err != nil || base.Result.IPC() == 0:
			continue // speedup undefined without the baseline
		}
		tb.AddRow(pt.value, jr.Result.IPC()/base.Result.IPC(), jr.Result.IPC(), jr.Result.L1MPKI(), jr.Learner.Accuracy,
			jr.Learner.RealPrefetches, fmt.Sprintf("%dkB", pt.cfg.StorageBytes()>>10))
	}
	tb.Render(stdout)
	logger.Info("sweep complete", "duration", time.Since(start).Round(time.Millisecond))

	return harness.ExitCode(ctx, logger, *timeout, batchErr, cancelled, failed)
}
