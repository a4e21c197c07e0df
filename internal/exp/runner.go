package exp

import (
	"context"
	"fmt"
	"os"
	"runtime"

	"semloc/internal/harness"
	"semloc/internal/obs"
	"semloc/internal/prefetch"
	"semloc/internal/sim"
	"semloc/internal/trace"
	"semloc/internal/workloads"
)

// Options configures an experiment run.
type Options struct {
	// Scale is the workload scale factor (1 = standard size).
	Scale float64
	// Seed drives the workload generators and, via DeriveSeed, each run's
	// exploration RNG.
	Seed uint64
	// Sim is the machine configuration (defaults to Table 2).
	Sim sim.Config
	// Parallelism bounds concurrent simulations (defaults to GOMAXPROCS).
	Parallelism int
	// Harness bounds each simulation run (watchdog, cancellation grace).
	// The zero value disables the watchdog; panic containment is always on.
	Harness harness.RunConfig
	// Telemetry enables interval sampling and decision tracing for every
	// run. Its DecisionSink is ignored: the Runner manages one sink per
	// run (a .decisions.jsonl file under OutDir). The zero value keeps
	// every run on the telemetry-free fast path.
	Telemetry obs.Config
	// OutDir, when non-empty, persists one JSON artifact per completed run
	// (result + final metrics + learned-state summary + telemetry series;
	// see RunArtifact), plus a decision trace when Telemetry.DecisionRate
	// is set. The directory is created on first use.
	OutDir string
	// Metrics, when non-nil, receives the live batch counters the commands
	// expose over -listen and feed to the progress reporter: cells
	// submitted/done/failed, queue-wait and run-time histograms, and
	// last-completed-cell gauges (see the obs.Metric*/obs.Gauge* names).
	// Updates happen at cell granularity — never on the per-access hot
	// path — and a nil registry keeps the engine metric-free.
	Metrics *obs.Registry
	// Spans, when non-nil, records one span per executed simulation (with
	// decode / queue-wait / warmup / measured phase timings) and per trace
	// generation, exportable as Chrome trace-event JSON. Nil disables
	// tracing at zero cost.
	Spans *obs.SpanRecorder
}

// DefaultOptions returns the standard experiment setup.
func DefaultOptions() Options {
	return Options{Scale: 1, Seed: 1, Sim: sim.DefaultConfig()}
}

// Runner runs batches of simulation cells (RunJobs), memoizing generated
// traces so every batch and every figure shares one generation per
// workload. Every run executes under the harness: a panicking or stalled
// cell fails its own run without taking down the batch, and cancelling the
// runner's context stops in-flight simulations promptly.
//
// Traces live in a TraceCache (shared read-only across all concurrent
// runs); per-run mutable scratch is recycled through a sim.RunPool, so a
// long experiment matrix reaches a steady state where simulations stop
// allocating cache hierarchies. Results are not kept between batches: a
// command submits all the cells it reads as one batch, and RunJobs runs
// each distinct cell of it once.
type Runner struct {
	opts   Options
	ctx    context.Context
	traces *TraceCache
	pool   *sim.RunPool
	met    *runMetrics
	lm     *obs.LearnerMetrics
	spans  *obs.SpanRecorder
	sem    chan struct{}
}

// NewRunner creates a runner with a background context.
func NewRunner(opts Options) *Runner {
	return NewRunnerContext(context.Background(), opts)
}

// NewRunnerContext creates a runner whose simulations abort when ctx is
// cancelled.
func NewRunnerContext(ctx context.Context, opts Options) *Runner {
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.Scale <= 0 {
		opts.Scale = 1
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.Sim.CPU.Width == 0 {
		opts.Sim = sim.DefaultConfig()
	}
	p := opts.Parallelism
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	tc := NewTraceCache(opts.Scale, opts.Seed)
	if opts.Spans != nil {
		tc.SetSpans(opts.Spans)
	}
	// Learner-health instruments only register when an interval-sampled
	// run will actually feed them: a metric-carrying but telemetry-free
	// sweep keeps its /metrics surface unchanged.
	var lm *obs.LearnerMetrics
	if opts.Telemetry.Interval > 0 {
		lm = obs.NewLearnerMetrics(opts.Metrics)
	}
	return &Runner{
		opts:   opts,
		ctx:    ctx,
		traces: tc,
		pool:   sim.NewRunPool(),
		met:    newRunMetrics(opts.Metrics),
		lm:     lm,
		spans:  opts.Spans,
		sem:    make(chan struct{}, p),
	}
}

// Options returns the runner's options.
func (r *Runner) Options() Options { return r.opts }

// Trace returns the (cached) generated trace for a workload; see
// TraceCache.Get for the single-flight and supervision contract.
func (r *Runner) Trace(workload string) (*trace.Trace, error) {
	tr, err := r.traces.Get(r.ctx, workload)
	if err != nil {
		return nil, fmt.Errorf("exp: generating %s: %w", workload, err)
	}
	return tr, nil
}

// AddTrace hands the runner a trace it did not generate, such as one read
// from a file; jobs whose Workload is tr.Name replay it. It enters the
// cache as a finished generation does, digest included, so the integrity
// check after each batch covers it too. A second trace under a name the
// runner already holds is refused.
func (r *Runner) AddTrace(tr *trace.Trace) error {
	got, err := r.traces.land(tr.Name, tr)
	if err != nil {
		return fmt.Errorf("exp: adding trace %q: %w", tr.Name, err)
	}
	if got != tr {
		return fmt.Errorf("exp: adding trace %q: the runner already holds a trace of that name", tr.Name)
	}
	return nil
}

// run simulates one cell: it builds the cell's prefetcher with
// NewCellPrefetcher, waits for a worker slot and runs the simulation under
// the harness with pooled scratch. Only named cells (Config == nil) get
// telemetry, a decision trace and an artifact: the artifact namespace is
// keyed by (workload, prefetcher name), which a sweep's points would
// collide all over. The prefetcher instance comes back for parameterised
// callers that read its learned state.
func (r *Runner) run(job Job) (*sim.Result, prefetch.Prefetcher, error) {
	named, cell := job.Config == nil, job.cell()
	ct := r.beginCell(job.Workload, job.Prefetcher, job.Point)
	fail := func(err error) (*sim.Result, prefetch.Prefetcher, error) {
		ct.finish(nil, err)
		return nil, nil, err
	}
	tr, err := r.traces.Get(r.ctx, job.Workload)
	if err != nil {
		return fail(fmt.Errorf("exp: %s: generating the trace: %w", cell, err))
	}
	ct.decodeDone()
	pf, err := NewCellPrefetcher(tr, job, r.opts.Seed)
	if err != nil {
		return fail(fmt.Errorf("exp: %s: %w", cell, err))
	}
	ct.queueStart()
	select {
	case r.sem <- struct{}{}:
	case <-r.ctx.Done():
		return fail(fmt.Errorf("exp: %s: %w", cell, context.Cause(r.ctx)))
	}
	ct.queueDone()
	r.met.workerAcquired()
	defer func() {
		<-r.sem
		r.met.workerReleased()
	}()

	simCfg := r.opts.Sim
	simCfg.Pool = r.pool
	ct.installWarmup(&simCfg)
	var decFile *os.File
	if named && (r.opts.Telemetry.Interval > 0 || r.opts.Telemetry.DecisionRate > 0) {
		simCfg.Obs = r.opts.Telemetry
		simCfg.Obs.DecisionSink = nil
		// Live learner-health gauges are last-writer-wins across parallel
		// cells (counters sum), exactly like the cell-level run metrics.
		simCfg.Obs.Learner = r.lm
		// Only instrumented prefetchers emit decision events; skip the file
		// for the rest so the artifact dir isn't littered with empty traces.
		_, instrumented := pf.(obs.Attachable)
		if r.opts.OutDir != "" && r.opts.Telemetry.DecisionRate > 0 && instrumented {
			if err := os.MkdirAll(r.opts.OutDir, 0o755); err != nil {
				return fail(fmt.Errorf("exp: %s: telemetry dir: %w", cell, err))
			}
			decFile, err = os.Create(DecisionsPath(r.opts.OutDir, job.Workload, job.Prefetcher))
			if err != nil {
				return fail(fmt.Errorf("exp: %s: decision trace: %w", cell, err))
			}
			defer decFile.Close()
			simCfg.Obs.DecisionSink = decFile
		}
	}

	res, err := harness.Run(r.ctx, tr, pf, simCfg, r.opts.Harness)
	ct.finish(res, err)
	if err != nil {
		return nil, nil, fmt.Errorf("exp: %s: %w", cell, err)
	}
	if decFile != nil {
		if err := decFile.Close(); err != nil {
			return nil, nil, fmt.Errorf("exp: %s: decision trace: %w", cell, err)
		}
	}
	if named && r.opts.OutDir != "" {
		if _, err := WriteArtifact(r.opts.OutDir, newRunArtifact(res, pf, r.opts)); err != nil {
			return nil, nil, fmt.Errorf("exp: %s: %w", cell, err)
		}
	}
	return res, pf, nil
}

// AllWorkloads lists every Table 3 workload name.
func AllWorkloads() []string { return workloads.Names() }

// SPECWorkloads lists the SPEC2006 subset.
func SPECWorkloads() []string {
	var out []string
	for _, w := range workloads.Suite("spec2006") {
		out = append(out, w.Name)
	}
	return out
}
