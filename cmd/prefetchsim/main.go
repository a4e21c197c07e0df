// Command prefetchsim runs one workload under one or more prefetchers and
// prints the headline metrics (IPC, speedup vs no prefetching, MPKI,
// access categories).
//
// Usage:
//
//	prefetchsim -workload list [-prefetchers context,sms,none] [-scale 1] [-seed 1] [-v]
//	prefetchsim -workload list -config machine.json
//	prefetchsim -trace list.trace # replay a serialized trace (see tracegen)
//	prefetchsim -workload list -remote 127.0.0.1:7077 # cross-check prefetchd
//	prefetchsim -list             # list available workloads
//
// The rows run as one exp.Runner.RunJobs batch, the path cmd/experiments
// and cmd/sweep take, on GOMAXPROCS workers; they print in -prefetchers
// order, and speedup is IPC over the none row's (0 when none is not
// listed). Each row is built by exp.NewCellPrefetcher, the rule behind
// every figure: -seed seeds both the workload and the context prefetcher's
// learner, so a row equals the matching cmd/experiments cell at the same
// -scale and -seed. The names it accepts are exp.PrefetcherNames plus
// context-softmax, context-ucb and oracle. A -config file (see
// exp.FileConfig) sets the machine of every row; its context section
// configures the context rows only, and may not set Seed, which -seed
// derives. A -trace file enters the runner as a generated trace does, and
// the check after the batch that no run wrote to it covers it too.
//
// -remote streams the workload's access records to a running prefetchd
// (see cmd/prefetchd) and cross-checks every remote decision against an
// in-process learner: the daemon is a deterministic replica, so any
// mismatch is a serving bug. -timeout bounds the whole invocation with a
// hard wall-clock deadline; exceeding it is a run failure (exit 1), not a
// cancellation. SIGINT/SIGTERM cancel in-flight simulations; the partial
// table is printed. Tables go to stdout; progress and diagnostics go to
// stderr as structured logs (-q silences them). -listen serves live
// metrics (Prometheus /metrics, expvar, pprof) while the runs execute.
// Exit codes: 0 all runs completed, 1 at least one run failed (including
// -timeout expiry and -remote mismatches), 2 usage error, 3 cancelled
// (see DESIGN.md, "Failure model").
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"reflect"
	"strings"
	"syscall"
	"time"

	"semloc/internal/core"
	"semloc/internal/exp"
	"semloc/internal/harness"
	"semloc/internal/obs"
	"semloc/internal/obs/endpoint"
	"semloc/internal/serve"
	"semloc/internal/serve/client"
	"semloc/internal/stats"
	"semloc/internal/trace"
	"semloc/internal/workloads"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("prefetchsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload    = fs.String("workload", "", "workload name (see -list)")
		traceFile   = fs.String("trace", "", "replay a serialized trace instead of generating a workload")
		prefetchers = fs.String("prefetchers", "none,stride,ghb-gdc,ghb-pcdc,sms,markov,context", "comma-separated prefetcher names")
		scale       = fs.Float64("scale", 1, "workload scale factor")
		seed        = fs.Uint64("seed", 1, "seed for the workload and the context prefetcher's learner (the figures' base seed)")
		list        = fs.Bool("list", false, "list available workloads")
		verbose     = fs.Bool("v", false, "print access-category breakdown")
		configPath  = fs.String("config", "", "JSON machine/prefetcher config (see exp.FileConfig)")
		stall       = fs.Duration("stall", 0, "abort a run making no forward progress for this long (0 disables the watchdog)")
		timeout     = fs.Duration("timeout", 0, "hard wall-clock budget for the whole invocation; exceeding it exits 1 (0 disables)")
		quiet       = fs.Bool("q", false, "suppress progress logging (errors still print)")
		listen      = fs.String("listen", "", "serve /metrics, /debug/vars and pprof on this address while runs execute (empty host binds loopback)")
		remote      = fs.String("remote", "", "prefetchd address: stream the workload through the daemon and cross-check decisions against the in-process learner")
		session     = fs.String("session", "", "session name for -remote (default derives from the workload and pid)")
	)
	if err := fs.Parse(args); err != nil {
		return harness.ExitUsage
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "prefetchsim: unexpected arguments: %v\n", fs.Args())
		return harness.ExitUsage
	}
	logger := obs.NewLogger(stderr, "prefetchsim", *quiet)

	if *list {
		tb := stats.NewTable("workloads (Table 3)", "name", "suite", "irregular", "description")
		for _, w := range workloads.All() {
			tb.AddRow(w.Name, w.Suite, w.Irregular, w.Description)
		}
		tb.Render(stdout)
		return harness.ExitOK
	}
	if *workload == "" && *traceFile == "" {
		logger.Error("-workload or -trace required (or -list)")
		return harness.ExitUsage
	}
	if *traceFile == "" {
		if _, err := workloads.ByName(*workload); err != nil {
			logger.Error("unknown workload", "err", err)
			return harness.ExitUsage
		}
	}
	fc := &exp.FileConfig{}
	if *configPath != "" {
		var err error
		fc, err = exp.LoadConfig(*configPath)
		if err != nil {
			logger.Error("loading config", "path", *configPath, "err", err)
			return harness.ExitUsage
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// The deadline threads through the same cancellation path as signals;
	// harness.IsTimeout distinguishes the two at exit-code time.
	ctx, cancelTimeout := harness.WithTimeout(ctx, *timeout)
	defer cancelTimeout()

	live, err := endpoint.StartLive(ctx, logger, *listen, "", 0)
	if err != nil {
		logger.Error("observability setup failed", "err", err)
		return harness.ExitUsage
	}
	defer live.Close()
	opts := exp.DefaultOptions()
	opts.Scale, opts.Seed, opts.Sim = *scale, *seed, fc.SimConfig()
	opts.Harness = harness.RunConfig{StallTimeout: *stall}
	opts.Metrics = live.Reg
	runner := exp.NewRunnerContext(ctx, opts)

	tr, err := loadTrace(runner, *traceFile, *workload)
	if err != nil {
		logger.Error("loading trace", "err", err)
		return harness.ExitCode(ctx, logger, *timeout, nil, harness.IsCancelled(err), 1)
	}
	st := tr.ComputeStats()
	fmt.Fprintf(stdout, "workload %s: %d records, %d instructions, %d loads (%d dependent), %d stores\n\n",
		tr.Name, st.Records, st.Instructions, st.Loads, st.Dependent, st.Stores)

	if *remote != "" {
		name := *session
		if name == "" {
			name = fmt.Sprintf("prefetchsim-%s-%d", tr.Name, os.Getpid())
		}
		return runRemote(ctx, logger, stdout, tr, *remote, name, *timeout)
	}

	// One job per listed name, each checked before any of them runs by
	// building its prefetcher for an empty trace, which costs no pass over
	// tr (an oracle's does); RunJobs builds the prefetcher it runs.
	var jobs []exp.Job
	empty := trace.NewEmitter(tr.Name).Finish()
	for _, name := range strings.Split(*prefetchers, ",") {
		job := exp.Job{Workload: tr.Name, Prefetcher: strings.TrimSpace(name), Config: fc.Context}
		if _, err := exp.NewCellPrefetcher(empty, job, *seed); err != nil {
			logger.Error("building prefetcher", "prefetcher", job.Prefetcher, "err", err)
			return harness.ExitUsage
		}
		jobs = append(jobs, job)
	}
	live.Ready()
	results, batchErr := runner.RunJobs(jobs)

	var baseIPC float64
	for _, jr := range results {
		if jr.Job.Prefetcher == "none" && jr.Err == nil {
			baseIPC = jr.Result.IPC()
		}
	}
	tb := stats.NewTable("results", "prefetcher", "IPC", "speedup", "L1 MPKI", "L2 MPKI", "cycles")
	var verboseRows []string
	failed, cancelled := 0, false
	for _, jr := range results {
		switch {
		case jr.Err != nil && harness.IsCancelled(jr.Err):
			cancelled = true
			continue
		case jr.Err != nil:
			// One bad (workload, prefetcher) pair fails its row without
			// killing the rest of the comparison.
			logger.Error("run failed", "prefetcher", jr.Job.Prefetcher, "err", jr.Err)
			failed++
			continue
		}
		res := jr.Result
		speedup := 0.0
		if baseIPC > 0 {
			speedup = res.IPC() / baseIPC
		}
		tb.AddRow(res.Prefetcher, res.IPC(), speedup, res.L1MPKI(), res.L2MPKI(), res.CPU.Cycles)
		if *verbose {
			c := res.Categories
			d := float64(c.Demand)
			verboseRows = append(verboseRows, fmt.Sprintf(
				"%-10s hitPF=%.3f shorterWait=%.3f nonTimely=%.3f missNoPF=%.3f hitDemand=%.3f neverHit=%.3f",
				res.Prefetcher, f(c.HitPrefetched, d), f(c.ShorterWait, d), f(c.NonTimely, d),
				f(c.MissNotPrefetched, d), f(c.HitOlderDemand, d), f(c.PrefetchNeverHit, d)))
		}
	}
	tb.Render(stdout)
	if *verbose {
		fmt.Fprintln(stdout, "\naccess categories (fraction of demand accesses):")
		for _, row := range verboseRows {
			fmt.Fprintln(stdout, row)
		}
	}
	return harness.ExitCode(ctx, logger, *timeout, batchErr, cancelled, failed)
}

// loadTrace returns the trace the rows replay: the workload the runner
// generates, or the -trace file, handed to the runner so that the check
// after the batch covers it as it covers a generated trace.
func loadTrace(r *exp.Runner, path, workload string) (*trace.Trace, error) {
	if path == "" {
		return r.Trace(workload)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	tr, err := trace.Read(f)
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	return tr, r.AddTrace(tr)
}

// runRemote replays the trace's access records through a prefetchd daemon
// and cross-checks every decision against an in-process learner. The
// serving learner is deterministic (see internal/serve), so a healthy
// daemon matches bit-for-bit; degraded fallback decisions (daemon shedding
// load) are counted separately because the daemon's learner skipped those
// accesses and the streams are no longer comparable afterwards.
func runRemote(ctx context.Context, logger *slog.Logger, stdout io.Writer, tr *trace.Trace, addr, session string, timeout time.Duration) int {
	frames := serve.AccessFrames(tr)
	local, err := serve.NewLearner(core.Config{})
	if err != nil {
		logger.Error("building reference learner", "err", err)
		return harness.ExitRunFailed
	}
	c, err := client.Dial(client.Config{
		Addr:    client.FixedAddr(addr),
		Session: session,
		Logf: func(format string, a ...any) {
			logger.Info(fmt.Sprintf(format, a...))
		},
	})
	if err != nil {
		logger.Error("dialing prefetchd", "addr", addr, "err", err)
		return harness.ExitRunFailed
	}
	defer c.Close()
	if c.Resumed() {
		// The local learner starts cold; a warm daemon session cannot be
		// cross-checked against it.
		logger.Error("session already exists on the daemon; pick a fresh -session",
			"session", session, "server_seq", c.ServerSeq())
		return harness.ExitRunFailed
	}
	logger.Info("streaming to prefetchd", "addr", addr, "session", session,
		"accesses", len(frames))

	start := time.Now()
	matched, degraded, mismatched := 0, 0, 0
	cancelled := false
	for i := range frames {
		if ctx.Err() != nil {
			cancelled = true
			break
		}
		fr := &frames[i]
		a := fr.Access()
		pf, sh := local.DecideAccess(&a)
		got, err := c.Decide(fr)
		if err != nil {
			logger.Error("remote decision failed", "seq", fr.Seq, "err", err)
			return harness.ExitRunFailed
		}
		switch {
		case got.Degraded:
			degraded++
		case serve.SameDecision(got, &serve.Frame{Prefetch: pf, Shadow: sh}):
			matched++
		default:
			if mismatched == 0 {
				logger.Error("daemon decision diverged from in-process learner",
					"seq", fr.Seq, "remote", got.Prefetch, "local", pf)
			}
			mismatched++
		}
	}

	tb := stats.NewTable(fmt.Sprintf("remote cross-check vs %s", addr),
		"accesses", "matched", "degraded", "mismatched", "retries", "reconnects")
	tb.AddRow(matched+degraded+mismatched, matched, degraded, mismatched, c.Retries, c.Reconnects)
	tb.Render(stdout)
	logger.Info("remote stream complete", "duration", time.Since(start).Round(time.Millisecond))

	if mismatched > 0 && !cancelled {
		logger.Error("daemon diverged from the in-process learner", "mismatched", mismatched)
		dumpDivergence(logger, stdout, c, local)
	}
	return harness.ExitCode(ctx, logger, timeout, nil, cancelled, mismatched)
}

// dumpDivergence prints both sides' learner state after a cross-check
// mismatch: the daemon's per-session stats frame (with its learner-health
// snapshot) next to the in-process learner's health, so the first
// diverging counter is visible without re-running under a tracer.
func dumpDivergence(logger *slog.Logger, stdout io.Writer, c *client.Client, local *serve.Learner) {
	st, err := c.Stats()
	if err != nil {
		logger.Error("fetching session stats after mismatch", "err", err)
		return
	}
	lh := local.Health()
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	fmt.Fprintln(stdout, "remote session stats:")
	if err := enc.Encode(st); err != nil {
		logger.Error("encoding remote stats", "err", err)
		return
	}
	fmt.Fprintln(stdout, "local learner health:")
	if err := enc.Encode(&lh); err != nil {
		logger.Error("encoding local health", "err", err)
		return
	}
	if st.Learner != nil {
		if first := firstHealthDiff(st.Learner, &lh); first != "" {
			logger.Error("first diverging learner-health field", "field", first)
		}
	}
}

// firstHealthDiff names, by its JSON key, the first field of the
// learner-health snapshot that differs between the remote and local
// learners, or "". obs.LearnerHealth declares its fields in causal order,
// so the name points at the earliest divergence rather than a downstream
// symptom.
func firstHealthDiff(remote, local *obs.LearnerHealth) string {
	rv, lv := reflect.ValueOf(remote).Elem(), reflect.ValueOf(local).Elem()
	for i := 0; i < rv.NumField(); i++ {
		if !reflect.DeepEqual(rv.Field(i).Interface(), lv.Field(i).Interface()) {
			key, _, _ := strings.Cut(rv.Type().Field(i).Tag.Get("json"), ",")
			return key
		}
	}
	return ""
}

func f(n uint64, d float64) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / d
}
