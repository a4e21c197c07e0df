// Command perfbench is the repository's benchmark: one invocation runs one
// named workload in a fresh process, checks that every output is correct,
// and prints its metrics by name and unit as one JSON object on the last
// line of standard output. BENCHMARK.json at the repository root declares
// the workloads, the metrics, their directions and the regression bounds;
// perfbench/run.sh builds this command and prefetchd from source and runs
// it:
//
//	bash perfbench/run.sh --workload sim-context --seed 1 --seconds 20 --trace 0
//
// The seed generates every input (traces and access streams); --seconds is
// the length of the measured phase; --trace 0 prints the end-to-end
// metrics, --trace 1 runs the same measurement followed by a traced phase
// and prints the per-layer metrics instead. Diagnostics go to standard
// error. Any failed correctness or closure check exits 1 without printing
// a result.
//
// perfbench is a Go module of its own (semloc/perfbench, using the
// repository's packages through a replace directive), so the repository's
// `go test ./...` does not run its tests; run them with
//
//	cd perfbench && go test .
//
// # Workloads
//
// The system is two stacks sharing one learner: the simulator (trace →
// cpu timing model → cache hierarchy → prefetcher) and the serving daemon
// (client → codec → session worker → learner → write coalescer).
//
//   - sim-context: traces list, mcf, graph500-list, array and suffixArray
//     at scale 0.25 under the context prefetcher. The core learner's
//     OnAccess does most of the host work here, so any learner change
//     shows; suffixArray (a third of its accesses are stores) exercises
//     the AccessWrite/write-back path the other traces barely touch.
//   - sim-baseline: the same five traces under none, sms and ghb-gdc. The
//     core learner does no work here: a learner-only change must read
//     unchanged, while cpu and cache changes show on both sim workloads.
//   - serve-batch: the real prefetchd binary, driven closed-loop by 2
//     sessions sending batches of 16 accesses from the list stream (scale
//     0.2); 2 s of warm-up are discarded. Saturation is bound by the batch
//     path: codec, session worker, learner and write coalescer.
//   - serve-single: prefetchd with 1 session in open loop at 5,000
//     decisions/s, one access frame per decision, same stream and warm-up.
//     Latency at moderate load on the single-frame path, which shows any
//     cost of folding it into the batch path. The session waits for each
//     reply before its next send, so the round trip (40-60 µs) must stay
//     below the send interval; at 10,000/s it did not during slow periods
//     of the reference machine, and the schedule fell behind.
//
// Load comes from this one process over at most 2 connections (the
// reference machine has 2 CPUs); the daemon is a separate process.
//
// # End-to-end metrics (--trace 0)
//
// Every workload reports all three; the bound is the share by which the
// median may worsen before a change counts as a regression.
//
//   - peak_rss_mb (MiB, lower, 10%): VmHWM read before the traced phase.
//     Simulator: this process over the timed passes; the high-water mark
//     is reset after set-up, so it measures the simulator on its traces
//     rather than the trace generators' garbage. Daemon: over its life.
//   - speedup_geomean (ratio, higher, 10%): simulated, so exact for a seed.
//     Simulator: the geometric mean over the cells with a prefetcher of the
//     cell's IPC over its trace's IPC without one (sim-context runs those
//     untimed). Daemon: the same for the serving learner's decisions issued
//     as prefetches on the five traces at the serving scale, generated from
//     three seeds derived from the run's; on the first seed's list trace
//     these are the decisions the daemon was checked to make. Its spread
//     over seeds is the inputs' variety, not noise: the same seed gives the
//     same value.
//   - setup_s (s, lower, 25%): the median of five set-ups per run after an
//     untimed one, each taken to the reference speed (see calibNominal).
//     Simulator: generating the five traces. Daemon: generating the access
//     stream plus exec of prefetchd until its serving socket listens.
//
// Failed operations (transport errors, busy and degraded answers) are
// reported in the result's failed field against attempted.
//
// Throughput, host cost per operation and latency are per-layer metrics,
// although a user sees them, because none holds a 10% bound on the
// reference machine and every workload must report every end-to-end
// metric. Over sets of ten seeded runs of 20 s, the quartile spread reached
// 29% for the daemon's throughput, 18% for its latency percentiles and 22%
// for the simulator's throughput, in periods when other tenants slowed the
// machine by up to 40% for minutes at a time (perfbench/STABILITY.md).
// Fastest passes, best or median 1-s slices, and calibrating every pass or
// slice against a fixed kernel each narrowed some spreads but none below
// the bound in every set. Longer runs cannot help: the drift is between
// runs, not within one.
//
// # Per-layer metrics (--trace 1)
//
// Per-layer metrics carry no bound and are host times as measured. Each
// layer is measured from outside, through its public functions, by
// replaying what it received during the run, as the fastest of 5 replays.
// Each number below is per operation (access or decision) and names the
// host-time metric it moves. The daemon's traced phase is a second run of
// the load, 2 s of warm-up plus 5 s, against a daemon sampling request
// spans.
//
//   - throughput_per_s: simulator: simulated instructions per host second,
//     over each cell's fastest pass (at least 10 sequential passes, as many
//     as fit in --seconds). Daemon: decisions per second over the window,
//     up to the last reply; in serve-single it falls short of the offered
//     5,000/s only when the daemon cannot keep up.
//   - host_ns_per_op: host time per operation of the system under test.
//     Simulator: the sum over cells of each cell's fastest pass divided by
//     the demand accesses simulated; the simulator is single-threaded, so
//     this wall time is its CPU time. Daemon: the CPU time of all its
//     threads (schedstat, in ns) over the window per decision served.
//   - latency_p50_us, latency_p90_us, latency_p99_us, latency_p9999_us,
//     latency_samples: percentiles and count of the latency samples,
//     computed exactly from raw samples held in preallocated slices, never
//     from histogram buckets. serve-batch: the round trip of each batch
//     from its send. serve-single: each decision from its scheduled send,
//     so a stall is charged to the requests it delays; both over the whole
//     window. Simulator: each simulated access waits for its cell's result,
//     so the median and p90 are over accesses of their cell's fastest pass;
//     the tails and the count are over every pass of every cell.
//   - traced_ns_per_op: the traced run's end-to-end time per operation,
//     which the stages below must add up to. Simulator: each cell run once
//     more (fastest of 3) through sim.RunContext with a recording
//     prefetcher wrapper that logs every OnAccess input and every
//     Prefetch/Shadow/FreePrefetchSlots call with its answer. Daemon: the
//     client round trip per decision while the daemon samples one request
//     span per 64.
//   - produce_ns_per_op: the layer that turns input into the learner's
//     accesses. Simulator: cpu.RunContext replayed against a cpu.Memory
//     stub answering with the replayed completion cycles; its result must
//     equal the run's cpu.Result (moves throughput on both sim workloads,
//     with a larger share on sim-baseline). Daemon: the request codec,
//     serve.AppendFrame plus serve.DecodeFrameInto over the request frames
//     (moves throughput on serve-batch, latency on serve-single).
//   - decide_ns_per_op: the decision layer alone. Simulator: OnAccess of a
//     fresh prefetcher (core.DefaultConfig with the exp.DeriveSeed seed for
//     context) against an issuer stub returning the recorded answers; the
//     call sequence must be identical. Daemon: serve.NewLearner plus
//     DecideAccess over the stream. The core learner moves throughput on
//     sim-context and serve-batch and latency on serve-single, and must
//     leave sim-baseline unchanged.
//   - apply_ns_per_op: the layer that acts on the decision. Simulator: the
//     demand and prefetch stream replayed into a fresh
//     cache.New(cache.DefaultConfig()), which must reproduce every recorded
//     answer and the run's final L1/L2 statistics (moves throughput on
//     both sim workloads). Daemon: the reply codec, AppendFrame plus
//     DecodeFrameInto over the reply frames.
//   - other_ns_per_op: traced minus the three stages. Simulator: the
//     adapter's work (prediction log, classification, interface dispatch).
//     Daemon: the wire, syscalls, inbox hand-offs and scheduling. Closure
//     check: it must be at least −5% of traced_ns_per_op.
//   - trace_overhead_share: traced ÷ untraced host cost − 1.
//   - issued_per_op: prefetches issued per operation; useful_share: the
//     share of them that a demand used (simulator: L1 prefetch fills not
//     evicted unused; daemon: the learner's accurate outcomes over its real
//     prefetches, over one loop of the stream).
//
// The stack-specific detail behind these numbers is written to
// .bench_build/<workload>-seed<n>.breakdown.json: per cell IPC, ns/access
// and per-layer ns/access; each set-up's time; per daemon stage the
// /debug/vars histogram sums per decision (decode, queue_wait, decide,
// write, frame), the mean batch size, the coalesced-write share, the wire
// time (round trip − client codec − server frame) and the open loop's send
// lateness. The serving traced phase also writes
// .bench_build/<workload>-seed<n>.spans.json: the daemon's sampled request
// spans plus one client span per 64th exchange (Prefetcher "client", keyed
// by session and seq), placed on the daemon's clock from its exec time.
// Render it with
//
//	go run ./cmd/inspect spans .bench_build/serve-batch-seed1.spans.json
//
// or load it in Perfetto. In the rendering the client spans are the ones
// with a seq and no stages: the daemon's span file does not carry the seq
// of its own spans, so those show seq 0 with their four stages.
//
// # Correctness checks
//
// A run fails when any of these does not hold: every timed simulation pass
// and the traced run reproduce the first pass's results exactly (IPC, CPU
// result, cache statistics); each replay reproduces its recording as
// described above; every serve_*_latency count and the serve_batch_size
// sum equal serve_decisions_total, which equals the decisions the client
// received; the first session's decisions, in the measured and in the
// traced load, equal an offline serve.Learner replay of the same accesses,
// and so do the serving learner's decisions in the simulator on the
// stream's trace; the open loop's median send lateness is at most 10% of
// its median latency, counted from when a send was due or the previous
// reply arrived, whichever is later (a late reply is the daemon's delay,
// charged to the latencies); and the closure checks.
//
// # Steadiness
//
// perfbench/stability.py runs every workload over ten seeds and compares
// two such sets against the bounds; perfbench/STABILITY.md records the
// sets measured when the benchmark was defined.
//
// The per-layer numbers in DESIGN.md §17 and the Makefile's overhead-guard
// comment predate this benchmark and are to be corrected from its first
// recorded run.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"semloc/internal/cache"
)

// metricDef declares one reported metric. BENCHMARK.json lists the same
// names; report checks a run produced exactly this set.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"peak_rss_mb", "MiB"},
	{"speedup_geomean", "ratio"},
	{"setup_s", "s"},
}

var perLayer = []metricDef{
	{"throughput_per_s", "1/s"},
	{"host_ns_per_op", "ns"},
	{"latency_p50_us", "us"},
	{"latency_p90_us", "us"},
	{"traced_ns_per_op", "ns"},
	{"produce_ns_per_op", "ns"},
	{"decide_ns_per_op", "ns"},
	{"apply_ns_per_op", "ns"},
	{"other_ns_per_op", "ns"},
	{"trace_overhead_share", "ratio"},
	{"issued_per_op", "count"},
	{"useful_share", "ratio"},
	{"latency_p99_us", "us"},
	{"latency_p9999_us", "us"},
	{"latency_samples", "count"},
}

// config is one benchmark invocation. The sizes are fixed by the workload
// definitions; tests shrink them.
type config struct {
	workload string
	seed     uint64
	measure  time.Duration // the measured phase (--seconds)
	trace    bool
	daemon   string // prefetchd binary
	outDir   string // span files, breakdowns and daemon scratch

	simScale   float64
	serveScale float64
	minPasses  int           // fewest timed simulation passes
	tracedReps int           // traced simulation runs per cell (fastest kept)
	replayK    int           // timed passes per replay (fastest kept)
	setupReps  int           // timed set-ups per run, after an untimed one (median reported)
	warmup     time.Duration // serving warm-up, discarded
	tracedFor  time.Duration // serving traced phase after its warm-up
	rate       float64       // serve-single offered decisions/s

	doctor doctor
}

// doctor alters intermediate data so tests can show that each correctness
// check fails the run. Every field is nil outside tests.
type doctor struct {
	recording func(*recording)
	done      func([]cache.Cycle)
	scrape    func(*scrape)
	decisions func(*uint64)
}

func defaultConfig() config {
	return config{
		seed:       1,
		measure:    20 * time.Second,
		simScale:   0.25,
		serveScale: 0.2,
		minPasses:  10,
		tracedReps: 3,
		replayK:    5,
		setupReps:  5,
		warmup:     2 * time.Second,
		tracedFor:  5 * time.Second,
		rate:       5000,
	}
}

// outcome is what a workload measured. breakdown holds the stack-specific
// detail written next to the spans.
type outcome struct {
	attempted, failed uint64
	metrics           map[string]float64
	breakdown         map[string]any
}

var workloadRuns = map[string]func(context.Context, config, *slog.Logger) (*outcome, error){
	"sim-context": func(ctx context.Context, c config, l *slog.Logger) (*outcome, error) {
		return runSim(ctx, c, l, []string{"context"})
	},
	"sim-baseline": func(ctx context.Context, c config, l *slog.Logger) (*outcome, error) {
		return runSim(ctx, c, l, []string{"none", "sms", "ghb-gdc"})
	},
	"serve-batch":  func(ctx context.Context, c config, l *slog.Logger) (*outcome, error) { return runServe(ctx, c, l, 16) },
	"serve-single": func(ctx context.Context, c config, l *slog.Logger) (*outcome, error) { return runServe(ctx, c, l, 0) },
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	cfg := defaultConfig()
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: sim-context, sim-baseline, serve-batch or serve-single")
	fs.Uint64Var(&cfg.seed, "seed", cfg.seed, "seed for every generated input")
	seconds := fs.Int("seconds", 20, "length of the measured phase in seconds")
	traced := fs.Int("trace", 0, "0: print end-to-end metrics; 1: also run the traced phase and print per-layer metrics")
	fs.StringVar(&cfg.daemon, "daemon", "", "prefetchd binary (required by the serve workloads)")
	fs.StringVar(&cfg.outDir, "out", ".bench_build", "directory for span files, breakdowns and daemon scratch")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloadRuns[cfg.workload]; !ok || fs.NArg() > 0 || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "perfbench: need -workload (sim-context|sim-baseline|serve-batch|serve-single), -seconds ≥ 1 and -trace 0|1")
		return 2
	}
	cfg.measure = time.Duration(*seconds) * time.Second
	cfg.trace = *traced == 1

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	logger := slog.New(slog.NewTextHandler(stderr, nil))
	line, err := measure(ctx, cfg, logger)
	if err != nil {
		logger.Error("benchmark failed", "workload", cfg.workload, "err", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// measure runs the configured workload and renders its result line.
func measure(ctx context.Context, cfg config, logger *slog.Logger) ([]byte, error) {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	out, err := workloadRuns[cfg.workload](ctx, cfg, logger)
	if err != nil {
		return nil, err
	}
	if err := writeJSON(artifactPath(cfg, "breakdown"), out.breakdown); err != nil {
		return nil, err
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	return report(out, defs)
}

// report renders the result line: exactly the declared metrics, each a
// finite number.
func report(out *outcome, defs []metricDef) ([]byte, error) {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted uint64            `json:"attempted"`
		Failed    uint64            `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: true, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metric{}}
	var missing []string
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok {
			missing = append(missing, d.name)
			continue
		}
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("perfbench: workload measured no %v", missing)
	}
	if res.Attempted == 0 {
		return nil, errors.New("perfbench: no operation attempted")
	}
	return json.Marshal(res)
}

func artifactPath(cfg config, kind string) string {
	return filepath.Join(cfg.outDir, fmt.Sprintf("%s-seed%d.%s.json", cfg.workload, cfg.seed, kind))
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
