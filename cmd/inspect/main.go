// Command inspect renders the telemetry a run left behind — the per-run
// JSON artifacts exp.Runner writes (see exp.RunArtifact) and the JSONL
// decision traces — into plottable CSV/JSON: the learning curve (IPC,
// queue-hit rate, MPKI, CST occupancy over demand accesses) and the
// evolution of the top learned deltas.
//
// Usage:
//
//	inspect -run results/obs/list__context.json                # summary
//	inspect -run ... -curve -format csv -out curve.csv         # learning curve
//	inspect -run ... -deltas                                   # top-delta evolution
//	inspect -run ... -validate                                 # parse + validate, exit 0/1
//	inspect -decisions results/obs/list__context.decisions.jsonl
//	inspect spans sweep.trace.json                             # -spans file summary
//	inspect spans -top 20 sweep.trace.json
//	inspect serve LOADGEN_1.json                               # load-test summary
//	inspect serve LOADGEN_1.json LOADGEN_2.json                # compare two runs
//	inspect learner -run results/obs/list__context.json        # learner-health report
//	inspect learner -run ... -curve -format csv                # learner-health curve
//	inspect learner -run ... -check                            # anomaly gate, exit 0/1
//	inspect learner -explain explain.json                      # pretty-print a prefetchd explain dump
//	inspect bench BENCH_3.json BENCH_4.json                    # check two frozen BENCH reports
//
// The spans subcommand renders a span file recorded with a command's -spans
// flag (the same Chrome trace-event JSON Perfetto loads): per-cell phase
// timings (decode, queue-wait, warmup, measured), the slowest cells, and
// worker-lane utilization. Span files from prefetchd get the serving-path
// breakdown instead (decode, queue-wait, decide, write per request).
//
// The serve subcommand renders LOADGEN_<n>.json artifacts from cmd/loadgen:
// achieved throughput, client latency percentiles, degradation rates, and
// the daemon-side scrape; with two artifacts it prints a delta table.
//
// The learner subcommand renders the learner-introspection layer: the
// health report and anomaly gate over an artifact's learner snapshot, the
// per-interval learner-health curve, and a pretty-printer for explain
// dumps fetched live from prefetchd (the explain protocol frame).
//
// The bench subcommand checks the frozen BENCH_<n>.json simulator reports:
// both must validate, and it prints a per-cell ns/access table that flags
// a cell as a regression at more than 10% ns/access or any real
// allocs/access increase. There is no single-report mode.
//
// Exit codes follow the harness contract: 0 ok, 1 the artifact or trace
// is missing/corrupt or a gate failed (an inspect bench regression, an
// inspect serve -min-rate-ratio or inspect learner -check failure), 2
// usage error.
package main

import (
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"

	"semloc/internal/exp"
	"semloc/internal/harness"
	"semloc/internal/obs"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

// run is the testable entry point: it parses args with its own flag set
// and writes primary output to stdout (unless -out redirects it).
func run(args []string, stdout io.Writer) int {
	if len(args) > 0 && args[0] == "spans" {
		return runSpans(args[1:], stdout)
	}
	if len(args) > 0 && args[0] == "serve" {
		return runServe(args[1:], stdout)
	}
	if len(args) > 0 && args[0] == "learner" {
		return runLearner(args[1:], stdout)
	}
	if len(args) > 0 && args[0] == "bench" {
		return runBench(args[1:], stdout)
	}
	fs := flag.NewFlagSet("inspect", flag.ContinueOnError)
	var (
		runPath   = fs.String("run", "", "per-run artifact JSON (written by exp.Runner / -obs-dir)")
		decisions = fs.String("decisions", "", "decision trace JSONL to summarize")
		curve     = fs.Bool("curve", false, "emit the learning curve")
		deltas    = fs.Bool("deltas", false, "emit the top-delta evolution")
		validate  = fs.Bool("validate", false, "validate the artifact (requires a non-empty telemetry series) and exit")
		format    = fs.String("format", "csv", "output format: csv or json")
		outPath   = fs.String("out", "", "output path (default stdout)")
		quiet     = fs.Bool("q", false, "suppress informational logging")
	)
	if err := fs.Parse(args); err != nil {
		return harness.ExitUsage
	}
	logger := obs.NewLogger(os.Stderr, "inspect", *quiet)

	if *runPath == "" && *decisions == "" {
		fmt.Fprintln(os.Stderr, "inspect: -run or -decisions required")
		return harness.ExitUsage
	}
	if *format != "csv" && *format != "json" {
		fmt.Fprintln(os.Stderr, "inspect: -format must be csv or json")
		return harness.ExitUsage
	}

	out := stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			logger.Error("creating output", "err", err)
			return harness.ExitRunFailed
		}
		defer f.Close()
		out = f
	}

	if *decisions != "" {
		if err := summarizeDecisions(*decisions, *format, out); err != nil {
			logger.Error("decision trace", "path", *decisions, "err", err)
			return harness.ExitRunFailed
		}
		return harness.ExitOK
	}

	art, err := exp.LoadArtifact(*runPath)
	if err != nil {
		logger.Error("loading artifact", "path", *runPath, "err", err)
		return harness.ExitRunFailed
	}
	logger.Info("artifact loaded", "workload", art.Workload, "prefetcher", art.Prefetcher,
		"ipc", art.IPC, "samples", seriesLen(art))

	switch {
	case *validate:
		if err := validateArtifact(art); err != nil {
			logger.Error("validation failed", "err", err)
			return harness.ExitRunFailed
		}
		fmt.Fprintf(out, "ok: %s/%s, %d samples, %d decisions\n",
			art.Workload, art.Prefetcher, seriesLen(art), art.Result.Series.Decisions)
	case *curve:
		err = renderCurve(art, *format, out)
	case *deltas:
		err = renderDeltas(art, *format, out)
	default:
		err = renderSummary(art, out)
	}
	if err != nil {
		logger.Error("rendering", "err", err)
		return harness.ExitRunFailed
	}
	return harness.ExitOK
}

func seriesLen(art *exp.RunArtifact) int {
	if art.Result == nil || art.Result.Series == nil {
		return 0
	}
	return len(art.Result.Series.Samples)
}

// validateArtifact is the round-trip gate: the artifact must parse (done
// by the caller), carry a telemetry series, and the series must satisfy
// its structural invariants.
func validateArtifact(art *exp.RunArtifact) error {
	if err := art.Validate(); err != nil {
		return err
	}
	s := art.Result.Series
	if s == nil {
		return fmt.Errorf("inspect: artifact has no telemetry series (was the run sampled?)")
	}
	return s.Validate()
}

// series extracts the artifact's time series or explains its absence.
func series(art *exp.RunArtifact) (*obs.Series, error) {
	if art.Result == nil || art.Result.Series == nil {
		return nil, fmt.Errorf("inspect: artifact has no telemetry series (run with sampling enabled)")
	}
	return art.Result.Series, nil
}

// renderCurve emits the learning curve, one row per interval sample.
func renderCurve(art *exp.RunArtifact, format string, w io.Writer) error {
	s, err := series(art)
	if err != nil {
		return err
	}
	if format == "json" {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(s)
	}
	cw := csv.NewWriter(w)
	header := []string{
		"index", "cycles", "instructions", "ipc", "interval_ipc",
		"l1_mpki", "l2_mpki", "accesses", "queue_hits", "queue_hit_rate",
		"predictions", "real", "shadow", "expired",
		"accuracy", "epsilon", "cst_entries", "cst_links", "cst_mean_score",
		"activations", "deactivations",
		"accurate", "late", "evicted", "useless",
		"explores", "exploits", "suppressed",
		"pos_rewards", "neg_rewards", "zero_rewards",
		"cst_insertions", "cst_replacements", "cst_rejects",
		"cst_positive_links", "cst_saturated_links",
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	u := func(v uint64) string { return strconv.FormatUint(v, 10) }
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }
	for i := range s.Samples {
		sm := &s.Samples[i]
		row := []string{
			u(sm.Index), u(sm.Cycles), u(sm.Instructions), f(sm.IPC), f(sm.IntervalIPC),
			f(sm.L1MPKI), f(sm.L2MPKI), u(sm.Accesses), u(sm.QueueHits), f(sm.QueueHitRate),
			u(sm.Predictions), u(sm.Real), u(sm.Shadow), u(sm.Expired),
			f(sm.Accuracy), f(sm.Epsilon), strconv.Itoa(sm.CSTEntries), strconv.Itoa(sm.CSTLinks), f(sm.CSTMeanScore),
			u(sm.Activations), u(sm.Deactivations),
			u(sm.Accurate), u(sm.Late), u(sm.Evicted), u(sm.Useless),
			u(sm.Explores), u(sm.Exploits), u(sm.Suppressed),
			u(sm.PosRewards), u(sm.NegRewards), u(sm.ZeroRewards),
			u(sm.CSTInsertions), u(sm.CSTReplacements), u(sm.CSTRejects),
			strconv.Itoa(sm.CSTPositiveLinks), strconv.Itoa(sm.CSTSaturatedLinks),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// deltaRow is one point of the top-delta evolution (long format: easy to
// pivot in any plotting tool).
type deltaRow struct {
	Index uint64 `json:"index"`
	Rank  int    `json:"rank"`
	Delta int8   `json:"delta"`
	Count int    `json:"count"`
}

// renderDeltas emits how the most frequent learned deltas evolve over the
// run, one row per (sample, rank).
func renderDeltas(art *exp.RunArtifact, format string, w io.Writer) error {
	s, err := series(art)
	if err != nil {
		return err
	}
	var rows []deltaRow
	for i := range s.Samples {
		sm := &s.Samples[i]
		for rank, d := range sm.TopDeltas {
			rows = append(rows, deltaRow{Index: sm.Index, Rank: rank + 1, Delta: d.Delta, Count: d.Count})
		}
	}
	if len(rows) == 0 {
		return fmt.Errorf("inspect: series carries no top-delta data (prefetcher %q exports no learner state)", art.Prefetcher)
	}
	if format == "json" {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(rows)
	}
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"index", "rank", "delta", "count"}); err != nil {
		return err
	}
	for _, r := range rows {
		if err := cw.Write([]string{
			strconv.FormatUint(r.Index, 10), strconv.Itoa(r.Rank),
			strconv.Itoa(int(r.Delta)), strconv.Itoa(r.Count),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// renderSummary prints the human-oriented overview.
func renderSummary(art *exp.RunArtifact, w io.Writer) error {
	fmt.Fprintf(w, "run %s/%s (scale %g, seed %d)\n", art.Workload, art.Prefetcher, art.Scale, art.Seed)
	fmt.Fprintf(w, "  IPC %.4f  L1 MPKI %.2f  L2 MPKI %.2f\n", art.IPC, art.L1MPKI, art.L2MPKI)
	if h := art.Learner; h != nil {
		fmt.Fprintf(w, "  accesses %d  predictions %d (real %d, shadow %d)  queue hits %d  expired %d\n",
			h.Accesses, h.Predictions, h.RealPrefetches, h.ShadowPrefetches, h.QueueHits, h.Expired)
		fmt.Fprintf(w, "  CST: %d entries, %d links, mean score %.2f, %d positive, %d saturated\n",
			h.CSTEntries, h.CSTLinks, h.MeanScore, h.PositiveLinks, h.SaturatedLinks)
		for _, d := range h.TopDeltas {
			fmt.Fprintf(w, "    delta %+d x%d\n", d.Delta, d.Count)
		}
	}
	if s := art.Result.Series; s != nil {
		fmt.Fprintf(w, "  series: %d samples at interval %d (base %d), warmup at %d, %d traced decisions\n",
			len(s.Samples), s.Interval, s.BaseInterval, s.WarmupIndex, s.Decisions)
	} else {
		fmt.Fprintln(w, "  series: none (run without interval sampling)")
	}
	return nil
}

// decisionSummary aggregates a JSONL decision trace.
type decisionSummary struct {
	Events      int            `json:"events"`
	ByKind      map[string]int `json:"by_kind"`
	RealDecides int            `json:"real_decides"`
	Explores    int            `json:"explores"`
	MeanReward  float64        `json:"mean_reward"`
	TopChosen   []deltaTally   `json:"top_chosen"`
}

type deltaTally struct {
	Delta int8 `json:"delta"`
	Count int  `json:"count"`
}

func summarizeDecisions(path, format string, w io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	evs, err := obs.ReadDecisions(f)
	if err != nil {
		return err
	}
	if len(evs) == 0 {
		return fmt.Errorf("inspect: empty decision trace %s", path)
	}
	sum := decisionSummary{Events: len(evs), ByKind: map[string]int{}}
	chosen := map[int8]int{}
	var rewardSum, rewards int
	for _, ev := range evs {
		sum.ByKind[ev.Kind]++
		switch ev.Kind {
		case obs.KindDecide:
			chosen[ev.Delta]++
			if ev.Real {
				sum.RealDecides++
			}
			if ev.Explore {
				sum.Explores++
			}
		case obs.KindReward, obs.KindExpire:
			rewardSum += int(ev.Reward)
			rewards++
		}
	}
	if rewards > 0 {
		sum.MeanReward = float64(rewardSum) / float64(rewards)
	}
	for d, c := range chosen {
		sum.TopChosen = append(sum.TopChosen, deltaTally{Delta: d, Count: c})
	}
	sort.Slice(sum.TopChosen, func(i, j int) bool {
		if sum.TopChosen[i].Count != sum.TopChosen[j].Count {
			return sum.TopChosen[i].Count > sum.TopChosen[j].Count
		}
		return sum.TopChosen[i].Delta < sum.TopChosen[j].Delta
	})
	if len(sum.TopChosen) > 8 {
		sum.TopChosen = sum.TopChosen[:8]
	}
	if format == "json" {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(sum)
	}
	fmt.Fprintf(w, "decision trace %s: %d events\n", path, sum.Events)
	for _, k := range []string{obs.KindDecide, obs.KindReward, obs.KindExpire} {
		fmt.Fprintf(w, "  %-7s %d\n", k, sum.ByKind[k])
	}
	fmt.Fprintf(w, "  real decides %d, explores %d, mean reward %.2f\n", sum.RealDecides, sum.Explores, sum.MeanReward)
	for _, d := range sum.TopChosen {
		fmt.Fprintf(w, "  chosen delta %+d x%d\n", d.Delta, d.Count)
	}
	return nil
}
