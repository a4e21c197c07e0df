package main

// The `inspect learner` subcommand: learner-introspection rendering.
// Three sources feed it — an exp.RunArtifact's learner snapshot (health
// report, anomaly gate), the artifact's interval series (health curve),
// and an explain dump saved from prefetchd's explain frame (context
// score-table pretty-printer). The anomaly gate doubles as a regression
// check: `inspect learner -run ... -check` exits nonzero on stalled
// learning or a churn storm, so CI can assert a sweep actually learned.

import (
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"

	"semloc/internal/exp"
	"semloc/internal/harness"
	"semloc/internal/obs"
	"semloc/internal/serve"
)

func runLearner(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("inspect learner", flag.ContinueOnError)
	var (
		runPath     = fs.String("run", "", "per-run artifact JSON (written by exp.Runner / -obs-dir)")
		explainPath = fs.String("explain", "", "explain dump JSON (a serve.ExplainReport fetched from prefetchd)")
		curve       = fs.Bool("curve", false, "emit the learner-health curve, one row per interval sample")
		check       = fs.Bool("check", false, "run the anomaly checks and exit nonzero on stalled learning or a churn storm")
		format      = fs.String("format", "csv", "curve output format: csv or json")
		outPath     = fs.String("out", "", "output path (default stdout)")
		quiet       = fs.Bool("q", false, "suppress informational logging")
	)
	if err := fs.Parse(args); err != nil {
		return harness.ExitUsage
	}
	logger := obs.NewLogger(os.Stderr, "inspect", *quiet)

	if (*runPath == "") == (*explainPath == "") {
		fmt.Fprintln(os.Stderr, "inspect learner: exactly one of -run or -explain required")
		return harness.ExitUsage
	}
	if *format != "csv" && *format != "json" {
		fmt.Fprintln(os.Stderr, "inspect learner: -format must be csv or json")
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

	if *explainPath != "" {
		rep, err := loadExplain(*explainPath)
		if err != nil {
			logger.Error("loading explain dump", "path", *explainPath, "err", err)
			return harness.ExitRunFailed
		}
		renderExplain(out, rep)
		if *check {
			if err := rep.Health.CheckAnomalies(); err != nil {
				logger.Error("anomaly check failed", "err", err)
				return harness.ExitRunFailed
			}
			fmt.Fprintln(out, "anomaly check: ok")
		}
		return harness.ExitOK
	}

	art, err := exp.LoadArtifact(*runPath)
	if err != nil {
		logger.Error("loading artifact", "path", *runPath, "err", err)
		return harness.ExitRunFailed
	}
	if *curve {
		if err := renderHealthCurve(art, *format, out); err != nil {
			logger.Error("rendering learner curve", "err", err)
			return harness.ExitRunFailed
		}
		return harness.ExitOK
	}
	h := art.Learner
	if h == nil {
		logger.Error("artifact carries no learner snapshot", "workload", art.Workload, "prefetcher", art.Prefetcher)
		return harness.ExitRunFailed
	}
	if *check {
		if err := h.CheckAnomalies(); err != nil {
			logger.Error("anomaly check failed", "workload", art.Workload, "prefetcher", art.Prefetcher, "err", err)
			return harness.ExitRunFailed
		}
		fmt.Fprintf(out, "ok: %s/%s learner healthy over %d accesses\n", art.Workload, art.Prefetcher, h.Accesses)
		return harness.ExitOK
	}
	fmt.Fprintf(out, "learner %s/%s (scale %g, seed %d)\n", art.Workload, art.Prefetcher, art.Scale, art.Seed)
	renderHealth(out, h)
	if len(h.TopDeltas) > 0 {
		fmt.Fprintln(out, "  hottest deltas:")
		for _, d := range h.TopDeltas {
			fmt.Fprintf(out, "    delta %+d x%d\n", d.Delta, d.Count)
		}
	}
	if err := h.CheckAnomalies(); err != nil {
		fmt.Fprintf(out, "  ANOMALY: %v\n", err)
	} else {
		fmt.Fprintln(out, "  anomaly check: ok")
	}
	return harness.ExitOK
}

// renderHealth prints the health snapshot in the summary's indented style.
func renderHealth(w io.Writer, h *obs.LearnerHealth) {
	fmt.Fprintf(w, "  accesses %d  predictions %d (real %d, shadow %d)  queue hits %d\n",
		h.Accesses, h.Predictions, h.RealPrefetches, h.ShadowPrefetches, h.QueueHits)
	fmt.Fprintf(w, "  outcomes: accurate %d, late %d, evicted %d, useless %d (carried %d)\n",
		h.OutcomeAccurate, h.OutcomeLate, h.OutcomeEvicted, h.OutcomeUseless, h.OutcomeCarried)
	fmt.Fprintf(w, "  policy: explores %d, exploits %d, suppressed %d, epsilon %.3f, accuracy %.3f\n",
		h.Explores, h.Exploits, h.Suppressed, h.Epsilon, h.Accuracy)
	fmt.Fprintf(w, "  rewards: %d positive, %d zero, %d negative\n",
		h.PosRewards, h.ZeroRewards, h.NegRewards)
	capacity := ""
	if h.CSTCapacity > 0 {
		capacity = fmt.Sprintf("/%d", h.CSTCapacity)
	}
	fmt.Fprintf(w, "  CST: %d%s entries, %d links (%d positive, %d saturated), mean score %.2f\n",
		h.CSTEntries, capacity, h.CSTLinks, h.PositiveLinks, h.SaturatedLinks, h.MeanScore)
	fmt.Fprintf(w, "  CST churn: %d insertions, %d replacements, %d rejects\n",
		h.CSTInsertions, h.CSTReplacements, h.CSTRejects)
}

// loadExplain reads an explain dump: either a bare serve.ExplainReport or
// a whole explain frame (both shapes decode; the frame wrapper wins when
// its payload is present).
func loadExplain(path string) (*serve.ExplainReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var fr serve.Frame
	if err := json.Unmarshal(data, &fr); err != nil {
		return nil, fmt.Errorf("inspect: parsing explain dump %s: %w", path, err)
	}
	if fr.Explain != nil {
		return fr.Explain, nil
	}
	var rep serve.ExplainReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("inspect: parsing explain dump %s: %w", path, err)
	}
	if rep.Session == "" && rep.Health.Accesses == 0 && len(rep.Contexts) == 0 {
		return nil, fmt.Errorf("inspect: %s carries no explain payload", path)
	}
	return &rep, nil
}

// renderExplain pretty-prints one live explain report: the health block
// plus each hot context's candidate score table, best-ranked link first.
func renderExplain(w io.Writer, rep *serve.ExplainReport) {
	fmt.Fprintf(w, "session %s\n", rep.Session)
	renderHealth(w, &rep.Health)
	if len(rep.Contexts) == 0 {
		fmt.Fprintln(w, "  contexts: none learned yet")
		return
	}
	fmt.Fprintf(w, "  top %d contexts by trials:\n", len(rep.Contexts))
	for _, c := range rep.Contexts {
		fmt.Fprintf(w, "    ctx %#016x  trials %d  churn %d\n", c.Context, c.Trials, c.Churn)
		for rank, l := range c.Links {
			fmt.Fprintf(w, "      #%d delta %+d score %+d\n", rank+1, l.Delta, l.Score)
		}
	}
}

// renderHealthCurve emits the learner-health slice of the interval series:
// outcome/decision/reward/churn deltas plus the learner gauges per sample.
func renderHealthCurve(art *exp.RunArtifact, format string, w io.Writer) error {
	s, err := series(art)
	if err != nil {
		return err
	}
	if format == "json" {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(s.Samples)
	}
	cw := csv.NewWriter(w)
	header := []string{
		"index", "accurate", "late", "evicted", "useless",
		"explores", "exploits", "suppressed",
		"pos_rewards", "neg_rewards", "zero_rewards",
		"cst_insertions", "cst_replacements", "cst_rejects",
		"epsilon", "accuracy", "cst_entries",
		"cst_positive_links", "cst_saturated_links", "cst_mean_score",
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	u := func(v uint64) string { return strconv.FormatUint(v, 10) }
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', 6, 64) }
	for i := range s.Samples {
		sm := &s.Samples[i]
		row := []string{
			u(sm.Index), u(sm.Accurate), u(sm.Late), u(sm.Evicted), u(sm.Useless),
			u(sm.Explores), u(sm.Exploits), u(sm.Suppressed),
			u(sm.PosRewards), u(sm.NegRewards), u(sm.ZeroRewards),
			u(sm.CSTInsertions), u(sm.CSTReplacements), u(sm.CSTRejects),
			f(sm.Epsilon), f(sm.Accuracy), strconv.Itoa(sm.CSTEntries),
			strconv.Itoa(sm.CSTPositiveLinks), strconv.Itoa(sm.CSTSaturatedLinks), f(sm.CSTMeanScore),
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
