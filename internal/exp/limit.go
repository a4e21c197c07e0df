package exp

import (
	"fmt"
	"io"

	"semloc/internal/stats"
)

// limitWorkloads is the µbenchmark cross-section used for the limit study.
var limitWorkloads = []string{"list", "listsort", "bst", "maptest", "hashtest", "prim", "ssca_lds", "array"}

// limitPrefetchers are the limit study's cells on each workload: the
// baseline first, then the oracle and the two prefetchers it scores.
var limitPrefetchers = []string{"none", "oracle", "context", "sms"}

// renderLimit is a limit study beyond the paper's figures: it compares
// each prefetcher's speedup against an oracle with perfect future
// knowledge (one prefetch per access, issued a reward-window ahead),
// answering "how much of the achievable single-request prefetching benefit
// does the learned policy capture?" — the natural absolute scale for
// Figure 12's relative comparisons.
func renderLimit(cells []JobResult, _ Options, w io.Writer) {
	tb := stats.NewTable("Limit study: fraction of oracle speedup captured",
		"workload", "oracle", "context", "sms", "context capture", "sms capture")
	var ctxFracs, smsFracs []float64
	for _, row := range byWorkload(cells, len(limitPrefetchers)) {
		oracle, ctx, sms := speedup(row[1], row[0]), speedup(row[2], row[0]), speedup(row[3], row[0])
		ctxFrac, smsFrac := capture(ctx, oracle), capture(sms, oracle)
		ctxFracs = append(ctxFracs, ctxFrac)
		smsFracs = append(smsFracs, smsFrac)
		tb.AddRow(row[0].Job.Workload, oracle, ctx, sms,
			fmt.Sprintf("%.0f%%", 100*ctxFrac), fmt.Sprintf("%.0f%%", 100*smsFrac))
	}
	tb.Render(w)
	fmt.Fprintf(w, "average capture of the oracle's gain: context %.0f%%, sms %.0f%%\n",
		100*stats.Mean(ctxFracs), 100*stats.Mean(smsFracs))
}

// capture returns the fraction of the oracle's speedup gain achieved,
// clamped to [0, 2] — a prefetcher can exceed the single-request oracle
// by issuing several prefetches per access, but unbounded ratios (from a
// near-1.0 oracle) would swamp the average.
func capture(s, oracle float64) float64 {
	if oracle <= 1 {
		if s >= 1 {
			return 1
		}
		return 0
	}
	f := (s - 1) / (oracle - 1)
	if f < 0 {
		return 0
	}
	if f > 2 {
		return 2
	}
	return f
}
