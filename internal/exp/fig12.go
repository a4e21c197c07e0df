package exp

import (
	"fmt"
	"io"

	"semloc/internal/stats"
)

// renderFig12 regenerates Figure 12: per-workload speedups of each
// prefetcher over the no-prefetch baseline, with the averages the paper
// reports (all workloads, and the SPEC2006 suite alone) and the
// context-vs-best-competitor comparison from the abstract. Its cells are
// every workload under FigurePrefetchers, whose first is the baseline.
func renderFig12(cells []JobResult, _ Options, w io.Writer) {
	headers := append([]string{"workload"}, FigurePrefetchers[1:]...)
	tb := stats.NewTable("Figure 12: speedup over no prefetching", headers...)

	perPF := make(map[string][]float64)
	specPF := make(map[string][]float64)
	spec := make(map[string]bool)
	for _, n := range SPECWorkloads() {
		spec[n] = true
	}
	var ctxMax float64
	var ctxMaxName string

	for _, row := range byWorkload(cells, len(FigurePrefetchers)) {
		wl := row[0].Job.Workload
		line := make([]interface{}, len(headers))
		line[0] = wl
		for i, pn := range FigurePrefetchers[1:] {
			s := speedup(row[i+1], row[0])
			line[i+1] = s
			perPF[pn] = append(perPF[pn], s)
			if spec[wl] {
				specPF[pn] = append(specPF[pn], s)
			}
			if pn == "context" && s > ctxMax {
				ctxMax, ctxMaxName = s, wl
			}
		}
		tb.AddRow(line...)
	}

	addAvg := func(label string, data map[string][]float64) {
		line := make([]interface{}, len(headers))
		line[0] = label
		for i, pn := range FigurePrefetchers[1:] {
			line[i+1] = stats.Mean(data[pn])
		}
		tb.AddRow(line...)
	}
	addAvg("AVERAGE (all)", perPF)
	addAvg("AVERAGE (SPEC2006)", specPF)
	tb.Render(w)

	ctxAvg := stats.Mean(perPF["context"])
	bestOther, bestName := 0.0, ""
	for _, pn := range FigurePrefetchers[1:] {
		if pn == "context" {
			continue
		}
		if m := stats.Mean(perPF[pn]); m > bestOther {
			bestOther, bestName = m, pn
		}
	}
	fmt.Fprintf(w, "\ncontext prefetcher: max speedup %.2fx (%s), average %.1f%% over baseline\n",
		ctxMax, ctxMaxName, 100*(ctxAvg-1))
	fmt.Fprintf(w, "SPEC2006-only average: %.1f%% over baseline\n", 100*(stats.Mean(specPF["context"])-1))
	if bestOther > 1 {
		fmt.Fprintln(w, gainVsBest(bestName, ctxAvg, bestOther))
	}
}

// gainVsBest compares the context prefetcher's average gain over the
// baseline (ctxAvg − 1) with the best competitor's (bestAvg − 1), which
// must be positive, and words the margin by its sign.
func gainVsBest(bestName string, ctxAvg, bestAvg float64) string {
	margin, side := 100*(ctxAvg-1)/(bestAvg-1)-100, "above"
	if margin < 0 {
		margin, side = -margin, "below"
	}
	return fmt.Sprintf("average speedup gain vs best competitor (%s): %.0f%% %s", bestName, margin, side)
}
