package exp

import (
	"fmt"
	"io"

	"semloc/internal/sim"
	"semloc/internal/stats"
)

// renderFig10 regenerates Figure 10: L1 misses per kilo-instruction for
// every prefetcher, showing (as the paper does) the memory-intensive
// workloads with baseline L1 MPKI > 5, plus the average over all workloads.
func renderFig10(cells []JobResult, _ Options, w io.Writer) {
	renderMPKI(cells, w, "Figure 10: L1 MPKI", 5,
		func(res *sim.Result) float64 { return res.L1MPKI() })
}

// renderFig11 regenerates Figure 11: L2 misses per kilo-instruction,
// showing workloads with baseline L2 MPKI > 1 plus the average over all
// workloads.
func renderFig11(cells []JobResult, _ Options, w io.Writer) {
	renderMPKI(cells, w, "Figure 11: L2 MPKI", 1,
		func(res *sim.Result) float64 { return res.L2MPKI() })
}

// renderMPKI formats every workload under FigurePrefetchers, whose first
// is the no-prefetch baseline.
func renderMPKI(cells []JobResult, w io.Writer, title string, minBaseline float64, metric func(*sim.Result) float64) {
	headers := append([]string{"workload"}, FigurePrefetchers...)
	tb := stats.NewTable(title, headers...)
	sums := make(map[string]float64, len(FigurePrefetchers))
	rows := byWorkload(cells, len(FigurePrefetchers))
	for _, row := range rows {
		for i, pn := range FigurePrefetchers {
			sums[pn] += metric(row[i].Result)
		}
		if metric(row[0].Result) <= minBaseline {
			continue // the paper plots only memory-intensive workloads
		}
		line := make([]interface{}, len(headers))
		line[0] = row[0].Job.Workload
		for i, c := range row {
			line[i+1] = metric(c.Result)
		}
		tb.AddRow(line...)
	}
	count := len(rows)
	line := make([]interface{}, len(headers))
	line[0] = "AVERAGE (all)"
	for i, pn := range FigurePrefetchers {
		line[i+1] = sums[pn] / float64(count)
	}
	tb.AddRow(line...)
	tb.Render(w)

	base := sums["none"] / float64(count)
	ctx := sums["context"] / float64(count)
	if ctx > 0 {
		fmt.Fprintf(w, "context prefetcher reduces the average by %.2fx vs no prefetching\n", base/ctx)
	}
	if sms := sums["sms"] / float64(count); sms > 0 && ctx > 0 {
		fmt.Fprintf(w, "context vs SMS average ratio: %.2fx\n", sms/ctx)
	}
}
