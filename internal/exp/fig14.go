package exp

import (
	"fmt"
	"io"

	"semloc/internal/stats"
)

// fig14Workloads pairs each spatially optimized (CSR/array) implementation
// with its naive linked one: SSCA2, then Graph500.
var fig14Workloads = []string{"ssca2-csr", "ssca2-list", "graph500", "graph500-list"}

// renderFig14 regenerates Figure 14: cycles-per-instruction of naive
// (linked) and spatially optimized (array/CSR) implementations of SSCA2
// and Graph500, under every prefetcher. The paper's claim: only the
// context prefetcher lets the naive layout approach the optimized one.
func renderFig14(cells []JobResult, _ Options, w io.Writer) {
	rows := byWorkload(cells, len(FigurePrefetchers))
	for i, title := range []string{"a) SSCA2", "b) Graph500"} {
		csr, lst := rows[2*i], rows[2*i+1]
		tb := stats.NewTable("Figure 14 "+title+" — CPI by layout and prefetcher", "prefetcher", "CSR/array CPI", "linked CPI", "linked/CSR ratio")
		var bestLinked, noneLinked float64
		var bestLinkedName string
		for j, pn := range FigurePrefetchers {
			optimized, linked := csr[j].Result.CPU.CPI(), lst[j].Result.CPU.CPI()
			tb.AddRow(pn, optimized, linked, linked/optimized)
			if pn == "none" {
				noneLinked = linked
			}
			if bestLinkedName == "" || linked < bestLinked {
				bestLinked, bestLinkedName = linked, pn
			}
		}
		tb.Render(w)
		fmt.Fprintf(w, "best naive-implementation CPI: %s (%.2f, %.0f%% faster than no prefetching)\n\n",
			bestLinkedName, bestLinked, 100*(noneLinked/bestLinked-1))
	}
}
