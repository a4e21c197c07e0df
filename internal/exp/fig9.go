package exp

import (
	"io"

	"semloc/internal/stats"
)

// fig9Workloads is the benchmark set shown in Figure 9 (a representative
// cross-section of regular and irregular workloads).
var fig9Workloads = []string{
	"graph500", "graph500-list", "prim", "ssca_lds",
	"array", "list", "listsort", "bst",
	"h264ref", "lbm", "namd", "omnetpp", "sphinx3", "mcf", "libquantum",
}

// renderFig9 regenerates Figure 9: for each workload and prefetcher, the
// fraction of demand accesses in each benefit category. "Prefetch never
// hit" counts wasted prefetches on top of the demand accesses, so columns
// can sum past 1.0, exactly as the paper's bars pass the 100% mark.
func renderFig9(cells []JobResult, _ Options, w io.Writer) {
	tb := stats.NewTable("Figure 9: accuracy and timeliness",
		"workload", "prefetcher", "hit-prefetched", "shorter-wait", "non-timely",
		"miss-not-prefetched", "hit-older-demand", "prefetch-never-hit")
	for _, cell := range cells {
		c := cell.Result.Categories
		d := float64(c.Demand)
		if d == 0 {
			d = 1
		}
		tb.AddRow(cell.Job.Workload, cell.Job.Prefetcher,
			float64(c.HitPrefetched)/d, float64(c.ShorterWait)/d,
			float64(c.NonTimely)/d, float64(c.MissNotPrefetched)/d,
			float64(c.HitOlderDemand)/d, float64(c.PrefetchNeverHit)/d)
	}
	tb.Render(w)
}
