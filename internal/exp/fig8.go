package exp

import (
	"fmt"
	"io"

	"semloc/internal/core"
	"semloc/internal/stats"
)

// fig8Micro is the µbenchmark set of Figure 8 (top plot).
var fig8Micro = []string{"array", "list", "listsort", "bst", "hashtest", "maptest", "prim", "ssca_lds", "graph500-list"}

// fig8Regular is the regular-benchmark subset (bottom plot).
var fig8Regular = []string{"libquantum", "lbm", "milc", "hmmer", "sphinx3", "h264ref"}

// renderFig8 regenerates Figure 8: the cumulative distribution of prefetch
// hit depths for the context prefetcher — the number of accesses between
// a (real or shadow) prediction entering the prefetch queue and the demand
// access that consumed it. The paper expects a visible step where the
// reward function's positive region begins. Its cells are the context
// prefetcher on fig8Micro, then on fig8Regular.
func renderFig8(cells []JobResult, _ Options, w io.Writer) {
	fig8Set(w, "Figure 8 (top): microbenchmarks", cells[:len(fig8Micro)])
	fmt.Fprintln(w)
	fig8Set(w, "Figure 8 (bottom): regular benchmarks", cells[len(fig8Micro):])
}

func fig8Set(w io.Writer, title string, set []JobResult) {
	reward := core.DefaultRewardConfig()
	headers := []string{"depth"}
	cdfs := make([][]float64, len(set))
	for i, c := range set {
		headers = append(headers, c.Job.Workload)
		cdfs[i] = c.Result.HitDepths.CDF()
	}
	row := make([]interface{}, len(headers))
	tb := stats.NewTable(title+" — CDF of hit depths (context prefetcher)", headers...)
	for d := 0; d <= 128; d += 4 {
		row[0] = d
		for i, cdf := range cdfs {
			v := 1.0
			if d < len(cdf) {
				v = cdf[d]
			}
			row[i+1] = v
		}
		tb.AddRow(row...)
	}
	tb.Render(w)
	fmt.Fprintf(w, "reward window: positive region [%d, %d], centre %d\n", reward.Low, reward.High, reward.Center())
}
