package exp

import (
	"io"

	"semloc/internal/core"
	"semloc/internal/stats"
)

// renderFig5 prints the reward function (Figure 5): the bell-shaped score
// adjustment as a function of the prefetch-to-demand distance, for both
// this substrate's calibrated window and the paper's gem5-derived window.
func renderFig5(_ []JobResult, _ Options, w io.Writer) {
	ours := core.DefaultRewardConfig()
	paper := core.RewardConfig{Low: 18, High: 50, Peak: 16, Penalty: 4}
	tb := stats.NewTable("Figure 5: reward vs prefetch distance (accesses)", "depth", "reward (this substrate)", "reward (paper window 18-50)")
	for d := 0; d <= 80; d += 2 {
		tb.AddRow(d, int(ours.Reward(d)), int(paper.Reward(d)))
	}
	tb.Render(w)
}
