package exp

import (
	"fmt"
	"io"

	"semloc/internal/core"
	"semloc/internal/stats"
)

// ablationRow is one row of the ablation table: a variant's label and the
// cell that runs it.
type ablationRow struct {
	variant string
	job     Job
}

// ablationRows lists the design choices the paper argues for and its §8
// alternative exploration policies, each next to the default learner on the
// same workload. The default is the named "context" cell. Each design
// toggle is a Config job labelled "context", so it explores with the
// default's learner seed, differs from it only in the toggled field and,
// its key being its own, runs as its own cell. The policies are the named
// "context-softmax" and "context-ucb" cells. Variant labels stay ASCII:
// stats.Table pads by bytes.
func ablationRows() []ablationRow {
	toggle := func(wl, variant string, set func(*core.Config)) ablationRow {
		cfg := core.DefaultConfig()
		set(&cfg)
		return ablationRow{variant, Job{Workload: wl, Prefetcher: "context", Config: &cfg}}
	}
	named := func(wl, variant, pf string) ablationRow {
		return ablationRow{variant, Job{Workload: wl, Prefetcher: pf}}
	}
	return []ablationRow{
		named("list", "default", "context"),
		toggle("list", "flat reward", func(c *core.Config) { c.Reward.Flat = true }),
		toggle("list", "reducer off", func(c *core.Config) { c.DisableReducer = true }),
		toggle("list", "shadow off", func(c *core.Config) { c.DisableShadow = true }),
		toggle("list", "fixed epsilon", func(c *core.Config) { c.AdaptiveEpsilon = false }),
		toggle("list", "word granularity", func(c *core.Config) { c.BlockShift = 3 }),
		named("list", "softmax policy", "context-softmax"),
		named("list", "ucb policy", "context-ucb"),
		named("mcf", "default", "context"),
		toggle("mcf", "sparse sampling", func(c *core.Config) { c.SampleDepths = []int{5, 17, 29, 41} }),
	}
}

// ablationJobs is the ablation matrix: the no-prefetch baselines, then one
// job per row.
func ablationJobs() []Job {
	jobs := []Job{{Workload: "list", Prefetcher: "none"}, {Workload: "mcf", Prefetcher: "none"}}
	for _, row := range ablationRows() {
		jobs = append(jobs, row.job)
	}
	return jobs
}

// renderAblations prints each ablation and policy variant's speedup over
// no prefetching, next to the default learner's on the same workload. Its
// cells are ablationJobs': the two baselines, then one per row.
func renderAblations(cells []JobResult, _ Options, w io.Writer) {
	base := map[string]JobResult{cells[0].Job.Workload: cells[0], cells[1].Job.Workload: cells[1]}
	tb := stats.NewTable("Ablations: speedup over no prefetching", "workload", "variant", "prefetcher", "speedup")
	for i, row := range ablationRows() {
		c := cells[2+i]
		tb.AddRow(c.Job.Workload, row.variant, c.Result.Prefetcher, speedup(c, base[c.Job.Workload]))
	}
	tb.Render(w)
	fmt.Fprintln(w, "each toggle runs the default row's learner seed (a Config job labelled context at point 0), so it differs from that row only in the toggled field")
}
