package exp

import (
	"errors"
	"fmt"
	"io"
)

// Experiment regenerates one of the paper's tables or figures. It declares
// the cells it reads once (Jobs) and only formats their results (Render);
// cmd/experiments runs the cells of every selected experiment as one
// RunJobs batch.
type Experiment struct {
	// ID is the artifact identifier ("table2", "fig12", ...).
	ID string
	// Title is the paper's caption, abbreviated.
	Title string
	// Jobs enumerates the cells the experiment reads, in the order Render
	// receives their results. Nil means it runs no simulations (tables,
	// closed-form figures).
	Jobs func() []Job
	// render writes the rows/series from the cells' results, all of them
	// successful, in Jobs() order.
	render func(cells []JobResult, opts Options, w io.Writer)
}

// Render writes the experiment to w from its cells' results, in Jobs()
// order as RunJobs returns them, and the run's options. If any cell
// failed, it writes nothing and returns the cells' errors joined, one line
// per failing cell, each naming its cell once; cells that share a name and
// an error share a line. A no-prefetch baseline with zero IPC fails the
// same way: every speedup divides by it.
func (e Experiment) Render(cells []JobResult, opts Options, w io.Writer) error {
	var errs []error
	seen := make(map[string]bool)
	for _, c := range cells {
		err := c.Err
		if err == nil && c.Job.Prefetcher == "none" && c.Result.IPC() == 0 {
			err = fmt.Errorf("exp: %s: baseline IPC is zero", c.Job.cell())
		}
		if err != nil && !seen[err.Error()] {
			seen[err.Error()] = true
			errs = append(errs, err)
		}
	}
	if err := errors.Join(errs...); err != nil {
		return err
	}
	e.render(cells, opts, w)
	return nil
}

// crossJobs enumerates the named (workload × prefetcher) matrix,
// workload-major; byWorkload splits its results back into rows.
func crossJobs(wls, pfs []string) []Job {
	jobs := make([]Job, 0, len(wls)*len(pfs))
	for _, wl := range wls {
		for _, pn := range pfs {
			jobs = append(jobs, Job{Workload: wl, Prefetcher: pn})
		}
	}
	return jobs
}

// byWorkload splits a crossJobs matrix's results into one row per
// workload, each holding n cells in the prefetcher order of the matrix.
func byWorkload(cells []JobResult, n int) [][]JobResult {
	rows := make([][]JobResult, 0, len(cells)/n)
	for ; len(cells) > 0; cells = cells[n:] {
		rows = append(rows, cells[:n])
	}
	return rows
}

// speedup is res's IPC over the no-prefetch baseline's.
func speedup(res, base JobResult) float64 { return res.Result.IPC() / base.Result.IPC() }

// Experiments lists all experiments in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{ID: "table2", Title: "Table 2: simulator parameters", render: renderTable2},
		{ID: "table3", Title: "Table 3: workloads and benchmarks", render: renderTable3},
		{ID: "fig1", Title: "Figure 1: memory accesses for list insertion sort", render: renderFig1},
		{ID: "fig5", Title: "Figure 5: reward function", render: renderFig5},
		{ID: "fig8", Title: "Figure 8: cumulative distribution of hit depths", render: renderFig8,
			Jobs: func() []Job {
				return crossJobs(append(append([]string{}, fig8Micro...), fig8Regular...), []string{"context"})
			}},
		{ID: "fig9", Title: "Figure 9: accuracy and timeliness categories", render: renderFig9,
			Jobs: func() []Job { return crossJobs(fig9Workloads, FigurePrefetchers) }},
		{ID: "fig10", Title: "Figure 10: L1 misses per kilo-instruction", render: renderFig10,
			Jobs: func() []Job { return crossJobs(AllWorkloads(), FigurePrefetchers) }},
		{ID: "fig11", Title: "Figure 11: L2 misses per kilo-instruction", render: renderFig11,
			Jobs: func() []Job { return crossJobs(AllWorkloads(), FigurePrefetchers) }},
		{ID: "fig12", Title: "Figure 12: speedups over no prefetching", render: renderFig12,
			Jobs: func() []Job { return crossJobs(AllWorkloads(), FigurePrefetchers) }},
		{ID: "fig13", Title: "Figure 13: impact of CST size on speedup", render: renderFig13,
			Jobs: fig13Jobs},
		{ID: "fig14", Title: "Figure 14: naive vs spatially optimized layouts", render: renderFig14,
			Jobs: func() []Job { return crossJobs(fig14Workloads, FigurePrefetchers) }},
		{ID: "limit", Title: "Limit study (extension): fraction of oracle benefit captured", render: renderLimit,
			Jobs: func() []Job { return crossJobs(limitWorkloads, limitPrefetchers) }},
		{ID: "ablations", Title: "Ablations and policy extensions: speedup of each design toggle", render: renderAblations,
			Jobs: ablationJobs},
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("exp: unknown experiment %q", id)
}
