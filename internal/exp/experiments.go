package exp

import (
	"fmt"
	"io"
	"sort"
)

// Experiment regenerates one of the paper's tables or figures.
type Experiment struct {
	// ID is the artifact identifier ("table2", "fig12", ...).
	ID string
	// Title is the paper's caption, abbreviated.
	Title string
	// Run executes the experiment and writes its rows/series to w.
	Run func(r *Runner, w io.Writer) error
	// Jobs, when non-nil, enumerates the simulation matrix the experiment
	// will request, letting cmd/experiments pre-warm the runner's memo with
	// one parallel batch before the (sequential, output-ordered) Run calls.
	// Nil means the experiment runs no simulations (tables, closed-form
	// figures) or manages its own parallelism.
	Jobs func() []Job
}

// crossJobs enumerates the named (workload × prefetcher) matrix.
func crossJobs(wls, pfs []string) []Job {
	jobs := make([]Job, 0, len(wls)*len(pfs))
	for _, wl := range wls {
		for _, pn := range pfs {
			jobs = append(jobs, Job{Workload: wl, Prefetcher: pn})
		}
	}
	return jobs
}

// Experiments lists all experiments in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{ID: "table2", Title: "Table 2: simulator parameters", Run: RunTable2},
		{ID: "table3", Title: "Table 3: workloads and benchmarks", Run: RunTable3},
		{ID: "fig1", Title: "Figure 1: memory accesses for list insertion sort", Run: RunFig1},
		{ID: "fig5", Title: "Figure 5: reward function", Run: RunFig5},
		{ID: "fig8", Title: "Figure 8: cumulative distribution of hit depths", Run: RunFig8,
			Jobs: func() []Job {
				return crossJobs(append(append([]string{}, fig8Micro...), fig8Regular...), []string{"context"})
			}},
		{ID: "fig9", Title: "Figure 9: accuracy and timeliness categories", Run: RunFig9,
			Jobs: func() []Job { return crossJobs(fig9Workloads, FigurePrefetchers) }},
		{ID: "fig10", Title: "Figure 10: L1 misses per kilo-instruction", Run: RunFig10,
			Jobs: func() []Job { return crossJobs(AllWorkloads(), FigurePrefetchers) }},
		{ID: "fig11", Title: "Figure 11: L2 misses per kilo-instruction", Run: RunFig11,
			Jobs: func() []Job { return crossJobs(AllWorkloads(), FigurePrefetchers) }},
		{ID: "fig12", Title: "Figure 12: speedups over no prefetching", Run: RunFig12,
			Jobs: func() []Job { return crossJobs(AllWorkloads(), FigurePrefetchers) }},
		{ID: "fig13", Title: "Figure 13: impact of CST size on speedup", Run: RunFig13,
			Jobs: fig13Jobs},
		{ID: "fig14", Title: "Figure 14: naive vs spatially optimized layouts", Run: RunFig14,
			Jobs: func() []Job {
				return crossJobs([]string{"ssca2-csr", "ssca2-list", "graph500", "graph500-list"}, FigurePrefetchers)
			}},
		{ID: "limit", Title: "Limit study (extension): fraction of oracle benefit captured", Run: RunLimit,
			Jobs: func() []Job { return crossJobs(limitWorkloads, []string{"none", "oracle", "context", "sms"}) }},
		{ID: "ablations", Title: "Ablations and policy extensions: speedup of each design toggle", Run: RunAblations,
			Jobs: ablationJobs},
	}
}

// PrewarmJobs merges the job matrices of the selected experiments into one
// deduplicated batch of named jobs (runs shared by several figures — most
// of the fig10/11/12 matrix — appear once). Parameterised jobs are
// excluded: they are never memoized, so pre-running them would only double
// their cost; their owning experiment parallelises them itself via
// RunJobs. The named jobs still include every baseline those sweeps share.
func PrewarmJobs(selected []Experiment) []Job {
	seen := make(map[string]bool)
	var out []Job
	for _, e := range selected {
		if e.Jobs == nil {
			continue
		}
		for _, j := range e.Jobs() {
			if j.Config != nil {
				continue
			}
			key := j.Workload + "|" + j.Prefetcher
			if seen[key] {
				continue
			}
			seen[key] = true
			out = append(out, j)
		}
	}
	return out
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

// IDs lists experiment identifiers in paper order.
func IDs() []string {
	es := Experiments()
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = e.ID
	}
	return out
}

// sortedKeys returns map keys in sorted order (stable table output).
func sortedKeys[M ~map[string]V, V any](m M) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
