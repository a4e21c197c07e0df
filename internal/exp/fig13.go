package exp

import (
	"fmt"
	"io"
	"sort"

	"semloc/internal/core"
	"semloc/internal/stats"
)

// fig13Sizes are the CST entry counts swept in Figure 13; the reducer is
// held at 8x the CST size as in the paper.
var fig13Sizes = []int{512, 1024, 2048, 4096, 8192, 16384, 32768}

// fig13Workloads is the evaluation subset for the storage sweep. The full
// suite at seven sizes is expensive; this cross-section preserves the mix
// that produces the paper's non-monotone curve.
var fig13Workloads = []string{
	"list", "listsort", "bst", "mcf", "ssca_lds",
	"graph500-list", "omnetpp", "array", "libquantum", "hmmer",
}

// fig13Jobs builds the storage sweep's job matrix: the no-prefetch
// baselines, one per workload, followed by one parameterised context run
// per (CST size, workload).
func fig13Jobs() []Job {
	jobs := make([]Job, 0, len(fig13Workloads)*(1+len(fig13Sizes)))
	for _, wl := range fig13Workloads {
		jobs = append(jobs, Job{Workload: wl, Prefetcher: "none"})
	}
	for si, size := range fig13Sizes {
		cfg := fig13Config(size)
		for _, wl := range fig13Workloads {
			jobs = append(jobs, Job{Workload: wl, Prefetcher: "context", Point: si, Config: &cfg})
		}
	}
	return jobs
}

// renderFig13 regenerates Figure 13: average speedup as a function of the
// context prefetcher's storage size, for the ten workloads that benefit
// most (Top10) and for the whole sweep set (All). The paper's point is
// that bigger is not monotonically better for a learning prefetcher.
func renderFig13(cells []JobResult, _ Options, w io.Writer) {
	n := len(fig13Workloads)
	base, sweep := cells[:n], cells[n:]
	// speedups[si][wi] is workload wi's speedup at CST size si, in
	// fig13Workloads order, so every average sums in one fixed order.
	speedups := make([][]float64, len(fig13Sizes))
	for si := range speedups {
		speedups[si] = make([]float64, n)
		for wi := range base {
			speedups[si][wi] = speedup(sweep[si*n+wi], base[wi])
		}
	}

	// Top10 at the default size would be the paper's selection; with a
	// ten-workload sweep set, Top half plays that role.
	atDefault := speedups[indexOf(fig13Sizes, core.DefaultConfig().CSTEntries)]
	rank := make([]int, n)
	for wi := range rank {
		rank[wi] = wi
	}
	sort.Slice(rank, func(i, j int) bool { return atDefault[rank[i]] > atDefault[rank[j]] })
	top := make([]bool, n)
	for _, wi := range rank[:n/2] {
		top[wi] = true
	}

	tb := stats.NewTable("Figure 13: speedup vs CST storage size", "CST entries", "storage", "speedup (Top)", "speedup (All)")
	for si, size := range fig13Sizes {
		var topv []float64
		for wi, s := range speedups[si] {
			if top[wi] {
				topv = append(topv, s)
			}
		}
		cfg := fig13Config(size)
		tb.AddRow(size, fmt.Sprintf("%dkB", cfg.StorageBytes()>>10), stats.Mean(topv), stats.Mean(speedups[si]))
	}
	tb.Render(w)
	fmt.Fprintln(w, "expectation (paper): benefit peaks at mid sizes and does not keep improving with storage")
}

// fig13Config scales the context prefetcher to the given CST size with the
// reducer held at 8x.
func fig13Config(cstEntries int) core.Config {
	cfg := core.DefaultConfig()
	cfg.CSTEntries = cstEntries
	cfg.ReducerEntries = cstEntries * 8
	return cfg
}

func indexOf(xs []int, v int) int {
	for i, x := range xs {
		if x == v {
			return i
		}
	}
	return 0
}
