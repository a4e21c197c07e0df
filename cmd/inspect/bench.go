package main

// The "bench" subcommand checks the frozen BENCH_<n>.json reports (schema
// in DESIGN.md §10): both must validate, and no matrix cell they share may
// regress from the old report to the new one.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"semloc/internal/harness"
)

// Regression thresholds. Wall-clock per-access cost gets 10% of headroom
// (single-run timings jitter); allocation counts are nearly deterministic,
// so any real per-access increase is treated as a leak — allocTol only
// absorbs float division noise and stray GC bookkeeping.
const (
	nsRegressionFrac = 0.10
	allocTol         = 0.01
)

// benchEntry is one (workload, prefetcher) cell of a BENCH report.
type benchEntry struct {
	Workload        string  `json:"workload"`
	Prefetcher      string  `json:"prefetcher"`
	Accesses        uint64  `json:"accesses"`
	WallNS          int64   `json:"wall_ns"`
	NSPerAccess     float64 `json:"ns_per_access"`
	AllocsPerAccess float64 `json:"allocs_per_access"`
	IPC             float64 `json:"ipc"`
}

// benchReport is the BENCH_<n>.json schema (version 1), as far as it is
// checked.
type benchReport struct {
	Schema int `json:"schema"`
	// TimedParallelism is the worker count of the timed passes: timings
	// from contending simulations would be noise, so only 1 is valid
	// (BENCH_2 predates the field).
	TimedParallelism int `json:"timed_parallelism"`
	// TimedPasses is how many timed passes each cell's wall time is the
	// minimum of (BENCH_2 and BENCH_3 predate the field: one pass).
	TimedPasses int          `json:"timed_passes"`
	Entries     []benchEntry `json:"entries"`
}

// validate checks what makes a report's cells comparable: a known schema,
// a sequential timed pass, and positive work, time and IPC in every cell.
func (r *benchReport) validate() error {
	if r.Schema != 1 {
		return fmt.Errorf("unknown schema %d", r.Schema)
	}
	if len(r.Entries) == 0 {
		return fmt.Errorf("no entries")
	}
	for _, e := range r.Entries {
		if e.Workload == "" || e.Prefetcher == "" {
			return fmt.Errorf("entry with empty identity: %+v", e)
		}
		if e.Accesses == 0 || e.WallNS <= 0 || e.NSPerAccess <= 0 || e.IPC <= 0 {
			return fmt.Errorf("%s/%s measured no work: %+v", e.Workload, e.Prefetcher, e)
		}
	}
	if r.TimedParallelism < 0 || r.TimedParallelism > 1 {
		return fmt.Errorf("timed passes ran at parallelism %d; timings are only valid sequentially", r.TimedParallelism)
	}
	if r.TimedPasses < 0 {
		return fmt.Errorf("report records %d timed passes", r.TimedPasses)
	}
	return nil
}

// loadBenchReport parses and validates a BENCH_<n>.json file.
func loadBenchReport(path string) (*benchReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep benchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	if err := rep.validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// benchDelta is one cell's old-vs-new comparison.
type benchDelta struct {
	Workload   string
	Prefetcher string
	OldNS      float64
	NewNS      float64
	NSFrac     float64 // (new-old)/old
	OldAllocs  float64
	NewAllocs  float64
	Regressed  bool
	Reason     string
}

// compareBench diffs two reports cell by cell over their shared matrix. A
// cell regresses when ns/access grows more than nsRegressionFrac or
// allocs/access grows beyond allocTol. Cells present in only one report
// are ignored (the matrix was allowed to evolve); an empty intersection is
// an error, since "nothing compared" must not read as "no regressions".
func compareBench(oldRep, newRep *benchReport) ([]benchDelta, error) {
	oldBy := make(map[string]benchEntry, len(oldRep.Entries))
	for _, e := range oldRep.Entries {
		oldBy[e.Workload+"|"+e.Prefetcher] = e
	}
	var deltas []benchDelta
	for _, n := range newRep.Entries {
		o, ok := oldBy[n.Workload+"|"+n.Prefetcher]
		if !ok {
			continue
		}
		d := benchDelta{
			Workload:   n.Workload,
			Prefetcher: n.Prefetcher,
			OldNS:      o.NSPerAccess,
			NewNS:      n.NSPerAccess,
			NSFrac:     (n.NSPerAccess - o.NSPerAccess) / o.NSPerAccess,
			OldAllocs:  o.AllocsPerAccess,
			NewAllocs:  n.AllocsPerAccess,
		}
		switch {
		case d.NSFrac > nsRegressionFrac:
			d.Regressed = true
			d.Reason = fmt.Sprintf("ns/access +%.1f%% (limit %.0f%%)", d.NSFrac*100, nsRegressionFrac*100)
		case d.NewAllocs > d.OldAllocs+allocTol:
			d.Regressed = true
			d.Reason = fmt.Sprintf("allocs/access %.4f -> %.4f", d.OldAllocs, d.NewAllocs)
		}
		deltas = append(deltas, d)
	}
	if len(deltas) == 0 {
		return nil, fmt.Errorf("reports share no matrix cells; nothing to compare")
	}
	sort.Slice(deltas, func(i, j int) bool {
		if deltas[i].Workload != deltas[j].Workload {
			return deltas[i].Workload < deltas[j].Workload
		}
		return deltas[i].Prefetcher < deltas[j].Prefetcher
	})
	return deltas, nil
}

// renderBenchCompare prints the comparison table and returns the number of
// regressed cells.
func renderBenchCompare(w io.Writer, oldPath, newPath string, deltas []benchDelta) int {
	fmt.Fprintf(w, "bench compare: %s -> %s\n", oldPath, newPath)
	fmt.Fprintf(w, "%-16s %-10s %12s %12s %8s  %s\n",
		"workload", "prefetcher", "old ns/acc", "new ns/acc", "delta", "verdict")
	regressed := 0
	for _, d := range deltas {
		verdict := "ok"
		if d.Regressed {
			verdict = "REGRESSION: " + d.Reason
			regressed++
		}
		fmt.Fprintf(w, "%-16s %-10s %12.2f %12.2f %+7.1f%%  %s\n",
			d.Workload, d.Prefetcher, d.OldNS, d.NewNS, d.NSFrac*100, verdict)
	}
	if regressed > 0 {
		fmt.Fprintf(w, "bench compare: %d/%d cells regressed\n", regressed, len(deltas))
	} else {
		fmt.Fprintf(w, "bench compare: no regressions across %d cells\n", len(deltas))
	}
	return regressed
}

// runBench is the "inspect bench OLD NEW" entry point.
func runBench(args []string, stdout io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "inspect bench: two BENCH reports required (old new)")
		return harness.ExitUsage
	}
	var reps [2]*benchReport
	for i, path := range args {
		rep, err := loadBenchReport(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "inspect bench:", err)
			return harness.ExitRunFailed
		}
		reps[i] = rep
	}
	deltas, err := compareBench(reps[0], reps[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "inspect bench:", err)
		return harness.ExitRunFailed
	}
	if renderBenchCompare(stdout, args[0], args[1], deltas) > 0 {
		return harness.ExitRunFailed
	}
	return harness.ExitOK
}
