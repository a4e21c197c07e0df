package exp

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"semloc/internal/core"
	"semloc/internal/obs"
)

func tinyRunner() *Runner {
	opts := DefaultOptions()
	opts.Scale = 0.02
	return NewRunner(opts)
}

// runCells runs jobs on r as one batch and fails the test on any error.
func runCells(t *testing.T, r *Runner, jobs ...Job) []JobResult {
	t.Helper()
	res, err := r.RunJobs(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for _, jr := range res {
		if jr.Err != nil {
			t.Fatal(jr.Err)
		}
	}
	return res
}

// render runs experiment id's cells on r as one batch, as cmd/experiments
// does, and returns what it renders and the cells' results.
func render(t *testing.T, r *Runner, id string) (string, []JobResult) {
	t.Helper()
	e, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	var jobs []Job
	if e.Jobs != nil {
		jobs = e.Jobs()
	}
	cells := runCells(t, r, jobs...)
	var buf bytes.Buffer
	if err := e.Render(cells, r.Options(), &buf); err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return buf.String(), cells
}

// TestNewPrefetcherAllNames pins the one set of accepted names: every
// evaluated prefetcher, both policy variants and the oracle build and
// report their own name; anything else, and a Config on a non-context
// name, is refused.
func TestNewPrefetcherAllNames(t *testing.T) {
	tr, err := tinyRunner().Trace("list")
	if err != nil {
		t.Fatal(err)
	}
	names := append(append([]string{}, PrefetcherNames...), "context-softmax", "context-ucb", "oracle")
	for _, n := range names {
		pf, err := NewCellPrefetcher(tr, Job{Workload: "list", Prefetcher: n}, 1)
		if err != nil {
			t.Fatalf("NewCellPrefetcher(%q): %v", n, err)
		}
		if pf.Name() != n {
			t.Errorf("prefetcher %q reports name %q", n, pf.Name())
		}
	}
	for _, n := range []string{"bogus", "context-egreedy"} {
		if _, err := NewCellPrefetcher(tr, Job{Workload: "list", Prefetcher: n}, 1); err == nil {
			t.Errorf("NewCellPrefetcher(%q) did not fail", n)
		}
	}
	// A Config configures the context variants only; prefetchsim hands its
	// -config file's context section to every row.
	cfg := core.DefaultConfig()
	if pf, err := NewCellPrefetcher(tr, Job{Workload: "list", Prefetcher: "sms", Config: &cfg}, 1); err != nil || pf.Name() != "sms" {
		t.Errorf("NewCellPrefetcher(sms with a Config) = %v, %v; want the sms prefetcher", pf, err)
	}
}

func TestFigurePrefetchersSubset(t *testing.T) {
	all := make(map[string]bool)
	for _, n := range PrefetcherNames {
		all[n] = true
	}
	for _, n := range FigurePrefetchers {
		if !all[n] {
			t.Errorf("figure prefetcher %q not in PrefetcherNames", n)
		}
	}
}

// TestRunnerCachesResults: a named cell a batch names twice runs once, and
// both jobs get its result.
func TestRunnerCachesResults(t *testing.T) {
	res := runCells(t, tinyRunner(), Job{Workload: "array", Prefetcher: "none"}, Job{Workload: "array", Prefetcher: "none"})
	if res[0].Result != res[1].Result {
		t.Error("the repeated cell should share the first one's result pointer")
	}
}

func TestRunnerCachesTraces(t *testing.T) {
	r := tinyRunner()
	a, err := r.Trace("array")
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Trace("array")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("trace should be generated once")
	}
}

// TestRunnerConcurrentSameKey: eight jobs naming one cell, with eight
// workers free to take them, run it once and share its result.
func TestRunnerConcurrentSameKey(t *testing.T) {
	rec := obs.NewSpanRecorder()
	r := obsRunner(8, nil, rec)
	jobs := make([]Job, 8)
	for i := range jobs {
		jobs[i] = Job{Workload: "list", Prefetcher: "context"}
	}
	res := runCells(t, r, jobs...)
	for i := 1; i < len(res); i++ {
		if res[i].Result != res[0].Result {
			t.Fatal("jobs naming one cell should share one result")
		}
	}
	runs := 0
	for _, s := range rec.Spans() {
		if s.Cat == obs.CatRun {
			runs++
		}
	}
	if runs != 1 {
		t.Errorf("the cell ran %d times, want 1", runs)
	}
}

func TestRunnerUnknownWorkload(t *testing.T) {
	res, err := tinyRunner().RunJobs([]Job{{Workload: "nope", Prefetcher: "none"}, {Workload: "array", Prefetcher: "nope"}})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Err == nil {
		t.Error("expected error for unknown workload")
	}
	if res[1].Err == nil {
		t.Error("expected error for unknown prefetcher")
	}
}

func TestSpeedup(t *testing.T) {
	res := runCells(t, tinyRunner(), Job{Workload: "array", Prefetcher: "none"}, Job{Workload: "array", Prefetcher: "sms"})
	if s := speedup(res[1], res[0]); s <= 0 {
		t.Errorf("speedup = %v, want positive", s)
	}
}

func TestWorkloadLists(t *testing.T) {
	if len(AllWorkloads()) < 30 {
		t.Errorf("AllWorkloads = %d, want >= 30", len(AllWorkloads()))
	}
	if len(SPECWorkloads()) != 16 {
		t.Errorf("SPECWorkloads = %d, want 16", len(SPECWorkloads()))
	}
}

func TestExperimentRegistry(t *testing.T) {
	want := []string{"table2", "table3", "fig1", "fig5", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "limit", "ablations"}
	got := Experiments()
	if len(got) != len(want) {
		t.Fatalf("%d experiments, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i] {
			t.Errorf("experiment %d is %q, want %q", i, got[i].ID, want[i])
		}
	}
	if _, err := ByID("fig12"); err != nil {
		t.Error(err)
	}
	if _, err := ByID("fig99"); err == nil {
		t.Error("expected error for unknown id")
	}
}

// TestCheapExperimentsRun executes the fast experiments end-to-end.
func TestCheapExperimentsRun(t *testing.T) {
	r := tinyRunner()
	for _, id := range []string{"table2", "table3", "fig1", "fig5"} {
		if out, _ := render(t, r, id); out == "" {
			t.Errorf("%s produced no output", id)
		}
	}
}

func TestTable2MatchesPaper(t *testing.T) {
	out, _ := render(t, tinyRunner(), "table2")
	for _, want := range []string{"4-wide", "192 ROB", "L1: 4, L2: 20", "64kB", "2MB", "300 cycles", "2048 entries x 4 links", "16384 entries"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 2 output missing %q:\n%s", want, out)
		}
	}
}

func TestFig1ShowsSemanticLinearity(t *testing.T) {
	out, _ := render(t, tinyRunner(), "fig1")
	if !strings.Contains(out, "consecutive-access adjacency") {
		t.Fatalf("missing adjacency summary:\n%s", out)
	}
	// Parse the two percentages: logical must dominate physical.
	var logical, physical float64
	var transitions int
	if _, err := fmtSscanf(out, &logical, &physical, &transitions); err != nil {
		t.Fatalf("cannot parse summary: %v\n%s", err, out)
	}
	if logical < 50 {
		t.Errorf("logical adjacency = %.1f%%, want dominant", logical)
	}
	if physical > logical/2 {
		t.Errorf("physical adjacency = %.1f%% should be far below logical %.1f%%", physical, logical)
	}
}

// fmtSscanf extracts the adjacency numbers from Figure 1's summary line.
func fmtSscanf(out string, logical, physical *float64, transitions *int) (int, error) {
	idx := strings.Index(out, "consecutive-access adjacency")
	line := out[idx:]
	if nl := strings.IndexByte(line, '\n'); nl >= 0 {
		line = line[:nl]
	}
	return fmt.Sscanf(line, "consecutive-access adjacency: logical %f%%, physical %f%% (of %d transitions)", logical, physical, transitions)
}
