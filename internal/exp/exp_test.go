package exp

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"semloc/internal/core"
)

func tinyRunner() *Runner {
	opts := DefaultOptions()
	opts.Scale = 0.02
	return NewRunner(opts)
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

func TestRunnerCachesResults(t *testing.T) {
	r := tinyRunner()
	a, err := r.Result("array", "none")
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Result("array", "none")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("second Result call should return the cached pointer")
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

func TestRunnerConcurrentSameKey(t *testing.T) {
	r := tinyRunner()
	var wg sync.WaitGroup
	results := make([]interface{}, 8)
	for i := 0; i < 8; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := r.Result("list", "context")
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}()
	}
	wg.Wait()
	for i := 1; i < 8; i++ {
		if results[i] != results[0] {
			t.Fatal("concurrent callers should share one result")
		}
	}
}

func TestRunnerUnknownWorkload(t *testing.T) {
	r := tinyRunner()
	if _, err := r.Result("nope", "none"); err == nil {
		t.Error("expected error for unknown workload")
	}
	if _, err := r.Result("array", "nope"); err == nil {
		t.Error("expected error for unknown prefetcher")
	}
}

func TestSpeedup(t *testing.T) {
	r := tinyRunner()
	s, err := r.Speedup("array", "sms")
	if err != nil {
		t.Fatal(err)
	}
	if s <= 0 {
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
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := e.Run(r, &buf); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if buf.Len() == 0 {
			t.Errorf("%s produced no output", id)
		}
	}
}

func TestTable2MatchesPaper(t *testing.T) {
	var buf bytes.Buffer
	if err := RunTable2(tinyRunner(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"4-wide", "192 ROB", "L1: 4, L2: 20", "64kB", "2MB", "300 cycles", "2048 entries x 4 links", "16384 entries"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 2 output missing %q:\n%s", want, out)
		}
	}
}

func TestFig1ShowsSemanticLinearity(t *testing.T) {
	var buf bytes.Buffer
	if err := RunFig1(tinyRunner(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
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

// fmtSscanf extracts the adjacency numbers from RunFig1's summary line.
func fmtSscanf(out string, logical, physical *float64, transitions *int) (int, error) {
	idx := strings.Index(out, "consecutive-access adjacency")
	line := out[idx:]
	if nl := strings.IndexByte(line, '\n'); nl >= 0 {
		line = line[:nl]
	}
	return fmt.Sscanf(line, "consecutive-access adjacency: logical %f%%, physical %f%% (of %d transitions)", logical, physical, transitions)
}
