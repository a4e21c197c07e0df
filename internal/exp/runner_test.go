package exp

import (
	"bytes"
	"context"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"semloc/internal/core"
	"semloc/internal/harness"
	"semloc/internal/trace"
)

// TestExperimentReportsEveryFailedCell: an experiment with two failing
// cells renders nothing and reports both, joined, not just the first.
func TestExperimentReportsEveryFailedCell(t *testing.T) {
	e := Experiment{
		ID: "failing",
		Jobs: func() []Job {
			return crossJobs([]string{"array"}, []string{"none", "bogus-a", "bogus-b"})
		},
		render: func([]JobResult, Options, io.Writer) { t.Error("rendered an experiment whose cells failed") },
	}
	r := tinyRunner()
	cells, err := r.RunJobs(e.Jobs())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	err = e.Render(cells, r.Options(), &buf)
	if err == nil {
		t.Fatal("expected errors for unknown prefetchers")
	}
	for _, want := range []string{"bogus-a", "bogus-b"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("joined error %q does not name failing cell %q", err, want)
		}
	}
	if buf.Len() != 0 {
		t.Errorf("wrote %q for a failed experiment", buf.String())
	}
}

// TestExperimentNamesEachFailedCellOnce: when a trace fails to generate,
// the error holds one line per failing cell, and each line names its cell,
// workload, prefetcher and a Config job's point, once.
func TestExperimentNamesEachFailedCellOnce(t *testing.T) {
	cfg := core.DefaultConfig()
	e := Experiment{
		ID: "failing",
		Jobs: func() []Job {
			return append(crossJobs([]string{"nope"}, []string{"none", "context"}),
				Job{Workload: "nope", Prefetcher: "context", Point: 2, Config: &cfg})
		},
		render: func([]JobResult, Options, io.Writer) { t.Error("rendered an experiment whose cells failed") },
	}
	r := tinyRunner()
	cells, err := r.RunJobs(e.Jobs())
	if err != nil {
		t.Fatal(err)
	}
	err = e.Render(cells, r.Options(), io.Discard)
	if err == nil {
		t.Fatal("expected errors for an unknown workload")
	}
	lines := strings.Split(err.Error(), "\n")
	want := []string{"nope/none", "nope/context", "nope/context[2]"}
	if len(lines) != len(want) {
		t.Fatalf("%d lines, want %d:\n%v", len(lines), len(want), err)
	}
	for i, line := range lines {
		if !strings.HasPrefix(line, "exp: "+want[i]+": ") || strings.Count(line, "nope") != 1 {
			t.Errorf("line %d %q does not name cell %s once", i, line, want[i])
		}
	}
}

func TestRunnerCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := DefaultOptions()
	opts.Scale = 0.02
	res, err := NewRunnerContext(ctx, opts).RunJobs([]Job{{Workload: "array", Prefetcher: "none"}})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Err == nil {
		t.Fatal("expected cancellation error")
	}
	if !harness.IsCancelled(res[0].Err) {
		t.Errorf("IsCancelled = false for %v", res[0].Err)
	}
	// Cancellation is a property of the attempt: a fresh runner with a
	// live context still runs the cell.
	runCells(t, tinyRunner(), Job{Workload: "array", Prefetcher: "none"})
}

// TestTraceSingleFlight regresses the duplicated-generation bug: N
// concurrent callers racing on a cold workload each ran the generator,
// multiplying work and peak heap by N. All concurrent callers must share
// one generation and receive the same memoized trace.
func TestTraceSingleFlight(t *testing.T) {
	const callers = 16
	r := tinyRunner()
	var gens atomic.Int32
	r.traces.genHook = func(string) { gens.Add(1) }

	var wg sync.WaitGroup
	traces := make([]*trace.Trace, callers)
	errs := make([]error, callers)
	start := make(chan struct{})
	for i := 0; i < callers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			traces[i], errs[i] = r.Trace("list")
		}()
	}
	close(start)
	wg.Wait()

	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if traces[i] == nil || traces[i] != traces[0] {
			t.Fatalf("caller %d got a different trace pointer", i)
		}
	}
	if n := gens.Load(); n != 1 {
		t.Errorf("generator ran %d times for %d concurrent callers, want 1", n, callers)
	}
	// A later call still hits the memoized trace, not the generator.
	if _, err := r.Trace("list"); err != nil {
		t.Fatal(err)
	}
	if n := gens.Load(); n != 1 {
		t.Errorf("generator re-ran on a warm cache (%d runs)", n)
	}
}

// TestTraceErrorMemoized ensures a failed generation is remembered like a
// failed result: the unknown-workload error returns consistently without
// re-entering the lookup each time through a fresh in-flight slot.
func TestTraceErrorMemoized(t *testing.T) {
	r := tinyRunner()
	_, err1 := r.Trace("no-such-workload")
	if err1 == nil {
		t.Fatal("expected error for unknown workload")
	}
	_, err2 := r.Trace("no-such-workload")
	if err2 == nil {
		t.Fatal("expected memoized error for unknown workload")
	}
}
