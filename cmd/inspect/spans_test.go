package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"semloc/internal/harness"
	"semloc/internal/obs"
)

// writeSpanFile records a small synthetic batch — one trace generation, two
// clean cells on overlapping lanes, one failed cell — and writes it the way
// a command's -spans flag does.
func writeSpanFile(t *testing.T) string {
	t.Helper()
	rec := obs.NewSpanRecorder()
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	rec.Add(obs.Span{Cat: obs.CatTrace, Workload: "list", Start: 0, Dur: ms(5)})
	rec.Add(obs.Span{
		Cat: obs.CatRun, Workload: "list", Prefetcher: "none",
		Start: ms(5), Dur: ms(40),
		Phases: []obs.Phase{
			{Name: obs.PhaseDecode, Start: ms(5), Dur: ms(2)},
			{Name: obs.PhaseQueueWait, Start: ms(7), Dur: ms(3)},
			{Name: obs.PhaseWarmup, Start: ms(10), Dur: ms(10)},
			{Name: obs.PhaseMeasured, Start: ms(20), Dur: ms(25)},
		},
	})
	rec.Add(obs.Span{
		Cat: obs.CatRun, Workload: "list", Prefetcher: "context", Point: 2,
		Start: ms(6), Dur: ms(60),
		Phases: []obs.Phase{
			{Name: obs.PhaseDecode, Start: ms(6), Dur: ms(1)},
			{Name: obs.PhaseMeasured, Start: ms(7), Dur: ms(59)},
		},
	})
	rec.Add(obs.Span{
		Cat: obs.CatRun, Workload: "list", Prefetcher: "bogus",
		Start: ms(50), Dur: ms(1), Err: true,
	})
	path := filepath.Join(t.TempDir(), "batch.trace.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := rec.WriteChromeTrace(f); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestInspectSpans(t *testing.T) {
	path := writeSpanFile(t)
	var out bytes.Buffer
	if code := run([]string{"spans", path}, &out); code != harness.ExitOK {
		t.Fatalf("inspect spans exited %d:\n%s", code, out.String())
	}
	got := out.String()
	for _, want := range []string{
		"3 run spans", "1 failed", "1 trace generations",
		"worker lanes", "utilization",
		"queue-wait", "warmup", "measured", "trace-generate",
		"list/none", "list/context[2]", "list/bogus",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("spans output missing %q:\n%s", want, got)
		}
	}
	// The slowest cell leads the table: context[2] at 60ms beats none at 40ms.
	if ci, ni := strings.Index(got, "list/context[2]"), strings.LastIndex(got, "list/none"); ci > ni {
		t.Errorf("slowest-cells table not sorted by duration:\n%s", got)
	}
}

// TestInspectSpansCountsRunLanes records two workers' runs side by side,
// with a trace generation inside the first run's decode wait: the
// generation is a row of the phase table, but opens no worker lane.
func TestInspectSpansCountsRunLanes(t *testing.T) {
	rec := obs.NewSpanRecorder()
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	rec.Add(obs.Span{Cat: obs.CatRun, Workload: "list", Prefetcher: "none", Start: 0, Dur: ms(100),
		Phases: []obs.Phase{
			{Name: obs.PhaseDecode, Start: 0, Dur: ms(30)},
			{Name: obs.PhaseMeasured, Start: ms(30), Dur: ms(70)},
		}})
	rec.Add(obs.Span{Cat: obs.CatTrace, Workload: "list", Start: ms(1), Dur: ms(28)})
	rec.Add(obs.Span{Cat: obs.CatRun, Workload: "mcf", Prefetcher: "none", Start: 0, Dur: ms(100),
		Phases: []obs.Phase{{Name: obs.PhaseMeasured, Start: 0, Dur: ms(100)}}})
	path := filepath.Join(t.TempDir(), "lanes.trace.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := rec.WriteChromeTrace(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var out bytes.Buffer
	if code := run([]string{"spans", path}, &out); code != harness.ExitOK {
		t.Fatalf("inspect spans exited %d:\n%s", code, out.String())
	}
	got := out.String()
	for _, want := range []string{
		"2 run spans (0 failed), 1 trace generations",
		"wall 100ms, busy 200ms across 2 worker lanes (utilization 100%)",
		"trace-generate",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("spans output missing %q:\n%s", want, got)
		}
	}
}

func TestInspectSpansTopLimit(t *testing.T) {
	path := writeSpanFile(t)
	var out bytes.Buffer
	if code := run([]string{"spans", "-top", "1", path}, &out); code != harness.ExitOK {
		t.Fatalf("inspect spans -top 1 exited %d", code)
	}
	got := out.String()
	if !strings.Contains(got, "slowest 1 cells") {
		t.Errorf("-top not honored:\n%s", got)
	}
	// Only the slowest cell appears in the table section.
	if strings.Contains(got[strings.Index(got, "slowest"):], "list/bogus") {
		t.Errorf("-top 1 still lists more than one cell:\n%s", got)
	}
}

func TestInspectSpansErrors(t *testing.T) {
	if code := run([]string{"spans"}, new(bytes.Buffer)); code != harness.ExitUsage {
		t.Errorf("missing file exited %d, want %d", code, harness.ExitUsage)
	}
	bad := filepath.Join(t.TempDir(), "garbage.json")
	if err := os.WriteFile(bad, []byte("not a trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{"spans", bad, "-q"}, new(bytes.Buffer)); code != harness.ExitUsage {
		// flags come before the positional file
		t.Errorf("flags-after-file exited %d, want usage error", code)
	}
	if code := run([]string{"spans", "-q", bad}, new(bytes.Buffer)); code != harness.ExitRunFailed {
		t.Errorf("garbage file exited %d, want %d", code, harness.ExitRunFailed)
	}
	if code := run([]string{"spans", "-q", filepath.Join(t.TempDir(), "nope.json")}, new(bytes.Buffer)); code != harness.ExitRunFailed {
		t.Errorf("missing file exited %d, want %d", code, harness.ExitRunFailed)
	}
}
