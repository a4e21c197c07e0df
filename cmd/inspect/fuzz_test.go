package main

import (
	"io"
	"os"
	"path/filepath"
	"testing"

	"semloc/internal/exp"
	"semloc/internal/harness"
	"semloc/internal/obs"
)

// FuzzInspectReaders writes each input to a file and passes it to every
// form of the command that reads one: each must exit 0 or 1 (the file is
// rendered, or refused as missing or corrupt), and none may panic.
func FuzzInspectReaders(f *testing.F) {
	loadgen, bench := filepath.Join("..", "..", "LOADGEN_1.json"), filepath.Join("..", "..", "BENCH_4.json")
	art, decisions, spans := instrumentedRun(f)
	// Each seed, read by a form that must render it.
	for _, args := range [][]string{
		{"serve", "-q", loadgen},
		{"bench", bench, bench},
		{"-q", "-run", art},
		{"-q", "-decisions", decisions},
		{"spans", "-q", spans},
	} {
		if code := run(args, io.Discard); code != harness.ExitOK {
			f.Fatalf("seed: inspect %v exited %d", args, code)
		}
		data, err := os.ReadFile(args[len(args)-1])
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "input")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, args := range readers(path) {
			if code := run(args, io.Discard); code != harness.ExitOK && code != harness.ExitRunFailed {
				t.Errorf("inspect %v exited %d", args, code)
			}
		}
	})
}

// readers lists every form of the command that reads a file, reading the
// one at path.
func readers(path string) [][]string {
	return [][]string{
		{"-q", "-run", path},
		{"-q", "-run", path, "-curve"},
		{"-q", "-run", path, "-deltas"},
		{"-q", "-run", path, "-validate"},
		{"-q", "-decisions", path},
		{"spans", "-q", path},
		{"serve", "-q", path},
		{"bench", path, path},
		{"learner", "-q", "-run", path},
		{"learner", "-q", "-run", path, "-check"},
		{"learner", "-q", "-explain", path},
	}
}

// instrumentedRun runs list/context at a tiny scale with telemetry, a
// decision trace and span recording, as experiments -obs-dir -spans does,
// and returns the paths of its artifact, decision trace and span file.
func instrumentedRun(tb testing.TB) (art, decisions, spans string) {
	tb.Helper()
	dir := tb.TempDir()
	opts := exp.DefaultOptions()
	opts.Scale = 0.02
	opts.OutDir = dir
	// Sparse sampling keeps the seeds to a few kilobytes each.
	opts.Telemetry = obs.Config{Interval: 4096, DecisionRate: 1024}
	opts.Spans = obs.NewSpanRecorder()
	res, err := exp.NewRunner(opts).RunJobs([]exp.Job{{Workload: "list", Prefetcher: "context"}})
	if err == nil {
		err = res[0].Err
	}
	if err != nil {
		tb.Fatal(err)
	}
	spans = filepath.Join(dir, "spans.json")
	f, err := os.Create(spans)
	if err != nil {
		tb.Fatal(err)
	}
	defer f.Close()
	if err := opts.Spans.WriteChromeTrace(f); err != nil {
		tb.Fatal(err)
	}
	return exp.ArtifactPath(dir, "list", "context"), exp.DecisionsPath(dir, "list", "context"), spans
}
