package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"semloc/internal/exp"
	"semloc/internal/harness"
	"semloc/internal/obs"
)

// makeArtifacts runs one small instrumented simulation and returns the
// artifact directory. Each test runs its own: the run is tiny.
func makeArtifacts(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	opts := exp.DefaultOptions()
	opts.Scale = 0.05
	opts.OutDir = dir
	opts.Telemetry = obs.Config{Interval: 1024, DecisionRate: 16}
	res, err := exp.NewRunner(opts).RunJobs([]exp.Job{{Workload: "list", Prefetcher: "context"}})
	if err == nil {
		err = res[0].Err
	}
	if err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestRoundTripExitCodes is the acceptance gate: a run's artifact must
// emit → parse → validate through the CLI with exit code 0.
func TestRoundTripExitCodes(t *testing.T) {
	dir := makeArtifacts(t)
	art := exp.ArtifactPath(dir, "list", "context")

	var out bytes.Buffer
	if code := run([]string{"-q", "-run", art, "-validate"}, &out); code != harness.ExitOK {
		t.Fatalf("-validate exit %d, output %q", code, out.String())
	}
	if out.Len() == 0 {
		t.Fatal("-validate printed nothing")
	}

	out.Reset()
	if code := run([]string{"-q", "-run", art}, &out); code != harness.ExitOK {
		t.Fatalf("summary exit %d", code)
	}
	if !bytes.Contains(out.Bytes(), []byte("list/context")) {
		t.Fatalf("summary missing run identity: %q", out.String())
	}

	// Failure paths keep the harness contract.
	if code := run([]string{"-q"}, &out); code != harness.ExitUsage {
		t.Fatalf("no input: exit %d, want usage", code)
	}
	if code := run([]string{"-q", "-run", art, "-format", "xml"}, &out); code != harness.ExitUsage {
		t.Fatalf("bad format: exit %d, want usage", code)
	}
	if code := run([]string{"-q", "-run", filepath.Join(dir, "nope.json")}, &out); code != harness.ExitRunFailed {
		t.Fatalf("missing artifact: exit %d, want run-failed", code)
	}
}

// TestCurveCSVMatchesSeries checks the CSV learning curve row-for-row
// against the series inside the artifact.
func TestCurveCSVMatchesSeries(t *testing.T) {
	dir := makeArtifacts(t)
	artPath := exp.ArtifactPath(dir, "list", "context")
	art, err := exp.LoadArtifact(artPath)
	if err != nil {
		t.Fatal(err)
	}
	series := art.Result.Series
	if series == nil || len(series.Samples) == 0 {
		t.Fatal("instrumented run produced no series")
	}

	var out bytes.Buffer
	if code := run([]string{"-q", "-run", artPath, "-curve"}, &out); code != harness.ExitOK {
		t.Fatalf("curve exit %d", code)
	}
	rows, err := csv.NewReader(&out).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(series.Samples)+1 {
		t.Fatalf("%d CSV rows for %d samples", len(rows)-1, len(series.Samples))
	}
	if rows[0][0] != "index" {
		t.Fatalf("header %v", rows[0])
	}
	for i, sm := range series.Samples {
		idx, err := strconv.ParseUint(rows[i+1][0], 10, 64)
		if err != nil || idx != sm.Index {
			t.Fatalf("row %d index %q, want %d (%v)", i, rows[i+1][0], sm.Index, err)
		}
	}

	// JSON mode must round-trip back into a valid Series.
	out.Reset()
	if code := run([]string{"-q", "-run", artPath, "-curve", "-format", "json"}, &out); code != harness.ExitOK {
		t.Fatalf("curve json exit %d", code)
	}
	var back obs.Series
	if err := json.Unmarshal(out.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(back.Samples) != len(series.Samples) {
		t.Fatalf("json round trip lost samples: %d != %d", len(back.Samples), len(series.Samples))
	}
}

// TestDeltasAndDecisions covers the top-delta evolution and decision-trace
// summary renderings.
func TestDeltasAndDecisions(t *testing.T) {
	dir := makeArtifacts(t)
	artPath := exp.ArtifactPath(dir, "list", "context")

	var out bytes.Buffer
	if code := run([]string{"-q", "-run", artPath, "-deltas"}, &out); code != harness.ExitOK {
		t.Fatalf("deltas exit %d", code)
	}
	rows, err := csv.NewReader(&out).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) < 2 {
		t.Fatal("no delta evolution rows")
	}
	for _, row := range rows[1:] {
		if len(row) != 4 {
			t.Fatalf("delta row shape %v", row)
		}
	}

	out.Reset()
	decPath := exp.DecisionsPath(dir, "list", "context")
	if code := run([]string{"-q", "-decisions", decPath, "-format", "json"}, &out); code != harness.ExitOK {
		t.Fatalf("decisions exit %d", code)
	}
	var sum decisionSummary
	if err := json.Unmarshal(out.Bytes(), &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Events == 0 || sum.ByKind[obs.KindDecide] == 0 {
		t.Fatalf("decision summary empty: %+v", sum)
	}
	art, err := exp.LoadArtifact(artPath)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(sum.Events) != art.Result.Series.Decisions {
		t.Fatalf("summary events %d, series recorded %d", sum.Events, art.Result.Series.Decisions)
	}
}

// TestOutFlagWritesFile checks -out lands the rendering on disk.
func TestOutFlagWritesFile(t *testing.T) {
	dir := makeArtifacts(t)
	artPath := exp.ArtifactPath(dir, "list", "context")
	outFile := filepath.Join(t.TempDir(), "curve.csv")

	var out bytes.Buffer
	if code := run([]string{"-q", "-run", artPath, "-curve", "-out", outFile}, &out); code != harness.ExitOK {
		t.Fatalf("exit %d", code)
	}
	data, err := os.ReadFile(outFile)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(data, []byte("index,")) {
		t.Fatalf("unexpected file contents: %q", data[:min(len(data), 40)])
	}
	if out.Len() != 0 {
		t.Fatalf("stdout not empty with -out: %q", out.String())
	}
}
