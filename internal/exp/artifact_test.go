package exp

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"semloc/internal/core"
	"semloc/internal/obs"
	"semloc/internal/sim"
)

func TestRunnerPersistsArtifacts(t *testing.T) {
	dir := t.TempDir()
	opts := DefaultOptions()
	opts.Scale = 0.05
	opts.OutDir = dir
	opts.Telemetry = obs.Config{Interval: 1024, DecisionRate: 16}
	r := NewRunner(opts)

	res := runCells(t, r, Job{Workload: "list", Prefetcher: "context"})[0].Result
	if res.Series == nil {
		t.Fatal("telemetry enabled via Options but result has no series")
	}

	art, err := LoadArtifact(ArtifactPath(dir, "list", "context"))
	if err != nil {
		t.Fatal(err)
	}
	if art.Workload != "list" || art.Prefetcher != "context" {
		t.Fatalf("artifact identity %s/%s", art.Workload, art.Prefetcher)
	}
	if art.IPC <= 0 || art.IPC != res.IPC() {
		t.Fatalf("artifact IPC %v, result %v", art.IPC, res.IPC())
	}
	// The learner's final snapshot lands in the same artifact as the
	// figure data, and Figure 8's hit-depth histogram survives the trip.
	if l := art.Learner; l == nil || l.Accesses == 0 || l.CSTEntries == 0 || len(l.TopDeltas) == 0 {
		t.Fatalf("artifact missing the learner snapshot: %+v", art.Learner)
	}
	if art.Result.HitDepths == nil || art.Result.HitDepths.Total() == 0 ||
		art.Result.HitDepths.Total() != res.HitDepths.Total() {
		t.Fatal("hit-depth histogram did not survive the round trip")
	}
	if art.Result.Series == nil || len(art.Result.Series.Samples) == 0 {
		t.Fatal("artifact missing telemetry series")
	}
	if err := art.Result.Series.Validate(); err != nil {
		t.Fatal(err)
	}

	// The decision trace must exist, parse, and agree with the series.
	f, err := os.Open(DecisionsPath(dir, "list", "context"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	evs, err := obs.ReadDecisions(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) == 0 {
		t.Fatal("empty decision trace")
	}
	if got := art.Result.Series.Decisions; got != uint64(len(evs)) {
		t.Fatalf("series says %d decisions, trace holds %d", got, len(evs))
	}
}

func TestRunnerPersistsNonInstrumentedPrefetcher(t *testing.T) {
	dir := t.TempDir()
	opts := DefaultOptions()
	opts.Scale = 0.05
	opts.OutDir = dir
	opts.Telemetry = obs.Config{Interval: 2048}
	r := NewRunner(opts)

	runCells(t, r, Job{Workload: "array", Prefetcher: "none"})
	art, err := LoadArtifact(ArtifactPath(dir, "array", "none"))
	if err != nil {
		t.Fatal(err)
	}
	if art.Learner != nil {
		t.Fatal("none prefetcher should have no learner section")
	}
	if art.Result.Series == nil {
		t.Fatal("machine-side series missing")
	}
	// No decision trace was configured; none must exist.
	if _, err := os.Stat(DecisionsPath(dir, "array", "none")); !os.IsNotExist(err) {
		t.Fatalf("unexpected decision trace: %v", err)
	}
}

// TestRunnerPersistsDefaultConfigJob: a run whose key is its name's
// default is the named cell, so it gets telemetry and an artifact even when
// the first (here the only) job with that key is a Config job at a sweep
// point; a Config job off the default gets neither.
func TestRunnerPersistsDefaultConfigJob(t *testing.T) {
	dir := t.TempDir()
	opts := DefaultOptions()
	opts.Scale = 0.02
	opts.OutDir = dir
	opts.Telemetry = obs.Config{Interval: 1024}
	def, off := core.DefaultConfig(), core.DefaultConfig()
	off.Epsilon = 0.25
	res := runCells(t, NewRunner(opts),
		Job{Workload: "list", Prefetcher: "context", Point: 2, Config: &def},
		Job{Workload: "array", Prefetcher: "context", Point: 3, Config: &off})
	if res[0].Result.Series == nil {
		t.Error("the default-config job ran without telemetry")
	}
	if _, err := LoadArtifact(ArtifactPath(dir, "list", "context")); err != nil {
		t.Errorf("the default-config job wrote no artifact: %v", err)
	}
	if res[1].Result.Series != nil {
		t.Error("a job off the default configuration ran with telemetry")
	}
	if _, err := os.Stat(ArtifactPath(dir, "array", "context")); !os.IsNotExist(err) {
		t.Errorf("a job off the default configuration wrote an artifact (stat: %v)", err)
	}
}

func TestArtifactValidateRejectsMalformed(t *testing.T) {
	cases := []*RunArtifact{
		nil,
		{},
		{Schema: ArtifactSchema},
		{Schema: ArtifactSchema, Workload: "w", Prefetcher: "p"},
	}
	for i, a := range cases {
		if err := a.Validate(); err == nil {
			t.Fatalf("case %d: malformed artifact validated", i)
		}
	}
	// An artifact from before the learner snapshot is refused, with the way
	// to write it again.
	for _, schema := range []int{1, 2} {
		a := &RunArtifact{Schema: schema, Workload: "w", Prefetcher: "p", Result: &sim.Result{}}
		if err := a.Validate(); err == nil || !strings.Contains(err.Error(), "-obs-dir") {
			t.Errorf("schema %d artifact: got %v, want a refusal naming -obs-dir", schema, err)
		}
	}
}

// TestArtifactRoundTripByteIdentical is the codec property test for the
// per-run artifact: the bytes WriteArtifact persisted, re-loaded through
// LoadArtifact and re-marshaled, must be identical — the learner snapshot
// and the hit-depth histogram must not drift through float formatting or
// field ordering across snapshot/restore cycles.
func TestArtifactRoundTripByteIdentical(t *testing.T) {
	dir := t.TempDir()
	opts := DefaultOptions()
	opts.Scale = 0.05
	opts.OutDir = dir
	opts.Telemetry = obs.Config{Interval: 1024}
	runCells(t, NewRunner(opts), Job{Workload: "list", Prefetcher: "context"})

	path := ArtifactPath(dir, "list", "context")
	first, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	art, err := LoadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	// Write the loaded artifact again and compare files: one full
	// snapshot → restore → snapshot cycle through the JSON codec.
	dir2 := t.TempDir()
	if _, err := WriteArtifact(dir2, art); err != nil {
		t.Fatal(err)
	}
	second, err := os.ReadFile(ArtifactPath(dir2, "list", "context"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		a, b := first, second
		for i := 0; i < len(a) && i < len(b); i++ {
			if a[i] != b[i] {
				lo := max(0, i-80)
				t.Fatalf("artifact round trip drifted at byte %d:\nfirst:  …%s\nsecond: …%s",
					i, a[lo:min(len(a), i+80)], b[lo:min(len(b), i+80)])
			}
		}
		t.Fatalf("artifact round trip drifted in length: %d vs %d bytes", len(a), len(b))
	}
}

func TestRunFileBaseSanitizes(t *testing.T) {
	if got := runFileBase("a/b c", "x:y"); got != "a-b-c__x-y" {
		t.Fatalf("runFileBase = %q", got)
	}
}
