package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"semloc/internal/exp"
	"semloc/internal/harness"
	"semloc/internal/obs"
	"semloc/internal/serve"
	"semloc/internal/serve/client"
)

// learnerArtifact runs one cell with the given telemetry and returns its
// artifact path and the learner snapshot the run reported.
func learnerArtifact(t *testing.T, tel obs.Config) (string, *obs.LearnerHealth) {
	t.Helper()
	dir := t.TempDir()
	opts := exp.DefaultOptions()
	opts.Scale = 0.05
	opts.OutDir = dir
	opts.Telemetry = tel
	res, err := exp.NewRunner(opts).RunJobs([]exp.Job{{Workload: "list", Prefetcher: "context"}})
	if err == nil {
		err = res[0].Err
	}
	if err != nil {
		t.Fatal(err)
	}
	return exp.ArtifactPath(dir, "list", "context"), res[0].Learner
}

// TestLearnerSmoke is the introspection layer's end-to-end smoke, also run
// race-enabled by `make learner-smoke`: an instrumented sweep renders its
// health report, curve, and anomaly gate through `inspect learner`, and a
// live prefetchd session round-trips stats (with learner health) and an
// explain report that the same subcommand pretty-prints.
func TestLearnerSmoke(t *testing.T) {
	art, _ := learnerArtifact(t, obs.Config{Interval: 1024})

	// Health report over the artifact.
	var out bytes.Buffer
	if code := run([]string{"learner", "-q", "-run", art}, &out); code != harness.ExitOK {
		t.Fatalf("inspect learner exited %d:\n%s", code, out.String())
	}
	got := out.String()
	for _, want := range []string{
		"learner list/context", "outcomes: accurate", "policy: explores",
		"rewards:", "CST:", "CST churn:", "hottest deltas:", "anomaly check: ok",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("health report missing %q:\n%s", want, got)
		}
	}

	// Anomaly gate: a healthy run passes.
	out.Reset()
	if code := run([]string{"learner", "-q", "-run", art, "-check"}, &out); code != harness.ExitOK {
		t.Fatalf("inspect learner -check exited %d:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "learner healthy") {
		t.Errorf("-check output: %s", out.String())
	}

	// Curve: header plus one row per interval sample, in both formats.
	out.Reset()
	if code := run([]string{"learner", "-q", "-run", art, "-curve"}, &out); code != harness.ExitOK {
		t.Fatalf("inspect learner -curve exited %d:\n%s", code, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) < 3 {
		t.Fatalf("curve has %d lines, want header plus samples:\n%s", len(lines), out.String())
	}
	for _, col := range []string{"accurate", "explores", "pos_rewards", "cst_replacements", "epsilon"} {
		if !strings.Contains(lines[0], col) {
			t.Errorf("curve header missing %q: %s", col, lines[0])
		}
	}
	out.Reset()
	if code := run([]string{"learner", "-q", "-run", art, "-curve", "-format", "json"}, &out); code != harness.ExitOK {
		t.Fatalf("inspect learner -curve -format json exited %d", code)
	}
	var samples []map[string]any
	if err := json.Unmarshal(out.Bytes(), &samples); err != nil {
		t.Fatalf("curve JSON: %v", err)
	}

	// An artifact written without interval sampling reports the learner as
	// the run ended: its policy state and the CST's capacity.
	plain, h := learnerArtifact(t, obs.Config{})
	if h == nil || h.Accuracy == 0 || h.CSTCapacity == 0 {
		t.Fatalf("the run reported no trained learner: %+v", h)
	}
	out.Reset()
	if code := run([]string{"learner", "-q", "-run", plain}, &out); code != harness.ExitOK {
		t.Fatalf("inspect learner on an unsampled artifact exited %d:\n%s", code, out.String())
	}
	for _, want := range []string{
		fmt.Sprintf("epsilon %.3f, accuracy %.3f", h.Epsilon, h.Accuracy),
		fmt.Sprintf("/%d entries", h.CSTCapacity),
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("unsampled health report missing %q:\n%s", want, out.String())
		}
	}

	// Live half: a prefetchd session's stats carry learner health, and its
	// explain report renders through the same subcommand.
	s, err := serve.NewServer(serve.Config{Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := client.Dial(client.Config{
		Addr: client.FixedAddr(s.Addr().String()), Session: "learner-smoke",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for i := uint64(1); i <= 2000; i++ {
		fr := &serve.Frame{Type: serve.FrameAccess, Seq: i, PC: 0x400000, Addr: 0x100000 + (i%512)*64}
		if _, err := c.Decide(fr); err != nil {
			t.Fatalf("seq %d: %v", i, err)
		}
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Learner == nil || st.Learner.Accesses == 0 {
		t.Fatalf("session stats carry no learner health: %+v", st)
	}
	rep, err := c.Explain(4)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Session != "learner-smoke" || rep.Health.Accesses != st.Learner.Accesses {
		t.Fatalf("explain report inconsistent with stats: %+v vs %+v", rep, st.Learner)
	}
	if len(rep.Contexts) == 0 || len(rep.Contexts) > 4 {
		t.Fatalf("explain returned %d contexts, want 1..4", len(rep.Contexts))
	}
	for _, ctx := range rep.Contexts {
		if ctx.Trials == 0 || len(ctx.Links) == 0 {
			t.Fatalf("hot context with no trials or links: %+v", ctx)
		}
	}

	dump := filepath.Join(t.TempDir(), "explain.json")
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dump, data, 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if code := run([]string{"learner", "-q", "-explain", dump, "-check"}, &out); code != harness.ExitOK {
		t.Fatalf("inspect learner -explain exited %d:\n%s", code, out.String())
	}
	got = out.String()
	for _, want := range []string{
		"session learner-smoke", "contexts by trials", "ctx 0x", "score",
		"anomaly check: ok",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("explain render missing %q:\n%s", want, got)
		}
	}
}

func TestLearnerUsageErrors(t *testing.T) {
	var out bytes.Buffer
	if code := run([]string{"learner"}, &out); code != harness.ExitUsage {
		t.Errorf("no source exited %d, want usage", code)
	}
	if code := run([]string{"learner", "-run", "a", "-explain", "b"}, &out); code != harness.ExitUsage {
		t.Errorf("both sources exited %d, want usage", code)
	}
	if code := run([]string{"learner", "-run", "a", "-format", "xml"}, &out); code != harness.ExitUsage {
		t.Errorf("bad format exited %d, want usage", code)
	}
	if code := run([]string{"learner", "-q", "-run", filepath.Join(t.TempDir(), "nope.json")}, &out); code != harness.ExitRunFailed {
		t.Errorf("missing artifact exited %d, want run-failed", code)
	}
}

// TestLearnerCheckCatchesStalledLearning feeds the gate a doctored
// artifact whose learner issued at volume but never landed a prefetch.
func TestLearnerCheckCatchesStalledLearning(t *testing.T) {
	art, _ := learnerArtifact(t, obs.Config{Interval: 1024})
	a, err := exp.LoadArtifact(art)
	if err != nil {
		t.Fatal(err)
	}
	h := a.Learner
	h.Accesses = 100000
	h.RealPrefetches = 5000
	h.OutcomeAccurate, h.OutcomeLate, h.OutcomeEvicted, h.OutcomeUseless = 0, 4000, 500, 500
	h.OutcomeCarried = 0
	h.PositiveLinks = 0
	doctored := filepath.Join(t.TempDir(), "stalled.json")
	data, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(doctored, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if code := run([]string{"learner", "-q", "-run", doctored, "-check"}, &out); code != harness.ExitRunFailed {
		t.Fatalf("stalled-learning artifact passed the gate (exit %d):\n%s", code, out.String())
	}
}
