package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"semloc/internal/exp"
	"semloc/internal/harness"
	"semloc/internal/serve"
	"semloc/internal/trace"
	"semloc/internal/workloads"
)

// simOut runs the prefetchsim CLI in-process and returns (stdout, stderr,
// exit code).
func simOut(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var out, errBuf bytes.Buffer
	code := run(args, &out, &errBuf)
	return out.String(), errBuf.String(), code
}

func TestListWorkloads(t *testing.T) {
	out, _, code := simOut(t, "-list")
	if code != harness.ExitOK {
		t.Fatalf("-list exited %d", code)
	}
	for _, want := range []string{"name", "suite", "list"} {
		if !strings.Contains(out, want) {
			t.Errorf("-list output missing %q:\n%s", want, out)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	cases := [][]string{
		{},                         // no -workload/-trace/-list
		{"-no-such-flag"},          // unknown flag
		{"-workload", "no-such"},   // unknown workload
		{"-workload", "list", "x"}, // stray positional
		{"-workload", "list", "-prefetchers", "no-such", "-scale", "0.05"},
		{"-workload", "list", "-prefetchers", "context-egreedy", "-scale", "0.05"},
		{"-workload", "list", "-prefetchers", "oracle,bogus", "-scale", "0.05"}, // checked before any row runs
	}
	for _, args := range cases {
		if _, _, code := simOut(t, append(args, "-q")...); code != harness.ExitUsage {
			t.Errorf("prefetchsim %v exited %d, want %d", args, code, harness.ExitUsage)
		}
	}
}

// TestMatchesFigureCell pins that prefetchsim builds a cell the way the
// figures do: at -seed N its context row prints the cycles of the engine's
// mcf/context cell at base seed N, because -seed seeds the learner too.
func TestMatchesFigureCell(t *testing.T) {
	for _, seed := range []uint64{1, 2} {
		opts := exp.DefaultOptions()
		opts.Scale, opts.Seed = 0.1, seed
		res, err := exp.NewRunner(opts).RunJobs([]exp.Job{{Workload: "mcf", Prefetcher: "context"}})
		if err == nil {
			err = res[0].Err
		}
		if err != nil {
			t.Fatal(err)
		}
		want := res[0].Result
		out, errOut, code := simOut(t, "-workload", "mcf", "-scale", "0.1", "-seed", fmt.Sprint(seed),
			"-prefetchers", "none,context", "-q")
		if code != harness.ExitOK {
			t.Fatalf("seed %d exited %d\nstderr:\n%s", seed, code, errOut)
		}
		if got := rowCycles(out, "context"); got != fmt.Sprint(want.CPU.Cycles) {
			t.Errorf("seed %d: prefetchsim context cycles %q, engine cell %d\n%s", seed, got, want.CPU.Cycles, out)
		}
	}
}

// TestRowsIndependentOfOrder: each prefetcher's row, speedup included,
// reads the same whatever its place in -prefetchers.
func TestRowsIndependentOfOrder(t *testing.T) {
	rows := func(list string) map[string]string {
		out, errOut, code := simOut(t, "-workload", "list", "-scale", "0.05", "-prefetchers", list, "-q")
		if code != harness.ExitOK {
			t.Fatalf("-prefetchers %s exited %d\nstderr:\n%s", list, code, errOut)
		}
		m := make(map[string]string)
		for _, line := range strings.Split(out, "\n") {
			if f := strings.Fields(line); len(f) == 6 {
				m[f[0]] = line
			}
		}
		return m
	}
	a, b := rows("context,sms,none"), rows("none,context,sms")
	for _, name := range []string{"none", "sms", "context"} {
		if a[name] == "" || a[name] != b[name] {
			t.Errorf("%s row depends on the order:\n%q\n%q", name, a[name], b[name])
		}
	}
}

// TestTraceFileMatchesWorkload: a workload written to a file as
// cmd/tracegen writes it and replayed with -trace prints what -workload
// prints at the same scale and seed.
func TestTraceFileMatchesWorkload(t *testing.T) {
	w, err := workloads.ByName("list")
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "list.trace.gz")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteGzip(f, w.Generate(workloads.GenConfig{Scale: 0.05, Seed: 2})); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	common := []string{"-seed", "2", "-prefetchers", "none,sms,context", "-v", "-q"}
	want, errOut, code := simOut(t, append([]string{"-workload", "list", "-scale", "0.05"}, common...)...)
	if code != harness.ExitOK {
		t.Fatalf("-workload exited %d\nstderr:\n%s", code, errOut)
	}
	got, errOut, code := simOut(t, append([]string{"-trace", path}, common...)...)
	if code != harness.ExitOK {
		t.Fatalf("-trace exited %d\nstderr:\n%s", code, errOut)
	}
	if got != want {
		t.Errorf("-trace prints\n%s\n-workload prints\n%s", got, want)
	}
}

// rowCycles returns the cycles column of prefetchsim's row for prefetcher
// name, or "" when the table has no such row.
func rowCycles(out, name string) string {
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) > 0 && f[0] == name {
			return f[len(f)-1]
		}
	}
	return ""
}

// TestConfigFileReachesContextRow: a -config file's context section
// configures the context row, which equals the engine's Config job for the
// same configuration, while the other rows of the default -prefetchers list
// ignore it and still run (exit 0).
func TestConfigFileReachesContextRow(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cfg.json")
	if err := os.WriteFile(path, []byte(`{"context": {"MaxDegree": 2, "Epsilon": 0.1}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	fc, err := exp.LoadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	opts := exp.DefaultOptions()
	opts.Scale = 0.05
	jr, err := exp.NewRunner(opts).RunJobs([]exp.Job{
		{Workload: "mcf", Prefetcher: "context", Config: fc.Context},
		{Workload: "mcf", Prefetcher: "context"},
	})
	if err != nil || jr[0].Err != nil || jr[1].Err != nil {
		t.Fatal(err, jr[0].Err, jr[1].Err)
	}
	if def := jr[1].Result; jr[0].Result.CPU.Cycles == def.CPU.Cycles {
		t.Fatalf("the override does not change the mcf/context cell (%d cycles)", def.CPU.Cycles)
	}
	out, errOut, code := simOut(t, "-workload", "mcf", "-scale", "0.05", "-config", path, "-q")
	if code != harness.ExitOK {
		t.Fatalf("-config exited %d\nstderr:\n%s", code, errOut)
	}
	if got := rowCycles(out, "context"); got != fmt.Sprint(jr[0].Result.CPU.Cycles) {
		t.Errorf("context row cycles %q, engine Config job %d\n%s", got, jr[0].Result.CPU.Cycles, out)
	}
}

// TestTimeoutExitsRunFailed is the -timeout contract: a run that cannot
// finish inside its wall-clock budget is a run failure (exit 1), not a
// cancellation (exit 3) — scripts distinguish "my deadline fired" from
// "the user pressed ^C".
func TestTimeoutExitsRunFailed(t *testing.T) {
	_, errOut, code := simOut(t, "-workload", "list", "-scale", "0.05",
		"-prefetchers", "context", "-timeout", "1ns", "-q")
	if code != harness.ExitRunFailed {
		t.Fatalf("-timeout 1ns exited %d, want %d\nstderr:\n%s", code, harness.ExitRunFailed, errOut)
	}
	if !strings.Contains(errOut, "timed out") {
		t.Errorf("stderr does not report the timeout:\n%s", errOut)
	}
}

// TestRemoteCrossCheck streams a small workload through an in-process
// prefetchd and requires every daemon decision to match the local learner
// (the table's mismatched column must be zero and the exit code clean).
func TestRemoteCrossCheck(t *testing.T) {
	srv, err := serve.NewServer(serve.Config{Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	out, errOut, code := simOut(t, "-workload", "list", "-scale", "0.05",
		"-remote", srv.Addr().String(), "-session", "cross-check", "-q")
	if code != harness.ExitOK {
		t.Fatalf("-remote exited %d\nstdout:\n%s\nstderr:\n%s", code, out, errOut)
	}
	if !strings.Contains(out, "remote cross-check") || !strings.Contains(out, "matched") {
		t.Errorf("missing cross-check table:\n%s", out)
	}

	// Re-running the same session against the warm daemon must refuse:
	// the local reference learner starts cold and cannot be compared.
	_, errOut, code = simOut(t, "-workload", "list", "-scale", "0.05",
		"-remote", srv.Addr().String(), "-session", "cross-check", "-q")
	if code != harness.ExitRunFailed {
		t.Fatalf("warm-session rerun exited %d, want %d", code, harness.ExitRunFailed)
	}
	if !strings.Contains(errOut, "session already exists") {
		t.Errorf("stderr does not explain the warm-session refusal:\n%s", errOut)
	}
}

// TestRemoteTimeout: the -timeout deadline also bounds -remote streaming.
func TestRemoteTimeout(t *testing.T) {
	srv, err := serve.NewServer(serve.Config{Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	_, errOut, code := simOut(t, "-workload", "list", "-scale", "0.05",
		"-remote", srv.Addr().String(), "-session", "remote-timeout",
		"-timeout", "1ns", "-q")
	if code != harness.ExitRunFailed {
		t.Fatalf("-remote with -timeout 1ns exited %d, want %d\nstderr:\n%s",
			code, harness.ExitRunFailed, errOut)
	}
}
