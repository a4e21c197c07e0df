package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"semloc/internal/trace"
	"semloc/internal/workloads"
)

// writeTestTrace generates a tiny workload trace file for the CLI to read.
func writeTestTrace(t *testing.T) string {
	t.Helper()
	w, err := workloads.ByName("list")
	if err != nil {
		t.Fatal(err)
	}
	tr := w.Generate(workloads.GenConfig{Scale: 0.02, Seed: 1})
	path := filepath.Join(t.TempDir(), "list.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Write(f, tr); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestTraceinfoSummary checks the summary table over a generated trace,
// including the -reuse and -dump extensions.
func TestTraceinfoSummary(t *testing.T) {
	path := writeTestTrace(t)
	var out, errBuf bytes.Buffer
	if code := run([]string{"-reuse", "-dump", "5", path}, &out, &errBuf); code != 0 {
		t.Fatalf("traceinfo exited %d: %s", code, errBuf.String())
	}
	s := out.String()
	for _, want := range []string{
		"trace list", "records", "instructions", "loads", "stores",
		"dependent loads", "dependency reach", "warmup marker at",
		"record storage", "records kept whole", "reuse profile", "working set",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
	// -dump 5 prints five indexed record lines.
	if !strings.Contains(s, "       0  ") {
		t.Errorf("dump window missing record 0:\n%s", s)
	}
}

func TestTraceinfoExitCodes(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run([]string{}, &out, &errBuf); code != 2 {
		t.Errorf("no args exited %d, want 2", code)
	}
	if code := run([]string{"a.trace", "b.trace"}, &out, &errBuf); code != 2 {
		t.Errorf("two args exited %d, want 2", code)
	}
	if code := run([]string{filepath.Join(t.TempDir(), "missing.trace")}, &out, &errBuf); code != 1 {
		t.Errorf("missing file exited %d, want 1", code)
	}
	// A present but malformed file must fail cleanly, not panic.
	bad := filepath.Join(t.TempDir(), "bad.trace")
	if err := os.WriteFile(bad, []byte("not a trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{bad}, &out, &errBuf); code != 1 {
		t.Errorf("malformed file exited %d, want 1", code)
	}
}
