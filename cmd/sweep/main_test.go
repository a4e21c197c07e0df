package main

import (
	"bytes"
	"strings"
	"testing"

	"semloc/internal/harness"
)

// sweepOut runs the sweep CLI and returns (stdout, exit code).
func sweepOut(t *testing.T, args ...string) (string, int) {
	t.Helper()
	var out, errBuf bytes.Buffer
	code := run(args, &out, &errBuf)
	return out.String(), code
}

// TestSweepParallelGolden is the CLI-level determinism check: the rendered
// sweep table must be byte-identical at -parallel 1 and -parallel 8.
func TestSweepParallelGolden(t *testing.T) {
	args := []string{"-workload", "list", "-param", "epsilon",
		"-values", "0,0.1,0.2", "-scale", "0.05", "-q"}
	seq, code := sweepOut(t, append([]string{"-parallel", "1"}, args...)...)
	if code != harness.ExitOK {
		t.Fatalf("sequential sweep exited %d:\n%s", code, seq)
	}
	par, code := sweepOut(t, append([]string{"-parallel", "8"}, args...)...)
	if code != harness.ExitOK {
		t.Fatalf("parallel sweep exited %d:\n%s", code, par)
	}
	if seq != par {
		t.Errorf("sweep table differs between -parallel 1 and 8:\n--- seq ---\n%s\n--- par ---\n%s", seq, par)
	}
	for _, want := range []string{"epsilon", "speedup", "0.1"} {
		if !strings.Contains(seq, want) {
			t.Errorf("sweep table missing %q:\n%s", want, seq)
		}
	}
}

// TestSweepRepeatedValueRowsIdentical: every sweep point explores with the
// same learner seed, so a value listed three times prints three identical
// rows.
func TestSweepRepeatedValueRowsIdentical(t *testing.T) {
	out, code := sweepOut(t, "-workload", "list", "-param", "cstentries",
		"-values", "2048,2048,2048", "-scale", "0.05", "-q")
	if code != harness.ExitOK {
		t.Fatalf("sweep exited %d:\n%s", code, out)
	}
	var rows []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "2048 ") {
			rows = append(rows, line)
		}
	}
	if len(rows) != 3 || rows[1] != rows[0] || rows[2] != rows[0] {
		t.Errorf("want three identical 2048 rows:\n%s", out)
	}
}

func TestSweepUsageErrors(t *testing.T) {
	cases := [][]string{
		{"-param", "bogus", "-values", "1"},
		{"-param", "epsilon"},                   // missing -values
		{"-param", "epsilon", "-values", "zz"},  // unparsable value
		{"-param", "epsilon", "-values", "NaN"}, // refused by core.Config.Validate
		{"-param", "epsilon", "-values", "0.1", "-workload", "no-such"},
		{"-no-such-flag"},
	}
	for _, args := range cases {
		if _, code := sweepOut(t, append(args, "-q")...); code != harness.ExitUsage {
			t.Errorf("sweep %v exited %d, want %d", args, code, harness.ExitUsage)
		}
	}
}

// TestSweepTimeoutExitsRunFailed: exceeding -timeout is a run failure
// (exit 1), not a cancellation (exit 3).
func TestSweepTimeoutExitsRunFailed(t *testing.T) {
	out, code := sweepOut(t, "-workload", "list", "-param", "epsilon",
		"-values", "0,0.1", "-scale", "0.05", "-timeout", "1ns", "-q")
	if code != harness.ExitRunFailed {
		t.Fatalf("-timeout 1ns exited %d, want %d\n%s", code, harness.ExitRunFailed, out)
	}
}

func TestSweepListParams(t *testing.T) {
	out, code := sweepOut(t, "-params")
	if code != harness.ExitOK {
		t.Fatalf("-params exited %d", code)
	}
	for _, p := range []string{"epsilon", "maxdegree", "policy"} {
		if !strings.Contains(out, p) {
			t.Errorf("-params output missing %q", p)
		}
	}
}
