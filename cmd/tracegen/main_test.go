package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"semloc/internal/trace"
)

// TestTracegenRoundTrip generates a tiny trace, re-reads the file, and
// checks it survives the binary format intact — for both the plain and the
// gzip encodings.
func TestTracegenRoundTrip(t *testing.T) {
	for _, gz := range []bool{false, true} {
		dir := t.TempDir()
		path := filepath.Join(dir, "list.trace")
		args := []string{"-workload", "list", "-scale", "0.02", "-o", path}
		if gz {
			args = append(args, "-gzip")
		}
		var out, errBuf bytes.Buffer
		if code := run(args, &out, &errBuf); code != 0 {
			t.Fatalf("tracegen (gzip=%v) exited %d: %s", gz, code, errBuf.String())
		}
		if !strings.Contains(out.String(), "wrote "+path) {
			t.Errorf("summary line missing path: %q", out.String())
		}
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		// trace.Read auto-detects the gzip container.
		tr, err := trace.Read(f)
		if err != nil {
			t.Fatalf("re-reading written trace (gzip=%v): %v", gz, err)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("round-tripped trace invalid: %v", err)
		}
		if tr.Len() == 0 || tr.Name != "list" {
			t.Fatalf("round-tripped trace lost content: name=%q records=%d", tr.Name, tr.Len())
		}
	}
}

func TestTracegenUsageErrors(t *testing.T) {
	cases := [][]string{
		{},                       // missing -workload
		{"-workload", "no-such"}, // unknown workload
		{"-no-such-flag"},        // bad flag
	}
	for _, args := range cases {
		var out, errBuf bytes.Buffer
		if code := run(args, &out, &errBuf); code != 2 {
			t.Errorf("tracegen %v exited %d, want 2", args, code)
		}
	}
}

func TestTracegenUnwritablePath(t *testing.T) {
	var out, errBuf bytes.Buffer
	code := run([]string{"-workload", "list", "-scale", "0.02",
		"-o", filepath.Join(t.TempDir(), "no-such-dir", "x.trace")}, &out, &errBuf)
	if code != 1 {
		t.Errorf("unwritable output exited %d, want 1", code)
	}
}
