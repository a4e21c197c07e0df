package main

import (
	"bufio"
	"bytes"
	"flag"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"semloc/internal/harness"
)

var update = flag.Bool("update", false, "rewrite testdata/stdout_scale0.05.txt from this run")

// stdoutGolden holds the committed stdout of a full run at scale 0.05 and
// seed 1.
const stdoutGolden = "testdata/stdout_scale0.05.txt"

// TestStdoutGolden pins what the command prints: every experiment at scale
// 0.05 and seed 1 must reproduce the committed stdout byte for byte. The
// simulated-results golden (internal/exp TestGoldenResults) pins the cells'
// counters; this pins the averages, rankings and sentences the renderers
// compute from them. A change meant to move the output reruns it with
// -update and commits the diff. The race detector makes the run over ten
// times slower, so race builds skip it; `make golden` runs it without.
func TestStdoutGolden(t *testing.T) {
	if raceEnabled {
		t.Skip("the stdout golden runs without the race detector (make golden)")
	}
	var out, errOut bytes.Buffer
	if code := run([]string{"-q", "-scale", "0.05", "-seed", "1"}, &out, &errOut); code != harness.ExitOK {
		t.Fatalf("experiments exited %d\nstderr:\n%s", code, errOut.String())
	}
	if *update {
		if err := os.WriteFile(stdoutGolden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(stdoutGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("stdout differs from %s at line %d:\n  got:  %q\n  want: %q", stdoutGolden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("stdout has %d lines, %s has %d", len(gl), stdoutGolden, len(wl))
	}
}

// TestInterruptCancelsRun builds the experiments binary, starts a run long
// enough to interrupt, sends SIGINT once output starts flowing, and checks
// the documented "cancelled" exit code.
func TestInterruptCancelsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the binary; skipped in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "experiments")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building experiments: %v\n%s", err, out)
	}

	cmd := exec.Command(bin, "-run", "fig12", "-scale", "2")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stdout = io.Discard
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting experiments: %v", err)
	}
	// One Wait per child; the cleanup kills and reaps it if the test ends
	// with it still running, so a failing assertion never leaves it behind.
	done := make(chan struct{})
	go func() {
		cmd.Wait()
		close(done)
	}()
	t.Cleanup(func() {
		select {
		case <-done:
		default:
			cmd.Process.Kill()
			<-done
		}
	})

	// Wait for the "starting" progress log so we interrupt mid-run (during
	// the one simulation batch — tables only reach stdout after it), not
	// during startup, then keep draining so the child never blocks on a
	// full pipe.
	br := bufio.NewReader(stderr)
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatalf("reading first progress line: %v", err)
	}
	go io.Copy(io.Discard, br)

	time.Sleep(300 * time.Millisecond)
	if err := cmd.Process.Signal(os.Interrupt); err != nil {
		t.Fatalf("sending SIGINT: %v", err)
	}

	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("experiments did not exit within 30s of SIGINT")
	}
	if code := cmd.ProcessState.ExitCode(); code != harness.ExitCancelled {
		t.Fatalf("exit code = %d after SIGINT, want %d", code, harness.ExitCancelled)
	}
}
