package main

import (
	"bufio"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"semloc/internal/harness"
)

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
	// the pre-warm simulation batch — tables only reach stdout after it),
	// not during startup, then keep draining so the child never blocks on a
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
