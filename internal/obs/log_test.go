package obs

import (
	"bytes"
	"log/slog"
	"strings"
	"sync"
	"testing"
)

func TestNewRunIDUnique(t *testing.T) {
	const goroutines, per = 8, 2000
	ids := make([][]string, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			ids[g] = make([]string, per)
			for i := 0; i < per; i++ {
				ids[g][i] = NewRunID()
			}
		}()
	}
	wg.Wait()
	seen := make(map[string]bool, goroutines*per)
	for _, batch := range ids {
		for _, id := range batch {
			if len(id) != 16 {
				t.Fatalf("run ID %q is not 16 hex chars (64 bits)", id)
			}
			if seen[id] {
				t.Fatalf("run ID %q minted twice", id)
			}
			seen[id] = true
		}
	}
}

func TestLogLevel(t *testing.T) {
	cases := []struct {
		quiet bool
		want  slog.Level
	}{
		{false, slog.LevelInfo},
		{true, slog.LevelWarn},
	}
	for _, c := range cases {
		if got := LogLevel(c.quiet); got != c.want {
			t.Errorf("LogLevel(%v) = %v, want %v", c.quiet, got, c.want)
		}
	}
}

// restoreDefault snapshots the process-global slog default around a test
// (NewLogger installs itself as the default).
func restoreDefault(t *testing.T) {
	t.Helper()
	old := slog.Default()
	t.Cleanup(func() { slog.SetDefault(old) })
}

func TestNewLoggerRouting(t *testing.T) {
	restoreDefault(t)
	cases := []struct {
		name     string
		quiet    bool
		wantInfo bool
	}{
		{"default", false, true},
		{"quiet", true, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var buf bytes.Buffer
			lg := NewLogger(&buf, "testcmd", c.quiet)
			lg.Debug("debug-line")
			lg.Info("info-line")
			lg.Warn("warn-line")
			out := buf.String()
			if got := strings.Contains(out, "info-line"); got != c.wantInfo {
				t.Errorf("info routed = %v, want %v:\n%s", got, c.wantInfo, out)
			}
			if strings.Contains(out, "debug-line") {
				t.Errorf("debug lines must never pass:\n%s", out)
			}
			if !strings.Contains(out, "warn-line") {
				t.Errorf("warnings must always pass:\n%s", out)
			}
		})
	}
}

func TestNewLoggerAttrsAndDefaultInstall(t *testing.T) {
	restoreDefault(t)
	var buf bytes.Buffer
	NewLogger(&buf, "mycmd", false)
	// NewLogger must install itself as the slog default so library-side
	// slog calls join the command's stream, tagged with cmd and run_id.
	slog.Info("via-default")
	out := buf.String()
	if !strings.Contains(out, "via-default") {
		t.Fatalf("slog default not installed:\n%s", out)
	}
	if !strings.Contains(out, "cmd=mycmd") || !strings.Contains(out, "run_id=") {
		t.Errorf("log lines missing cmd/run_id attributes:\n%s", out)
	}
}

func TestNewLoggerNilWriterDefaultsToStderr(t *testing.T) {
	restoreDefault(t)
	// Must not panic; stderr content is not asserted.
	lg := NewLogger(nil, "nilw", true)
	if lg == nil {
		t.Fatal("NewLogger returned nil")
	}
}
