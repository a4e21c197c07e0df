package main

import (
	"bytes"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"semloc/internal/loadreport"
	"semloc/internal/obs"
	"semloc/internal/obs/endpoint"
	"semloc/internal/serve"
)

// startInstrumentedDaemon runs an in-process prefetchd-equivalent: a
// serve.Server with the stage-latency tracer on, plus an obs endpoint
// exporting its registry — what `prefetchd -obs-listen :0` serves.
func startInstrumentedDaemon(t *testing.T) (*serve.Server, *endpoint.Server) {
	t.Helper()
	reg := obs.NewRegistry()
	srv, err := serve.NewServer(serve.Config{
		Listen: "127.0.0.1:0",
		Reg:    reg,
		Trace:  &serve.TraceConfig{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	obsSrv, err := endpoint.Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { obsSrv.Close() })
	return srv, obsSrv
}

// TestLoadgenSmoke is the make-check gate: a short closed-loop run
// against an instrumented in-process daemon must produce a validating
// artifact whose client and server views agree, and leak nothing — once
// frame-per-decision (batch 1) and once down the batched pipeline.
func TestLoadgenSmoke(t *testing.T) {
	for _, batch := range []int{1, 16} {
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			testLoadgenSmoke(t, batch)
		})
	}
}

func testLoadgenSmoke(t *testing.T, batch int) {
	srv, obsSrv := startInstrumentedDaemon(t)
	baseGoroutines := runtime.NumGoroutine()
	out := filepath.Join(t.TempDir(), "LOADGEN_smoke.json")

	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-addr", srv.Addr().String(),
		"-metrics", obsSrv.Addr(),
		"-sessions", "3",
		"-duration", "2s",
		"-batch", fmt.Sprint(batch),
		"-workload", "list", "-scale", "0.05",
		"-progress", "500ms",
		"-out", out,
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("loadgen exited %d\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stdout.String(), "loadgen: wrote") {
		t.Fatalf("no completion line on stdout: %q", stdout.String())
	}

	rep, err := loadreport.Load(out)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Validate(); err != nil {
		t.Fatal(err)
	}
	if rep.Sessions != 3 || rep.OpenLoop || rep.Workload != "list" || rep.Batch != batch {
		t.Fatalf("artifact config drifted: %+v", rep)
	}
	if rep.Errors != 0 {
		t.Fatalf("%d request errors against a healthy local daemon", rep.Errors)
	}
	if rep.Latency.P50NS <= 0 || rep.Latency.P99NS < rep.Latency.P50NS {
		t.Fatalf("implausible latency: %+v", rep.Latency)
	}

	// The server scrape must be present, must satisfy the count-match
	// invariant (Validate checked it), and must agree with the client's
	// count of fresh decisions.
	if rep.Server == nil {
		t.Fatal("artifact missing the server scrape despite -metrics")
	}
	fresh := rep.Decisions - rep.Degraded - rep.Replayed
	if rep.Server.DecisionsTotal != fresh {
		t.Fatalf("server decided %d, clients observed %d fresh decisions",
			rep.Server.DecisionsTotal, fresh)
	}
	if len(rep.Server.LatencyCounts) != 5 {
		t.Fatalf("scrape holds %d latency histograms, want 5", len(rep.Server.LatencyCounts))
	}
	if batch > 1 {
		// Batched runs must scrape the batch-size histogram, and its sum
		// must re-add to the decision count (Validate enforced this; the
		// mean confirms batches actually formed).
		bs := rep.Server.BatchSize
		if bs == nil {
			t.Fatal("batched artifact missing the batch_size scrape")
		}
		if bs.Mean <= 1 {
			t.Fatalf("closed-loop batch 16 run averaged %.2f accesses per frame — batching never engaged", bs.Mean)
		}
	}

	// Progress lines made it to stderr.
	if !strings.Contains(stderr.String(), "progress") {
		t.Fatalf("no progress lines on stderr:\n%s", stderr.String())
	}

	// Leak check: every loadgen-side goroutine (session drivers, progress
	// ticker) is gone. The daemon keeps one detached worker per session
	// until the TTL reaper fires — that residue is by design, so the bound
	// allows it plus a little scheduler slack.
	allowed := baseGoroutines + rep.Sessions + 2
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > allowed {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d > %d (baseline %d + %d detached session workers + slack)",
				runtime.NumGoroutine(), allowed, baseGoroutines, rep.Sessions)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestLoadgenOpenLoopRate: a modest fixed-rate open-loop run must hit its
// schedule (achieved ≈ target on an idle local daemon) and mark the
// artifact open-loop.
func TestLoadgenOpenLoopRate(t *testing.T) {
	srv, _ := startInstrumentedDaemon(t)
	out := filepath.Join(t.TempDir(), "LOADGEN_rate.json")
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-addr", srv.Addr().String(),
		"-sessions", "2",
		"-rate", "400",
		"-duration", "2s",
		"-workload", "array", "-scale", "0.05",
		"-progress", "0",
		"-q",
		"-out", out,
	}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("loadgen exited %d\nstderr: %s", code, stderr.String())
	}
	rep, err := loadreport.Load(out)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Validate(); err != nil {
		t.Fatal(err)
	}
	if !rep.OpenLoop || rep.TargetRate != 400 {
		t.Fatalf("artifact not open-loop at 400/s: %+v", rep)
	}
	// An idle local daemon keeps the schedule comfortably; allow wide
	// tolerance for a loaded CI box.
	if rep.AchievedRate < 200 || rep.AchievedRate > 500 {
		t.Fatalf("achieved %.0f/s against a 400/s schedule", rep.AchievedRate)
	}
}

// TestLoadgenUsageErrors pins the usage exit code.
func TestLoadgenUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{},                                 // -addr missing
		{"-addr", "x", "stray"},            // positional
		{"-addr", "x", "-sessions", "0"},   // bad sessions
		{"-addr", "x", "-rate", "-1"},      // negative rate
		{"-addr", "x", "-duration", "-2s"}, // bad duration
		{"-addr", "x", "-batch", "0"},      // batch below 1
		{"-addr", "x", "-batch", "65"},     // batch above the protocol cap
		{"-bogus"},                         // unknown flag
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Fatalf("args %v: want exit 2, got %d", args, code)
		}
	}
}
