package main

// The "serve" subcommand renders LOADGEN_<n>.json artifacts written by
// cmd/loadgen: one file gives the run summary (throughput, latency
// percentiles, degradation rates, the daemon-side scrape); two files give
// a side-by-side comparison with deltas, for before/after load tests.

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"semloc/internal/harness"
	"semloc/internal/loadreport"
	"semloc/internal/obs"
	"semloc/internal/stats"
)

// runServe is the "inspect serve FILE [FILE]" entry point.
func runServe(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("inspect serve", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	quiet := fs.Bool("q", false, "suppress informational logging")
	minRatio := fs.Float64("min-rate-ratio", 0,
		"with two artifacts, fail unless B's achieved rate >= ratio * A's (regression gate; 0 disables)")
	if err := fs.Parse(args); err != nil {
		return harness.ExitUsage
	}
	logger := obs.NewLogger(os.Stderr, "inspect", *quiet)
	if fs.NArg() < 1 || fs.NArg() > 2 {
		fmt.Fprintln(os.Stderr, "inspect serve: one LOADGEN artifact to render, or two to compare")
		return harness.ExitUsage
	}
	reps := make([]*loadreport.Report, fs.NArg())
	for i, path := range fs.Args() {
		rep, err := loadreport.Load(path)
		if err != nil {
			logger.Error("loading artifact", "path", path, "err", err)
			return harness.ExitRunFailed
		}
		if err := rep.Validate(); err != nil {
			logger.Error("invalid artifact", "path", path, "err", err)
			return harness.ExitRunFailed
		}
		reps[i] = rep
	}
	if len(reps) == 1 {
		if *minRatio > 0 {
			fmt.Fprintln(os.Stderr, "inspect serve: -min-rate-ratio needs two artifacts to compare")
			return harness.ExitUsage
		}
		renderLoadReport(reps[0], fs.Arg(0), stdout)
		return harness.ExitOK
	}
	compareLoadReports(reps[0], reps[1], fs.Arg(0), fs.Arg(1), stdout)
	if *minRatio > 0 {
		a, b := reps[0].AchievedRate, reps[1].AchievedRate
		if b < *minRatio*a {
			fmt.Fprintf(os.Stderr, "inspect serve: RATE GATE FAILED: B %.1f/s < %.2f x A %.1f/s (= %.1f/s)\n",
				b, *minRatio, a, *minRatio*a)
			return harness.ExitRunFailed
		}
		fmt.Fprintf(stdout, "rate gate ok: B %.1f/s >= %.2f x A %.1f/s\n", b, *minRatio, a)
	}
	return harness.ExitOK
}

// fmtNS renders a nanosecond count at a precision matched to its
// magnitude, so microsecond-scale serving latencies stay readable.
func fmtNS(n int64) string {
	d := time.Duration(n)
	switch {
	case d < 10*time.Microsecond:
		return d.Round(10 * time.Nanosecond).String()
	case d < 10*time.Millisecond:
		return d.Round(time.Microsecond).String()
	default:
		return d.Round(100 * time.Microsecond).String()
	}
}

// source names the access stream a run replayed.
func source(r *loadreport.Report) string {
	if r.TraceFile != "" {
		return "trace " + r.TraceFile
	}
	return fmt.Sprintf("workload %s (scale %g, seed %d)", r.Workload, r.Scale, r.Seed)
}

func loop(r *loadreport.Report) string {
	if r.OpenLoop {
		return fmt.Sprintf("open loop @ %g/s", r.TargetRate)
	}
	return "closed loop (saturation)"
}

// batchOf renders a report's request batch size; schema-1 artifacts
// predate the field and implicitly ran 1.
func batchOf(r *loadreport.Report) int {
	if r.Batch < 1 {
		return 1
	}
	return r.Batch
}

func renderLoadReport(r *loadreport.Report, path string, w io.Writer) {
	fmt.Fprintf(w, "loadgen artifact %s (run %d, schema %d, %s/%s %s)\n",
		path, r.Loadgen, r.Schema, r.GOOS, r.GOARCH, r.GoVersion)
	fmt.Fprintf(w, "  %s, %d sessions, batch %d, %s, ran %v\n",
		source(r), r.Sessions, batchOf(r), loop(r), time.Duration(r.DurationNS).Round(time.Millisecond))
	fmt.Fprintf(w, "  decisions %d (%.1f/s), degraded %d (%.2f%%), replayed %d, errors %d\n",
		r.Decisions, r.AchievedRate, r.Degraded, 100*r.DegradedRate, r.Replayed, r.Errors)
	fmt.Fprintf(w, "  busy %d (%.2f%%), retries %d, reconnects %d\n",
		r.Busy, 100*r.BusyRate, r.Retries, r.Reconnects)
	fmt.Fprintf(w, "  client latency: p50 %s  p95 %s  p99 %s  p99.9 %s\n",
		fmtNS(r.Latency.P50NS), fmtNS(r.Latency.P95NS),
		fmtNS(r.Latency.P99NS), fmtNS(r.Latency.P999NS))
	if s := r.Server; s != nil {
		fmt.Fprintf(w, "  server scrape: decisions %d, degraded %d, replayed %d, busy %d\n",
			s.DecisionsTotal, s.DegradedTotal, s.ReplayedTotal, s.BusyTotal)
		mean := int64(0)
		if s.DecisionsTotal > 0 {
			mean = s.FrameLatencySumNS / int64(s.DecisionsTotal)
		}
		fmt.Fprintf(w, "    mean frame latency %s; count-match holds across %d histograms\n",
			fmtNS(mean), len(s.LatencyCounts))
		if b := s.BatchSize; b != nil {
			fmt.Fprintf(w, "    batch size: mean %.1f  p50 %.1f  p95 %.1f across %d frames; coalesced writes %d\n",
				b.Mean, b.P50, b.P95, b.Count, s.CoalescedWritesTotal)
		}
	}
}

// compareLoadReports renders two runs side by side with deltas — the
// before/after view for a load-test regression check.
func compareLoadReports(a, b *loadreport.Report, pathA, pathB string, w io.Writer) {
	fmt.Fprintf(w, "A: %s — %s, %d sessions, batch %d, %s\n", pathA, source(a), a.Sessions, batchOf(a), loop(a))
	fmt.Fprintf(w, "B: %s — %s, %d sessions, batch %d, %s\n", pathB, source(b), b.Sessions, batchOf(b), loop(b))
	if source(a) != source(b) || a.Sessions != b.Sessions || a.OpenLoop != b.OpenLoop {
		fmt.Fprintln(w, "warning: run configurations differ (batch aside); deltas compare unlike runs")
	}
	fmt.Fprintln(w)

	t := stats.NewTable("load-test comparison", "metric", "A", "B", "delta")
	pct := func(a, b float64) string {
		if a == 0 {
			return "n/a"
		}
		return fmt.Sprintf("%+.1f%%", 100*(b-a)/a)
	}
	rate := func(v float64) string { return fmt.Sprintf("%.1f/s", v) }
	t.AddRow("achieved rate", rate(a.AchievedRate), rate(b.AchievedRate),
		pct(a.AchievedRate, b.AchievedRate))
	for _, row := range []struct {
		name string
		a, b int64
	}{
		{"latency p50", a.Latency.P50NS, b.Latency.P50NS},
		{"latency p95", a.Latency.P95NS, b.Latency.P95NS},
		{"latency p99", a.Latency.P99NS, b.Latency.P99NS},
		{"latency p99.9", a.Latency.P999NS, b.Latency.P999NS},
	} {
		t.AddRow(row.name, fmtNS(row.a), fmtNS(row.b), pct(float64(row.a), float64(row.b)))
	}
	count := func(v uint64) string { return fmt.Sprintf("%d", v) }
	for _, row := range []struct {
		name string
		a, b uint64
	}{
		{"decisions", a.Decisions, b.Decisions},
		{"degraded", a.Degraded, b.Degraded},
		{"busy", a.Busy, b.Busy},
		{"errors", a.Errors, b.Errors},
		{"retries", a.Retries, b.Retries},
	} {
		t.AddRow(row.name, count(row.a), count(row.b), pct(float64(row.a), float64(row.b)))
	}
	if a.Server != nil && b.Server != nil {
		meanNS := func(s *loadreport.ServerScrape) int64 {
			if s.DecisionsTotal == 0 {
				return 0
			}
			return s.FrameLatencySumNS / int64(s.DecisionsTotal)
		}
		ma, mb := meanNS(a.Server), meanNS(b.Server)
		t.AddRow("server mean frame", fmtNS(ma), fmtNS(mb), pct(float64(ma), float64(mb)))
	}
	t.Render(w)
}
