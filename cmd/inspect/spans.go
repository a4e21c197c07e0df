package main

// The "spans" subcommand renders a span file recorded by a command's -spans
// flag (Chrome trace-event JSON, the same file Perfetto loads) as text: a
// wall-clock and worker-utilization summary, the aggregate phase breakdown
// (queue-wait vs simulation time), and the slowest cells with their
// per-phase timings.

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"semloc/internal/harness"
	"semloc/internal/obs"
	"semloc/internal/stats"
)

// runSpans is the "inspect spans FILE" entry point.
func runSpans(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("inspect spans", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	var (
		top   = fs.Int("top", 10, "slowest cells to list")
		quiet = fs.Bool("q", false, "suppress informational logging")
	)
	if err := fs.Parse(args); err != nil {
		return harness.ExitUsage
	}
	logger := obs.NewLogger(os.Stderr, "inspect", *quiet)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "inspect spans: exactly one span file required")
		return harness.ExitUsage
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		logger.Error("opening span file", "err", err)
		return harness.ExitRunFailed
	}
	defer f.Close()
	spans, err := obs.ReadChromeTrace(f)
	if err != nil {
		logger.Error("parsing span file", "path", fs.Arg(0), "err", err)
		return harness.ExitRunFailed
	}
	renderSpans(spans, fs.Arg(0), *top, stdout)
	return harness.ExitOK
}

// phaseDur sums a span's phases with the given name.
func phaseDur(s *obs.Span, name string) time.Duration {
	var d time.Duration
	for _, p := range s.Phases {
		if p.Name == name {
			d += p.Dur
		}
	}
	return d
}

func renderSpans(spans []obs.Span, path string, top int, w io.Writer) {
	var runs, serves []obs.Span
	var traceGen, wall, busy time.Duration
	traces, failed := 0, 0
	for _, s := range spans {
		if end := s.Start + s.Dur; end > wall {
			wall = end
		}
		busy += s.Dur
		switch s.Cat {
		case obs.CatTrace:
			traces++
			traceGen += s.Dur
		case obs.CatServe:
			serves = append(serves, s)
		default:
			runs = append(runs, s)
			if s.Err {
				failed++
			}
		}
	}
	// A prefetchd span file holds per-request serving spans, not
	// simulation cells — render the serving-path view instead.
	if len(serves) > 0 && len(runs) == 0 {
		renderServeSpans(serves, path, wall, top, w)
		return
	}
	lanes := obs.Lanes(spans)
	workers := 0
	for _, l := range lanes {
		if l+1 > workers {
			workers = l + 1
		}
	}
	util := 0.0
	if workers > 0 && wall > 0 {
		util = busy.Seconds() / (wall.Seconds() * float64(workers))
	}
	fmt.Fprintf(w, "span file %s: %d run spans (%d failed), %d trace generations\n",
		path, len(runs), failed, traces)
	fmt.Fprintf(w, "  wall %v, busy %v across %d worker lanes (utilization %.0f%%)\n",
		wall.Round(time.Millisecond), busy.Round(time.Millisecond), workers, util*100)

	// Aggregate phase breakdown: where did the busy time go?
	var decode, queue, warmup, measured time.Duration
	for i := range runs {
		decode += phaseDur(&runs[i], obs.PhaseDecode)
		queue += phaseDur(&runs[i], obs.PhaseQueueWait)
		warmup += phaseDur(&runs[i], obs.PhaseWarmup)
		measured += phaseDur(&runs[i], obs.PhaseMeasured)
	}
	pct := func(d time.Duration) string {
		if busy == 0 {
			return "0%"
		}
		return fmt.Sprintf("%.0f%%", 100*d.Seconds()/busy.Seconds())
	}
	bt := stats.NewTable("phase breakdown (totals across all spans)",
		"phase", "total", "of busy")
	bt.AddRow("trace-generate", traceGen.Round(time.Millisecond).String(), pct(traceGen))
	bt.AddRow("decode-wait", decode.Round(time.Millisecond).String(), pct(decode))
	bt.AddRow("queue-wait", queue.Round(time.Millisecond).String(), pct(queue))
	bt.AddRow("warmup", warmup.Round(time.Millisecond).String(), pct(warmup))
	bt.AddRow("measured", measured.Round(time.Millisecond).String(), pct(measured))
	fmt.Fprintln(w)
	bt.Render(w)

	sort.Slice(runs, func(i, j int) bool { return runs[i].Dur > runs[j].Dur })
	if top > len(runs) {
		top = len(runs)
	}
	st := stats.NewTable(fmt.Sprintf("slowest %d cells", top),
		"cell", "total", "decode", "queue", "warmup", "measured", "err")
	ms := func(d time.Duration) string { return d.Round(time.Millisecond).String() }
	for i := 0; i < top; i++ {
		s := &runs[i]
		st.AddRow(s.Cell(), ms(s.Dur), ms(phaseDur(s, obs.PhaseDecode)),
			ms(phaseDur(s, obs.PhaseQueueWait)), ms(phaseDur(s, obs.PhaseWarmup)),
			ms(phaseDur(s, obs.PhaseMeasured)), s.Err)
	}
	fmt.Fprintln(w)
	st.Render(w)
}

// renderServeSpans is the serving-path view of a span file: sampled
// per-request spans from prefetchd, with the decode / queue-wait /
// decide / write stage breakdown instead of simulation phases.
func renderServeSpans(serves []obs.Span, path string, wall time.Duration, top int, w io.Writer) {
	fmt.Fprintf(w, "span file %s: %d sampled request spans across %v\n",
		path, len(serves), wall.Round(time.Millisecond))

	var decode, queue, decide, write, total time.Duration
	sessions := map[string]int{}
	for i := range serves {
		s := &serves[i]
		total += s.Dur
		decode += phaseDur(s, obs.PhaseDecode)
		queue += phaseDur(s, obs.PhaseQueueWait)
		decide += phaseDur(s, obs.PhaseDecide)
		write += phaseDur(s, obs.PhaseWrite)
		sessions[s.Workload]++
	}
	fmt.Fprintf(w, "  %d session(s), mean sampled request %v\n",
		len(sessions), (total / time.Duration(len(serves))).Round(time.Microsecond))
	pct := func(d time.Duration) string {
		if total == 0 {
			return "0%"
		}
		return fmt.Sprintf("%.0f%%", 100*d.Seconds()/total.Seconds())
	}
	us := func(d time.Duration) string { return d.Round(time.Microsecond).String() }
	bt := stats.NewTable("stage breakdown (totals across sampled requests)",
		"stage", "total", "of request time")
	bt.AddRow("decode", us(decode), pct(decode))
	bt.AddRow("queue-wait", us(queue), pct(queue))
	bt.AddRow("decide", us(decide), pct(decide))
	bt.AddRow("write", us(write), pct(write))
	fmt.Fprintln(w)
	bt.Render(w)

	sort.Slice(serves, func(i, j int) bool { return serves[i].Dur > serves[j].Dur })
	if top > len(serves) {
		top = len(serves)
	}
	st := stats.NewTable(fmt.Sprintf("slowest %d sampled requests", top),
		"session", "seq", "total", "decode", "queue", "decide", "write")
	for i := 0; i < top; i++ {
		s := &serves[i]
		st.AddRow(s.Workload, s.Point, us(s.Dur), us(phaseDur(s, obs.PhaseDecode)),
			us(phaseDur(s, obs.PhaseQueueWait)), us(phaseDur(s, obs.PhaseDecide)),
			us(phaseDur(s, obs.PhaseWrite)))
	}
	fmt.Fprintln(w)
	st.Render(w)
}
