package exp

import (
	"reflect"
	"testing"

	"semloc/internal/obs"
)

// obsRunner builds a tiny-scale runner with live metrics and span tracing
// attached.
func obsRunner(par int, reg *obs.Registry, rec *obs.SpanRecorder) *Runner {
	opts := DefaultOptions()
	opts.Scale = 0.02
	opts.Parallelism = par
	opts.Metrics = reg
	opts.Spans = rec
	return NewRunner(opts)
}

// engineJobs holds 8 jobs of which one repeats a named cell, so 7 distinct
// cells execute; job 4 fails at prefetcher construction.
const (
	engineExecuted     = 7
	engineFailed       = 1
	engineTraceDecodes = 2 // unique workloads: array, list
)

func TestRunJobsMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	r := obsRunner(4, reg, nil)
	if _, err := r.RunJobs(engineJobs()); err != nil {
		t.Fatal(err)
	}
	// The cell counters count distinct cells: the repeated one once.
	if got := reg.Counter(obs.MetricCellsTotal, "").Value(); got != engineExecuted {
		t.Errorf("cells_total = %d, want %d", got, engineExecuted)
	}
	if got := reg.Counter(obs.MetricCellsDone, "").Value(); got != engineExecuted {
		t.Errorf("cells_done = %d, want %d", got, engineExecuted)
	}
	if got := reg.Counter(obs.MetricCellsFailed, "").Value(); got != engineFailed {
		t.Errorf("cells_failed = %d, want %d", got, engineFailed)
	}
	// Histograms count actually-executed runs: the repeated cell never
	// re-simulates.
	if got := reg.Histogram(obs.MetricRunSeconds, "", nil).Count(); got != engineExecuted {
		t.Errorf("run_seconds count = %d, want %d", got, engineExecuted)
	}
	if got := reg.Histogram(obs.MetricQueueWait, "", nil).Count(); got != engineExecuted {
		t.Errorf("queue_wait_seconds count = %d, want %d", got, engineExecuted)
	}
	if got := reg.Counter(obs.MetricAccesses, "").Value(); got == 0 {
		t.Error("sim_accesses_total stayed zero across a completed batch")
	}
	if got := reg.Gauge(obs.GaugeWorkersBusy, "").Value(); got != 0 {
		t.Errorf("workers_busy = %v after the batch, want 0", got)
	}
	if got := reg.Gauge(obs.GaugeLastIPC, "").Value(); got <= 0 {
		t.Errorf("last_ipc = %v, want > 0", got)
	}
}

func TestRunJobsSpans(t *testing.T) {
	rec := obs.NewSpanRecorder()
	r := obsRunner(4, nil, rec)
	if _, err := r.RunJobs(engineJobs()); err != nil {
		t.Fatal(err)
	}
	spans := rec.Spans()
	var runs, traces, failed int
	for i := range spans {
		s := &spans[i]
		switch s.Cat {
		case obs.CatRun:
			runs++
			if s.Err {
				failed++
				continue
			}
			names := map[string]bool{}
			for _, p := range s.Phases {
				names[p.Name] = true
				if p.Start < s.Start || p.Start+p.Dur > s.Start+s.Dur {
					t.Errorf("span %s: phase %s [%v, %v) escapes span [%v, %v)",
						s.Cell(), p.Name, p.Start, p.Start+p.Dur, s.Start, s.Start+s.Dur)
				}
			}
			if !names[obs.PhaseDecode] || !names[obs.PhaseMeasured] {
				t.Errorf("span %s: phases %v missing decode or measured", s.Cell(), names)
			}
			if !names[obs.PhaseWarmup] {
				t.Errorf("span %s: no warmup phase despite the trace's warm-up marker", s.Cell())
			}
		case obs.CatTrace:
			traces++
			if s.Prefetcher != "" || s.Dur < 0 {
				t.Errorf("trace span malformed: %+v", s)
			}
		default:
			t.Errorf("unknown span category %q", s.Cat)
		}
	}
	if runs != engineExecuted {
		t.Errorf("recorded %d run spans, want %d (a repeated cell must not re-run)", runs, engineExecuted)
	}
	if failed != engineFailed {
		t.Errorf("recorded %d failed spans, want %d", failed, engineFailed)
	}
	if traces != engineTraceDecodes {
		t.Errorf("recorded %d trace spans, want %d (one per unique workload)", traces, engineTraceDecodes)
	}
}

// TestRunJobsObsMatchesDisabled pins the no-perturbation contract: attaching
// metrics and spans must not change a single simulation result.
func TestRunJobsObsMatchesDisabled(t *testing.T) {
	plain, err1 := engineRunner(4).RunJobs(engineJobs())
	instr, err2 := obsRunner(4, obs.NewRegistry(), obs.NewSpanRecorder()).RunJobs(engineJobs())
	if err1 != nil || err2 != nil {
		t.Fatalf("RunJobs errors: plain=%v instrumented=%v", err1, err2)
	}
	for i := range plain {
		if (plain[i].Err == nil) != (instr[i].Err == nil) {
			t.Fatalf("job %d: error mismatch with obs enabled", i)
		}
		if plain[i].Err == nil && !reflect.DeepEqual(plain[i].Result, instr[i].Result) {
			t.Errorf("job %d (%s/%s[%d]): result changed when observability was enabled",
				i, plain[i].Job.Workload, plain[i].Job.Prefetcher, plain[i].Job.Point)
		}
	}
}
