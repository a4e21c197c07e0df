package exp

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"semloc/internal/obs"
)

// learnerRunner builds a tiny-scale runner with interval sampling and a
// live registry attached, so the learner-health bridge (Runner.lm) is
// wired for every cell.
func learnerRunner(par int, reg *obs.Registry) *Runner {
	opts := DefaultOptions()
	opts.Scale = 0.02
	opts.Parallelism = par
	opts.Metrics = reg
	opts.Telemetry = obs.Config{Interval: 1024}
	return NewRunner(opts)
}

// TestRunJobsLearnerObsMatchesDisabled pins the learner-introspection
// no-perturbation contract (DESIGN.md §18): wiring interval sampling plus
// the learner-health registry bridge must not change a single simulation
// result. Instrumented runs additionally carry a Series; everything else —
// timing, cache stats, categories, hit depths — must be bit-identical,
// which transitively pins decisions, rewards, and RNG consumption.
func TestRunJobsLearnerObsMatchesDisabled(t *testing.T) {
	plain, err1 := engineRunner(4).RunJobs(engineJobs())
	reg := obs.NewRegistry()
	instr, err2 := learnerRunner(4, reg).RunJobs(engineJobs())
	if err1 != nil || err2 != nil {
		t.Fatalf("RunJobs errors: plain=%v instrumented=%v", err1, err2)
	}
	for i := range plain {
		if (plain[i].Err == nil) != (instr[i].Err == nil) {
			t.Fatalf("job %d: error mismatch with learner obs enabled", i)
		}
		if plain[i].Err != nil {
			continue
		}
		// A Config job off its name's default configuration skips
		// telemetry (see Runner.run), and engineJobs' Config jobs all are;
		// named jobs must carry a series and match modulo it.
		got := *instr[i].Result
		if instr[i].Job.Config == nil {
			if got.Series == nil {
				t.Fatalf("job %d: interval sampling enabled but no series", i)
			}
			got.Series = nil
		}
		if !reflect.DeepEqual(plain[i].Result, &got) {
			t.Errorf("job %d (%s/%s[%d]): result changed when learner introspection was enabled",
				i, plain[i].Job.Workload, plain[i].Job.Prefetcher, plain[i].Job.Point)
		}
	}
	// The bridge must have actually published: the context prefetcher learns
	// on these workloads, so the cumulative outcome counters cannot all be
	// zero, and the CST gauges must show learned state.
	accurate := reg.Counter(obs.MetricLearnerAccurate, "").Value()
	explores := reg.Counter(obs.MetricLearnerExplores, "").Value()
	if accurate == 0 && explores == 0 {
		t.Error("learner-health counters stayed zero across an instrumented batch")
	}
	if reg.Gauge(obs.GaugeLearnerCSTEntries, "").Value() <= 0 {
		t.Error("learner_cst_entries gauge never published")
	}
	if reg.Histogram(obs.HistLearnerQueueHitRate, "", nil).Count() == 0 {
		t.Error("queue-hit-rate histogram observed nothing")
	}
}

// TestRunnerNoLearnerMetricsWithoutTelemetry: a registry-carrying but
// telemetry-free sweep must keep its /metrics surface unchanged — the
// learner instruments only register when interval sampling will feed them.
func TestRunnerNoLearnerMetricsWithoutTelemetry(t *testing.T) {
	reg := obs.NewRegistry()
	r := obsRunner(2, reg, nil)
	if r.lm != nil {
		t.Fatal("learner metrics bridge created without interval sampling")
	}
	if _, err := r.RunJobs(engineJobs()[:2]); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "learner_") {
		t.Fatalf("learner metrics registered on a telemetry-free runner:\n%s", buf.String())
	}
}

// TestLearnerGaugesSurviveRunWithoutLearner pins DESIGN.md §18's gauge
// contract: the learner gauges hold the state of the last run that had a
// learner, so a later cell without one must not publish over them.
func TestLearnerGaugesSurviveRunWithoutLearner(t *testing.T) {
	reg := obs.NewRegistry()
	r := learnerRunner(1, reg)
	entries := reg.Gauge(obs.GaugeLearnerCSTEntries, "")
	run := func(prefetcher string) {
		t.Helper()
		res, err := r.RunJobs([]Job{{Workload: "list", Prefetcher: prefetcher}})
		if err == nil {
			err = res[0].Err
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	run("context")
	want := entries.Value()
	if want <= 0 {
		t.Fatalf("learner_cst_entries = %v after a context cell, want > 0", want)
	}
	run("none")
	if got := entries.Value(); got != want {
		t.Errorf("learner_cst_entries = %v after a none cell, want the context cell's %v", got, want)
	}
}
