package exp

import (
	"math"
	"reflect"
	"testing"

	"semloc/internal/core"
	"semloc/internal/obs"
	"semloc/internal/trace"
)

// engineRunner builds a tiny-scale runner at a fixed parallelism.
func engineRunner(par int) *Runner {
	opts := DefaultOptions()
	opts.Scale = 0.02
	opts.Parallelism = par
	return NewRunner(opts)
}

// engineJobs is a mixed matrix: named cells plus a small parameterised
// sweep, with a deliberate duplicate named job and a failing job in the
// middle.
func engineJobs() []Job {
	cfgA := core.DefaultConfig()
	cfgA.CSTEntries, cfgA.ReducerEntries = 512, 4096
	cfgB := core.DefaultConfig()
	cfgB.Epsilon = 0.25
	return []Job{
		{Workload: "array", Prefetcher: "none"},
		{Workload: "list", Prefetcher: "none"},
		{Workload: "list", Prefetcher: "context"},
		{Workload: "array", Prefetcher: "none"}, // duplicate: must share the first's run
		{Workload: "list", Prefetcher: "no-such-prefetcher"},
		{Workload: "array", Prefetcher: "context", Point: 0, Config: &cfgA},
		{Workload: "array", Prefetcher: "context", Point: 1, Config: &cfgB},
		{Workload: "list", Prefetcher: "context", Point: 0, Config: &cfgA},
	}
}

// TestRunJobsParallelMatchesSequential is the engine's golden determinism
// test: the same job slice run at parallelism 1 and parallelism 8 must
// produce structurally identical results, job for job.
func TestRunJobsParallelMatchesSequential(t *testing.T) {
	seq, seqErr := engineRunner(1).RunJobs(engineJobs())
	par, parErr := engineRunner(8).RunJobs(engineJobs())
	if seqErr != nil || parErr != nil {
		t.Fatalf("RunJobs errors: seq=%v par=%v", seqErr, parErr)
	}
	if len(seq) != len(par) {
		t.Fatalf("result lengths differ: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if (seq[i].Err == nil) != (par[i].Err == nil) {
			t.Fatalf("job %d: error mismatch: seq=%v par=%v", i, seq[i].Err, par[i].Err)
		}
		if seq[i].Err != nil {
			continue
		}
		if !reflect.DeepEqual(seq[i].Result, par[i].Result) {
			t.Errorf("job %d (%s/%s[%d]): sequential and parallel results differ",
				i, seq[i].Job.Workload, seq[i].Job.Prefetcher, seq[i].Job.Point)
		}
	}
}

// TestRunJobsContract pins the engine's per-job semantics: results indexed
// by submission order, failures isolated, duplicates sharing one run, and
// every learner run reporting its learner's health.
func TestRunJobsContract(t *testing.T) {
	r := engineRunner(4)
	results, err := r.RunJobs(engineJobs())
	if err != nil {
		t.Fatal(err)
	}
	for i, jr := range results {
		if jr.Index != i {
			t.Errorf("result %d carries index %d", i, jr.Index)
		}
	}
	if results[4].Err == nil {
		t.Error("unknown-prefetcher job did not fail")
	}
	for i, jr := range results {
		if i == 4 {
			continue
		}
		if jr.Err != nil {
			t.Errorf("job %d failed alongside the bad job: %v", i, jr.Err)
		}
	}
	if results[0].Result == nil || results[3].Result != results[0].Result {
		t.Error("duplicate named job did not share the first job's result")
	}
	for _, i := range []int{2, 5} {
		if l := results[i].Learner; l == nil || l.Accesses == 0 {
			t.Errorf("context job %d reported learner health %+v", i, l)
		}
	}
	if results[0].Learner != nil {
		t.Error("a none run reported a learner")
	}
}

// TestRunJobsPointOnlyLabels: the sweep point labels a job and does not
// change its run. One config at points 0 and 5 is one run in a batch, and
// so is an Epsilon of -0 and one of 0, the same configuration; each point
// alone gives DeepEqual results on two runners.
func TestRunJobsPointOnlyLabels(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.Epsilon = 0.25
	negZero, zero := core.DefaultConfig(), core.DefaultConfig()
	negZero.Epsilon, zero.Epsilon = math.Copysign(0, -1), 0
	pairs := [][]Job{{
		{Workload: "list", Prefetcher: "context", Point: 0, Config: &cfg},
		{Workload: "list", Prefetcher: "context", Point: 5, Config: &cfg},
	}, {
		{Workload: "list", Prefetcher: "context", Point: 0, Config: &negZero},
		{Workload: "list", Prefetcher: "context", Point: 1, Config: &zero},
	}}
	for _, jobs := range pairs {
		rec := obs.NewSpanRecorder()
		both := runCells(t, obsRunner(2, nil, rec), jobs...)
		if both[0].Result != both[1].Result {
			t.Errorf("epsilon %v at point %d and %v at point %d did not share one run",
				jobs[0].Config.Epsilon, jobs[0].Point, jobs[1].Config.Epsilon, jobs[1].Point)
		}
		if n := len(rec.Spans()); n != 2 {
			t.Errorf("%d spans, want one run and one trace generation", n)
		}
	}
	jobs := pairs[0]
	p0 := runCells(t, engineRunner(2), jobs[0])[0]
	p5 := runCells(t, engineRunner(2), jobs[1])[0]
	if !reflect.DeepEqual(p0.Result, p5.Result) || !reflect.DeepEqual(p0.Learner, p5.Learner) {
		t.Error("points 0 and 5 of one config ran differently on two runners")
	}
}

// TestConfigJobMatchesNamedCell pins the equivalence the one run path and
// the ablation table rest on: a Config job holding an unmodified
// core.DefaultConfig(), labelled with a context variant's name, is that
// named cell — the same seed, the same policy and a DeepEqual sim.Result —
// on every workload. In one batch the two share one run, so each side runs
// on a runner of its own.
func TestConfigJobMatchesNamedCell(t *testing.T) {
	opts := DefaultOptions()
	opts.Scale = 0.1
	if raceEnabled {
		opts.Scale = 0.02
	}
	cfg := core.DefaultConfig()
	var named, param []Job
	for _, wl := range AllWorkloads() {
		for _, pf := range []string{"context", "context-softmax"} {
			named = append(named, Job{Workload: wl, Prefetcher: pf})
			param = append(param, Job{Workload: wl, Prefetcher: pf, Config: &cfg})
		}
	}
	nres := runCells(t, NewRunner(opts), named...)
	pres := runCells(t, NewRunner(opts), param...)
	for i := range nres {
		if !reflect.DeepEqual(nres[i].Result, pres[i].Result) {
			t.Errorf("%s/%s: the default Config job differs from the named cell", named[i].Workload, named[i].Prefetcher)
		}
	}
}

// TestDeriveSeedProperties pins the seed map: deterministic, sensitive to
// every coordinate, never zero, and free of the delimiter ambiguity that a
// naive string concatenation would have.
func TestDeriveSeedProperties(t *testing.T) {
	base := DeriveSeed(1, "list", "context", 0)
	if base == 0 {
		t.Fatal("DeriveSeed returned 0")
	}
	if DeriveSeed(1, "list", "context", 0) != base {
		t.Error("DeriveSeed is not deterministic")
	}
	variants := map[string]uint64{
		"base":       DeriveSeed(2, "list", "context", 0),
		"workload":   DeriveSeed(1, "mcf", "context", 0),
		"prefetcher": DeriveSeed(1, "list", "context-ucb", 0),
		"point":      DeriveSeed(1, "list", "context", 1),
		// "lis"+"tcontext" vs "list"+"context": the separator must matter.
		"boundary": DeriveSeed(1, "lis", "tcontext", 0),
	}
	for name, v := range variants {
		if v == base {
			t.Errorf("DeriveSeed insensitive to %s coordinate", name)
		}
	}
}

// TestTraceImmutabilityGuard mutates a cached shared trace and checks the
// engine refuses to hand results back silently.
func TestTraceImmutabilityGuard(t *testing.T) {
	r := engineRunner(2)
	tr, err := r.Trace("array")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.traces.VerifyImmutable(); err != nil {
		t.Fatalf("pristine cache failed verification: %v", err)
	}
	// A simulated stray write by a buggy run: one access's address
	// changes in the shared trace.
	*tr = *copyTrace(tr, tr.Name, true)
	if _, err := r.RunJobs([]Job{{Workload: "array", Prefetcher: "none"}}); err == nil {
		t.Fatal("RunJobs returned no error after a cached trace was mutated")
	}
}

// TestAddTraceGuardedLikeGenerated: a trace handed to the runner replays
// under its name as the generated trace it copies does, and the check
// after each batch covers it: a write into it between two batches fails
// the second. A second trace under a name the runner holds is refused.
func TestAddTraceGuardedLikeGenerated(t *testing.T) {
	r := engineRunner(2)
	gen, err := r.Trace("array")
	if err != nil {
		t.Fatal(err)
	}
	tr := copyTrace(gen, "array-file", false)
	if err := r.AddTrace(tr); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"array-file", "array"} {
		if err := r.AddTrace(copyTrace(gen, name, false)); err == nil {
			t.Errorf("a second trace named %q was accepted", name)
		}
	}
	jobs := []Job{{Workload: "array-file", Prefetcher: "none"}, {Workload: "array", Prefetcher: "none"}}
	res, err := r.RunJobs(jobs)
	if err != nil || res[0].Err != nil || res[1].Err != nil {
		t.Fatal(err, res[0].Err, res[1].Err)
	}
	if a, b := res[0].Result.CPU.Cycles, res[1].Result.CPU.Cycles; a != b {
		t.Errorf("the added copy runs %d cycles, the generated trace %d", a, b)
	}
	*tr = *copyTrace(gen, "array-file", true)
	if _, err := r.RunJobs(jobs[:1]); err == nil {
		t.Fatal("RunJobs returned no error after an added trace was mutated")
	}
}

// copyTrace rebuilds tr's records under name, with the first access's
// address changed when flip is set.
func copyTrace(tr *trace.Trace, name string, flip bool) *trace.Trace {
	e := trace.NewEmitter(name)
	c := tr.Cursor()
	for c.Next() {
		r := *c.Record()
		if flip && r.IsMem() {
			r.Addr ^= 0x40
			flip = false
		}
		e.Append(r)
	}
	return e.Finish()
}

// TestExperimentOutputDeterministic renders a full simulation-backed
// experiment at parallelism 1 and 8 and requires byte-identical output —
// the end-to-end version of the engine's determinism contract, covering
// fig13's parameterised sweep path.
func TestExperimentOutputDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-matrix experiment at two parallelism levels")
	}
	seq, _ := render(t, engineRunner(1), "fig13")
	par, _ := render(t, engineRunner(8), "fig13")
	if seq != par {
		t.Errorf("fig13 output differs between -parallel 1 and 8:\n--- seq ---\n%s\n--- par ---\n%s", seq, par)
	}
}

// TestRunJobsOneRunPerCell runs every experiment's cells as one batch, as
// cmd/experiments does, and counts the spans: one CatRun span per distinct
// key and one CatTrace span per distinct workload. The 729 jobs hold 241
// keys: Fig. 13's ten 2048-entry jobs are Fig. 12's context cells, and
// every ablation toggle, "sparse sampling" too (it differs from the
// default only inside SampleDepths), is a run of its own.
func TestRunJobsOneRunPerCell(t *testing.T) {
	var jobs []Job
	for _, e := range Experiments() {
		if e.Jobs != nil {
			jobs = append(jobs, e.Jobs()...)
		}
	}
	workloads := make(map[string]bool)
	for _, j := range jobs {
		workloads[j.Workload] = true
	}
	const wantJobs, wantRuns = 729, 241
	if len(jobs) != wantJobs {
		t.Fatalf("%d jobs, want %d", len(jobs), wantJobs)
	}
	rec := obs.NewSpanRecorder()
	runCells(t, obsRunner(0, nil, rec), jobs...)
	var runs, traces int
	for _, s := range rec.Spans() {
		switch s.Cat {
		case obs.CatRun:
			runs++
		case obs.CatTrace:
			traces++
		}
	}
	if runs != wantRuns {
		t.Errorf("%d run spans for %d jobs, want %d: one per distinct key", runs, len(jobs), wantRuns)
	}
	if traces != len(workloads) {
		t.Errorf("%d trace spans, want %d: one per distinct workload", traces, len(workloads))
	}
}
