package exp

import (
	"fmt"
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
// parameterised jobs exposing their prefetcher instance.
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
	if results[5].Prefetcher == nil {
		t.Error("parameterised job did not expose its prefetcher instance")
	}
	if results[2].Prefetcher != nil {
		t.Error("named job leaked its (shared) prefetcher instance")
	}
}

// TestRunJobsDerivedSeedsIndependent checks that two sweep points with
// byte-identical configs still explore independently (their seeds derive
// from the point index), while re-running the same point reproduces it.
func TestRunJobsDerivedSeedsIndependent(t *testing.T) {
	cfg := core.DefaultConfig()
	jobs := []Job{
		{Workload: "list", Prefetcher: "context", Point: 0, Config: &cfg},
		{Workload: "list", Prefetcher: "context", Point: 1, Config: &cfg},
		{Workload: "list", Prefetcher: "context", Point: 0, Config: &cfg},
	}
	r := engineRunner(2)
	results, err := r.RunJobs(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i, jr := range results {
		if jr.Err != nil {
			t.Fatalf("job %d: %v", i, jr.Err)
		}
	}
	if !reflect.DeepEqual(results[0].Result, results[2].Result) {
		t.Error("re-running the same sweep point produced a different result")
	}
	// Different points get different exploration streams. (Equal final
	// Results are astronomically unlikely but not impossible; assert on the
	// seeds, which is the property actually promised.)
	s0 := DeriveSeed(r.Options().Seed, "list", "context", 0)
	s1 := DeriveSeed(r.Options().Seed, "list", "context", 1)
	if s0 == s1 {
		t.Error("DeriveSeed ignored the point index")
	}
}

// TestConfigJobMatchesNamedCell pins the equivalence the one run path and
// the ablation table rest on: a Config job holding an unmodified
// core.DefaultConfig(), labelled with a context variant's name at point 0,
// is that named cell — the same seed, the same policy and a DeepEqual
// sim.Result — on every workload.
func TestConfigJobMatchesNamedCell(t *testing.T) {
	opts := DefaultOptions()
	opts.Scale = 0.1
	if raceEnabled {
		opts.Scale = 0.02
	}
	cfg := core.DefaultConfig()
	var jobs []Job
	for _, wl := range AllWorkloads() {
		for _, pf := range []string{"context", "context-softmax"} {
			jobs = append(jobs, Job{Workload: wl, Prefetcher: pf}, Job{Workload: wl, Prefetcher: pf, Config: &cfg})
		}
	}
	results, err := NewRunner(opts).RunJobs(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(results); i += 2 {
		named, param := results[i], results[i+1]
		if named.Err != nil || param.Err != nil {
			t.Fatalf("%s/%s: named %v, config %v", named.Job.Workload, named.Job.Prefetcher, named.Err, param.Err)
		}
		if !reflect.DeepEqual(named.Result, param.Result) {
			t.Errorf("%s/%s: the default Config job differs from the named cell", named.Job.Workload, named.Job.Prefetcher)
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
// cell (a named cell once however many figures read it, a Config job every
// time) and one CatTrace span per distinct workload.
func TestRunJobsOneRunPerCell(t *testing.T) {
	var jobs []Job
	for _, e := range Experiments() {
		if e.Jobs != nil {
			jobs = append(jobs, e.Jobs()...)
		}
	}
	cells := make(map[string]bool)
	workloads := make(map[string]bool)
	for i, j := range jobs {
		key := j.Workload + "/" + j.Prefetcher
		if j.Config != nil {
			key = fmt.Sprint(i)
		}
		cells[key] = true
		workloads[j.Workload] = true
	}
	if len(cells) == len(jobs) {
		t.Fatalf("the experiments share no named cell across %d jobs; the test checks nothing", len(jobs))
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
	if runs != len(cells) {
		t.Errorf("%d run spans for %d jobs, want %d: one per distinct cell", runs, len(jobs), len(cells))
	}
	if traces != len(workloads) {
		t.Errorf("%d trace spans, want %d: one per distinct workload", traces, len(workloads))
	}
}
