package exp

import (
	"context"
	"testing"
	"time"

	"semloc/internal/harness"
)

// TestRunnerCancellationStress cancels a runner while a batch of
// overlapping cells is in flight on four workers: every job must come back
// with either a completed result or a cancellation, promptly (the suite's
// -race run checks the teardown itself).
func TestRunnerCancellationStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	ctx, cancel := context.WithCancel(context.Background())
	opts := DefaultOptions()
	opts.Scale = 0.02
	opts.Parallelism = 4
	r := NewRunnerContext(ctx, opts)

	jobs := make([]Job, 10)
	for g := range jobs {
		jobs[g] = Job{Workload: []string{"list", "array"}[g%2], Prefetcher: []string{"none", "sms", "context"}[g%3]}
	}
	// Let some runs get in flight, then pull the plug.
	timer := time.AfterFunc(5*time.Millisecond, cancel)
	defer timer.Stop()
	res, err := r.RunJobs(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for _, jr := range res {
		if jr.Err != nil && !harness.IsCancelled(jr.Err) {
			t.Errorf("non-cancellation error during cancelled stress run: %v", jr.Err)
		}
	}
}

// TestAbandonedGenerationMemoized pins the abandoned-goroutine contract:
// when a caller is cancelled mid-generation, the generator goroutine keeps
// running and must still land its trace in the shared cache, so later
// callers get the trace instead of regenerating it.
func TestAbandonedGenerationMemoized(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	opts := DefaultOptions()
	opts.Scale = 0.02
	r := NewRunnerContext(ctx, opts)
	r.traces.genHook = func(string) { cancel() } // cancel the instant generation starts

	if _, err := r.Trace("list"); err == nil || !harness.IsCancelled(err) {
		t.Fatalf("Trace under mid-generation cancel: err=%v, want cancellation", err)
	}
	// The abandoned generator finishes on its own schedule; the cache must
	// eventually serve its trace (the cancelled ctx is irrelevant to a
	// cache hit).
	deadline := time.Now().Add(10 * time.Second)
	for {
		if tr, err := r.Trace("list"); err == nil {
			if tr == nil {
				t.Fatal("memoized trace is nil")
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("abandoned generation never landed in the trace cache")
		}
		time.Sleep(time.Millisecond)
	}
}
