package exp

import (
	"fmt"
	"sync"
	"sync/atomic"

	"semloc/internal/core"
	"semloc/internal/prefetch"
	"semloc/internal/sim"
)

// Job is one cell of an experiment matrix: a (workload, prefetcher,
// sweep-point) triple. Two flavours exist:
//
//   - Config == nil: a named cell, keyed by workload and prefetcher. A
//     batch runs each distinct named cell once, so a cell that several
//     figures share (e.g. "mcf"/"none") simulates once however many of
//     the batch's jobs name it.
//   - Config != nil: a parameterised context-prefetcher run (sweeps,
//     sensitivity studies, ablations). These always run: each job builds
//     a fresh prefetcher from the config.
//
// Both build their prefetcher with NewCellPrefetcher, so a context run's
// RNG seed derives from (base seed, workload, prefetcher, point) and the
// result is a pure function of the job, not of scheduling order or
// sibling jobs. A Config job with core.DefaultConfig() at point 0 is
// therefore the same run as the named cell it is labelled with.
type Job struct {
	// Workload is the trace to replay (Table 3 name).
	Workload string
	// Prefetcher is the prefetcher name. It labels the run and salts the
	// derived seed; a policy variant's name sets a Config job's policy, and
	// a name without a learner ignores the Config (see NewCellPrefetcher).
	Prefetcher string
	// Point is the sweep-point index (0 for non-sweep jobs); it salts the
	// derived seed so two points with identical configs still get
	// independent exploration streams.
	Point int
	// Config, when non-nil, requests a fresh context-prefetcher run with
	// this configuration (its Seed field is overwritten by the derived
	// seed, its Policy by a policy variant's name).
	Config *core.Config
}

// cell names the job in errors: "workload/prefetcher", and a Config job's
// point as "[point]".
func (j Job) cell() string {
	if j.Config == nil {
		return j.Workload + "/" + j.Prefetcher
	}
	return fmt.Sprintf("%s/%s[%d]", j.Workload, j.Prefetcher, j.Point)
}

// JobResult pairs a Job with its outcome. Results come back indexed by the
// position of the job in the submitted slice — never by completion order —
// which is half of the engine's determinism contract (the other half is
// seed derivation).
type JobResult struct {
	// Job echoes the submitted job.
	Job Job
	// Index is the job's position in the slice passed to RunJobs.
	Index int
	// Result is the simulation result (nil when Err is set).
	Result *sim.Result
	// Prefetcher is the prefetcher instance the run used — populated only
	// for Config jobs, where callers need post-run learned state (metrics,
	// accuracy). A named cell's repeats in a batch share one result, so
	// exposing its instance would invite cross-job mutation.
	Prefetcher prefetch.Prefetcher
	// Err is the job's failure, if any. One failed job never aborts its
	// siblings: callers get every completed result plus every error.
	Err error
}

// DeriveSeed maps (base seed, workload, prefetcher, point) to the RNG seed
// for that run. The derivation is pure and order-free, which is what makes
// the parallel engine deterministic: a run's random stream depends only on
// the job's coordinates, never on which worker picked it up or how many
// jobs ran before it. Sequential and parallel schedules therefore produce
// bit-identical results.
//
// The map is FNV-1a over the coordinates followed by a splitmix64-style
// finalizer (the FNV lattice alone is too linear for seeds that differ in
// one trailing byte). Never returns 0, so a derived seed survives
// "0 means use default" checks unchanged.
func DeriveSeed(base uint64, workload, prefetcher string, point int) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(b byte) { h = (h ^ uint64(b)) * prime64 }
	for i := 0; i < 8; i++ {
		mix(byte(base >> (8 * i)))
	}
	for i := 0; i < len(workload); i++ {
		mix(workload[i])
	}
	mix(0)
	for i := 0; i < len(prefetcher); i++ {
		mix(prefetcher[i])
	}
	mix(0)
	for i := 0; i < 8; i++ {
		mix(byte(uint64(point) >> (8 * i)))
	}
	// splitmix64 finalizer.
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	if h == 0 {
		h = 1
	}
	return h
}

// RunJobs executes a job matrix on the runner's worker pool and returns one
// JobResult per job, in submission order. Each distinct named cell runs
// once; every job naming it gets the same *sim.Result (or error). Config
// jobs always run. Parallelism is bounded by Options.Parallelism; with
// Parallelism 1 the jobs run strictly in order, and the determinism
// contract (order-indexed results + coordinate-derived seeds) guarantees
// the outputs are bit-identical to any parallel schedule of the same
// slice.
//
// Individual job failures land in their JobResult.Err and do not stop the
// batch (cancellation does, via the per-run harness). The returned error
// reports batch-level corruption only: a shared cached trace whose digest
// changed during the batch, meaning some run wrote to memory every other
// run was reading.
func (r *Runner) RunJobs(jobs []Job) ([]JobResult, error) {
	out := make([]JobResult, len(jobs))
	// first[i] is the job whose run job i takes: itself, or the first job
	// naming the same cell.
	first := make([]int, len(jobs))
	seen := make(map[[2]string]int)
	var runs []int
	for i, j := range jobs {
		first[i] = i
		if j.Config == nil {
			key := [2]string{j.Workload, j.Prefetcher}
			if f, ok := seen[key]; ok {
				first[i] = f
				continue
			}
			seen[key] = i
		}
		runs = append(runs, i)
	}
	r.met.batchSubmitted(len(runs))
	workers := min(cap(r.sem), len(runs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(runs) {
					return
				}
				i := runs[k]
				jr := &out[i]
				jr.Result, jr.Prefetcher, jr.Err = r.run(jobs[i])
				if jobs[i].Config == nil {
					jr.Prefetcher = nil
				}
				r.met.jobFinished(jr)
			}
		}()
	}
	wg.Wait()
	for i, f := range first {
		out[i] = out[f]
		out[i].Job, out[i].Index = jobs[i], i
	}
	return out, r.traces.VerifyImmutable()
}
