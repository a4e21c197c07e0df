package exp

// This file is the engine's live-observability plumbing: per-batch metric
// counters and per-run span accounting. Everything here is cell-granular —
// a handful of atomics and one timestamped struct per simulation — and
// fully disabled (no clock reads, no allocations) when neither
// Options.Metrics nor Options.Spans is set, preserving the engine's
// zero-overhead contract.

import (
	"sync/atomic"
	"time"

	"semloc/internal/cache"
	"semloc/internal/obs"
	"semloc/internal/sim"
)

// runMetrics are the engine's handles on the live-run metrics. A nil
// *runMetrics (Options.Metrics unset) makes every method a no-op.
type runMetrics obs.RunMetrics

func newRunMetrics(reg *obs.Registry) *runMetrics {
	if reg == nil {
		return nil
	}
	return (*runMetrics)(obs.NewRunMetrics(reg))
}

// batchSubmitted accounts a RunJobs batch's distinct cells entering the
// engine.
func (m *runMetrics) batchSubmitted(cells int) {
	if m == nil {
		return
	}
	m.CellsTotal.Add(uint64(cells))
}

// jobFinished accounts one distinct cell of a batch completing, so done
// converges on total.
func (m *runMetrics) jobFinished(jr *JobResult) {
	if m == nil {
		return
	}
	m.CellsDone.Inc()
	if jr.Err != nil {
		m.CellsFailed.Inc()
		return
	}
	if jr.Result != nil {
		m.LastIPC.Set(jr.Result.IPC())
		m.LastL1MPKI.Set(jr.Result.L1MPKI())
	}
}

// workerAcquired / workerReleased bracket a held worker-pool slot.
func (m *runMetrics) workerAcquired() {
	if m == nil {
		return
	}
	m.WorkersBusy.Add(1)
}

func (m *runMetrics) workerReleased() {
	if m == nil {
		return
	}
	m.WorkersBusy.Add(-1)
}

// runExecuted accounts one run of a distinct cell, successful or failed.
func (m *runMetrics) runExecuted(res *sim.Result, queueWait, total time.Duration) {
	if m == nil {
		return
	}
	m.QueueWait.Observe(queueWait.Seconds())
	m.RunSeconds.Observe(total.Seconds())
	if res != nil {
		m.Accesses.Add(res.Categories.Demand)
	}
}

// cellTrace accumulates one executed run's phase boundaries. A nil
// *cellTrace (observability fully disabled) turns every method into a
// single branch and, crucially, warmupHook into a nil function pointer —
// the simulation then runs the exact uninstrumented configuration.
//
// Phase model (offsets from the cell's start):
//
//	decode     [0, decode]            fetching/generating the trace
//	queue_wait [qStart, qEnd]         blocking on the worker semaphore
//	warmup     [simStart, warmEnd]    simulating up to the warm-up marker
//	measured   [warmEnd, total]       simulating the measured region
//
// warmEnd is stored atomically because the warm-up hook runs on the
// simulation goroutine, which the harness may abandon after a grace
// timeout — the late write must not race the span assembly.
type cellTrace struct {
	r        *Runner
	workload string
	pf       string
	point    int
	start    time.Time
	off      time.Duration // span-epoch offset of start
	decode   time.Duration
	qStart   time.Duration
	qEnd     time.Duration
	simStart time.Duration
	warmEnd  atomic.Int64 // nanoseconds since start; 0 = no warm-up marker
}

// beginCell starts phase accounting for one job, or returns nil when both
// metrics and spans are disabled.
func (r *Runner) beginCell(workload, prefetcher string, point int) *cellTrace {
	if r.met == nil && r.spans == nil {
		return nil
	}
	// off is read before start: the span then ends at off plus the time
	// since start, never after finish runs, so the worker's next span
	// starts after it even when the goroutine is descheduled between the
	// two reads.
	off := r.spans.Now()
	return &cellTrace{
		r:        r,
		workload: workload,
		pf:       prefetcher,
		point:    point,
		start:    time.Now(),
		off:      off,
	}
}

func (c *cellTrace) decodeDone() {
	if c == nil {
		return
	}
	c.decode = time.Since(c.start)
}

func (c *cellTrace) queueStart() {
	if c == nil {
		return
	}
	c.qStart = time.Since(c.start)
}

func (c *cellTrace) queueDone() {
	if c == nil {
		return
	}
	c.qEnd = time.Since(c.start)
	c.simStart = c.qEnd
}

// installWarmup chains the cell's warmup→measured boundary timestamp onto
// the run configuration's OnWarmupEnd hook, preserving any hook the caller
// already set. A nil cellTrace leaves the configuration untouched, so the
// disabled path runs the exact uninstrumented simulation.
func (c *cellTrace) installWarmup(cfg *sim.Config) {
	if c == nil {
		return
	}
	prev := cfg.CPU.OnWarmupEnd
	cfg.CPU.OnWarmupEnd = func(now cache.Cycle) {
		c.warmEnd.Store(int64(time.Since(c.start)))
		if prev != nil {
			prev(now)
		}
	}
}

// finish closes the cell: it feeds the run histograms and appends the span
// with its phase breakdown.
func (c *cellTrace) finish(res *sim.Result, err error) {
	if c == nil {
		return
	}
	total := time.Since(c.start)
	c.r.met.runExecuted(res, c.qEnd-c.qStart, total)
	rec := c.r.spans
	if rec == nil {
		return
	}
	s := obs.Span{
		Cat:        obs.CatRun,
		Workload:   c.workload,
		Prefetcher: c.pf,
		Point:      c.point,
		Start:      c.off,
		Dur:        total,
		Err:        err != nil,
	}
	s.Phases = append(s.Phases, obs.Phase{Name: obs.PhaseDecode, Start: c.off, Dur: c.decode})
	if c.qEnd >= c.qStart && c.qStart > 0 {
		s.Phases = append(s.Phases, obs.Phase{Name: obs.PhaseQueueWait, Start: c.off + c.qStart, Dur: c.qEnd - c.qStart})
	}
	if c.simStart > 0 {
		warm := time.Duration(c.warmEnd.Load())
		if warm > c.simStart && warm <= total {
			s.Phases = append(s.Phases,
				obs.Phase{Name: obs.PhaseWarmup, Start: c.off + c.simStart, Dur: warm - c.simStart},
				obs.Phase{Name: obs.PhaseMeasured, Start: c.off + warm, Dur: total - warm})
		} else {
			s.Phases = append(s.Phases, obs.Phase{Name: obs.PhaseMeasured, Start: c.off + c.simStart, Dur: total - c.simStart})
		}
	}
	rec.Add(s)
}
