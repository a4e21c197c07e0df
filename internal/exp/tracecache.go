package exp

import (
	"context"
	"errors"
	"fmt"
	"hash/crc64"
	"sync"

	"semloc/internal/harness"
	"semloc/internal/obs"
	"semloc/internal/trace"
	"semloc/internal/workloads"
)

// TraceCache is the shared, immutable decoded-trace store behind the
// parallel experiment engine: each workload's trace is generated exactly
// once (single-flight, even under concurrent callers) and then shared
// read-only by every simulation that replays it. Because N concurrent
// runs all read the same *trace.Trace, a single stray write would corrupt
// every sibling run silently — so the cache records a digest the moment
// a trace lands and VerifyImmutable re-hashes the store after a batch of
// runs, turning mutation into a loud failure.
type TraceCache struct {
	scale float64
	seed  uint64

	mu     sync.Mutex
	traces map[string]*trace.Trace
	sums   map[string]uint64
	errs   map[string]error
	inFly  map[string]*sync.WaitGroup

	// genHook, when set, observes each actual generator invocation (tests
	// use it to assert single-flight).
	genHook func(workload string)

	// spans, when set, records one obs.CatTrace span per actual generator
	// invocation. Guarded by mu for installation; the recorder itself is
	// safe for concurrent use.
	spans *obs.SpanRecorder
}

// NewTraceCache builds an empty cache generating workloads at the given
// scale and seed.
func NewTraceCache(scale float64, seed uint64) *TraceCache {
	if scale <= 0 {
		scale = 1
	}
	if seed == 0 {
		seed = 1
	}
	return &TraceCache{
		scale:  scale,
		seed:   seed,
		traces: make(map[string]*trace.Trace),
		sums:   make(map[string]uint64),
		errs:   make(map[string]error),
		inFly:  make(map[string]*sync.WaitGroup),
	}
}

// SetSpans attaches a span recorder: each actual trace generation (not cache
// hits) is recorded as an obs.CatTrace span. Safe to call before any Get;
// installing a recorder mid-batch only affects generations that start later.
func (c *TraceCache) SetSpans(rec *obs.SpanRecorder) {
	c.mu.Lock()
	c.spans = rec
	c.mu.Unlock()
}

// spanRecorder returns the installed recorder (nil-safe to use directly).
func (c *TraceCache) spanRecorder() *obs.SpanRecorder {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.spans
}

// Get returns the (cached) generated trace for a workload. Generation runs
// under supervision: a panicking generator (e.g. heap exhaustion on an
// oversized scale) fails only this workload, and cancelling ctx returns
// promptly even mid-generation (the generator goroutine is abandoned; its
// result is still memoized if it finishes). Concurrent callers share one
// generation — without the single-flight, every figure touching a workload
// first would generate its trace redundantly (and large-scale generations
// would multiply peak heap by the caller count). Failed generations are
// memoized; cancellations are not. An error is the bare cause, naming
// neither the workload nor the generation: the runner's callers add
// whichever of the trace or the cell they asked for.
func (c *TraceCache) Get(ctx context.Context, workload string) (*trace.Trace, error) {
	c.mu.Lock()
	for {
		if tr, ok := c.traces[workload]; ok {
			c.mu.Unlock()
			return tr, nil
		}
		if err, ok := c.errs[workload]; ok {
			c.mu.Unlock()
			return nil, err
		}
		wg, running := c.inFly[workload]
		if !running {
			break
		}
		c.mu.Unlock()
		wg.Wait()
		c.mu.Lock()
	}
	wg := &sync.WaitGroup{}
	wg.Add(1)
	c.inFly[workload] = wg
	c.mu.Unlock()

	tr, err := c.generate(ctx, workload)

	c.mu.Lock()
	switch {
	case err == nil:
		// generate's goroutine memoized the trace already (it must, so an
		// abandoned generation still lands); nothing more to store.
	case harness.IsCancelled(err):
		// Cancellation is a property of this attempt, not of the workload:
		// don't memoize it.
	default:
		c.errs[workload] = err
	}
	delete(c.inFly, workload)
	c.mu.Unlock()
	wg.Done()
	return tr, err
}

// generate produces the workload's trace under supervision. The generator
// runs in its own goroutine so cancellation returns promptly; the goroutine
// memoizes into c.traces itself so an abandoned generation is kept if it
// eventually finishes.
func (c *TraceCache) generate(ctx context.Context, workload string) (*trace.Trace, error) {
	if err := ctx.Err(); err != nil {
		return nil, context.Cause(ctx)
	}
	w, err := workloads.ByName(workload)
	if err != nil {
		return nil, errors.New("unknown workload")
	}
	if c.genHook != nil {
		c.genHook(workload)
	}
	done := make(chan error, 1)
	var tr *trace.Trace
	rec := c.spanRecorder()
	go func() {
		done <- harness.Safely(func() error {
			start := rec.Now()
			gen := w.Generate(workloads.GenConfig{Scale: c.scale, Seed: c.seed})
			rec.Add(obs.Span{Cat: obs.CatTrace, Workload: workload, Start: start, Dur: rec.Now() - start})
			// An abandoned earlier generation may have landed meanwhile;
			// land keeps the first.
			var err error
			tr, err = c.land(workload, gen)
			return err
		})
	}()
	select {
	case err := <-done:
		return tr, err
	case <-ctx.Done():
		return nil, context.Cause(ctx)
	}
}

// land digests tr and stores it under name with its digest, unless a trace
// is there already; it returns the trace the cache holds under name.
func (c *TraceCache) land(name string, tr *trace.Trace) (*trace.Trace, error) {
	sum, err := digest(tr)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if existing, ok := c.traces[name]; ok {
		return existing, nil
	}
	c.traces[name] = tr
	c.sums[name] = sum
	return tr, nil
}

// VerifyImmutable re-hashes every cached trace and compares it with the
// digest recorded when it entered the cache, reporting the first mismatch:
// a shared trace was written to by something that should have treated it
// as read-only. The engine calls this after every job batch. One pass
// reads each trace's bytes once, about 75 ms for the 106 MB of scale-1
// traces on a 2-CPU machine.
func (c *TraceCache) VerifyImmutable() error {
	c.mu.Lock()
	traces := make(map[string]*trace.Trace, len(c.traces))
	sums := make(map[string]uint64, len(c.sums))
	for k, v := range c.traces {
		traces[k] = v
		sums[k] = c.sums[k]
	}
	c.mu.Unlock()
	// Hash outside the lock: concurrent readers are fine (the whole point
	// is that the data is immutable), and a concurrent writer is exactly
	// the corruption this check exists to expose.
	for name, tr := range traces {
		got, err := digest(tr)
		if err != nil {
			return fmt.Errorf("exp: shared trace %q mutated while cached: %w", name, err)
		}
		if got != sums[name] {
			return fmt.Errorf("exp: shared trace %q mutated while cached (digest %#x, recorded %#x): concurrent runs may be corrupted", name, got, sums[name])
		}
	}
	return nil
}

// digest returns the CRC-64 of the bytes trace.Write writes for tr: its
// name and every section of its store. A write into any of them changes
// the bytes, and a CRC-64 catches every error confined to 64 consecutive
// bits. The error is Write's, for a record of an unknown kind.
func digest(tr *trace.Trace) (uint64, error) {
	h := crc64.New(crc64.MakeTable(crc64.ECMA))
	err := trace.Write(h, tr)
	return h.Sum64(), err
}
