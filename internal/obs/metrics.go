package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Live-run metric names shared by the experiment engine and the progress
// reporter. Both register them through NewRunMetrics; the engine updates
// them, StartProgress and the /metrics endpoint read them. Keeping the
// names here (rather than in exp) lets the reporter stay decoupled from
// the engine while still computing done/total and ETA.
const (
	// MetricCellsTotal counts matrix cells submitted to RunJobs.
	MetricCellsTotal = "cells_total"
	// MetricCellsDone counts cells that finished (success or failure).
	MetricCellsDone = "cells_done"
	// MetricCellsFailed counts cells that finished with an error.
	MetricCellsFailed = "cells_failed"
	// MetricQueueWait observes seconds each run spent waiting for a worker
	// slot before simulating.
	MetricQueueWait = "queue_wait_seconds"
	// MetricRunSeconds observes end-to-end simulation seconds per cell.
	MetricRunSeconds = "run_seconds"
	// MetricAccesses counts demand accesses simulated across completed cells.
	MetricAccesses = "sim_accesses_total"
	// GaugeWorkersBusy tracks runs currently holding a worker slot.
	GaugeWorkersBusy = "workers_busy"
	// GaugeLastIPC holds the IPC of the most recently completed cell.
	GaugeLastIPC = "last_ipc"
	// GaugeLastL1MPKI holds the L1 MPKI of the most recently completed cell.
	GaugeLastL1MPKI = "last_l1_mpki"
)

// RunMetrics are the handles of the nine live-run metrics.
type RunMetrics struct {
	CellsTotal, CellsDone, CellsFailed, Accesses *Counter
	QueueWait, RunSeconds                        *Histogram
	WorkersBusy, LastIPC, LastL1MPKI             *Gauge
}

// NewRunMetrics registers the live-run metrics in reg, or looks them up
// when they are there already. It is their one declaration: the registry
// keeps the help text of a metric's first registration, so whichever of
// the engine and the progress reporter comes first, /metrics reads the
// same.
func NewRunMetrics(reg *Registry) *RunMetrics {
	return &RunMetrics{
		CellsTotal:  reg.Counter(MetricCellsTotal, "matrix cells submitted to the engine"),
		CellsDone:   reg.Counter(MetricCellsDone, "matrix cells completed (success or failure)"),
		CellsFailed: reg.Counter(MetricCellsFailed, "matrix cells that finished with an error"),
		Accesses:    reg.Counter(MetricAccesses, "demand accesses simulated by completed runs"),
		QueueWait:   reg.Histogram(MetricQueueWait, "seconds runs waited for a worker slot", nil),
		RunSeconds:  reg.Histogram(MetricRunSeconds, "end-to-end simulation seconds per executed run", nil),
		WorkersBusy: reg.Gauge(GaugeWorkersBusy, "runs currently holding a worker slot"),
		LastIPC:     reg.Gauge(GaugeLastIPC, "IPC of the most recently completed cell"),
		LastL1MPKI:  reg.Gauge(GaugeLastL1MPKI, "L1 MPKI of the most recently completed cell"),
	}
}

// DefaultDurationBuckets are the histogram bucket upper bounds (seconds)
// used for queue-wait and run-time observations: exponential from 1ms to
// ~8min, wide enough for a quick smoke cell and a full-scale SPEC run.
var DefaultDurationBuckets = []float64{
	0.001, 0.005, 0.01, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300, 480,
}

// DefaultLatencyBuckets are the bucket bounds (seconds) for serving-path
// latencies: log-spaced doubling from 250ns to ~2s. A learner decide is
// hundreds of nanoseconds, a cross-host round trip hundreds of
// microseconds, a retried request tens of milliseconds — the doubling grid
// keeps relative error bounded (~±50% within a bucket, tightened by
// Quantile's interpolation) across all six decades.
var DefaultLatencyBuckets = latencyBuckets()

func latencyBuckets() []float64 {
	out := make([]float64, 24)
	v := 250e-9
	for i := range out {
		out[i] = v
		v *= 2
	}
	return out
}

// Counter is a monotonically increasing metric. The hot path is one atomic
// add; a nil *Counter (the disabled registry) reduces every method to a
// branch-on-nil, mirroring the package's nil-*Collector contract.
type Counter struct {
	v    atomic.Uint64
	name string
	help string
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 for nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down, stored as float64 bits so IPC
// and MPKI readings fit. Nil-safe like Counter.
type Gauge struct {
	bits atomic.Uint64
	name string
	help string
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add adjusts the gauge by dv (CAS loop; contention is per-cell, not
// per-access, so this never sees the hot path).
func (g *Gauge) Add(dv float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + dv)
		if g.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Value returns the current reading (0 for nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram is a fixed-bucket cumulative histogram in the Prometheus
// style: counts per upper bound plus a running sum and count. Observe is
// a bucket scan plus three atomic adds — lock-free, and nil-safe.
type Histogram struct {
	name   string
	help   string
	bounds []float64
	counts []atomic.Uint64 // one per bound, plus the +Inf overflow at the end
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Count returns the number of observations (0 for nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values (0 for nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Quantile estimates the q-quantile (0 < q < 1) from the bucket counts by
// linear interpolation inside the bucket where the rank falls: the bucket's
// observations are assumed uniform between its lower and upper bound (the
// first bucket interpolates from 0). Observations in the +Inf overflow
// bucket cannot be interpolated, so ranks landing there return the highest
// finite bound — a deliberate underestimate that callers should read as
// "at least". Empty and nil histograms return 0.
//
// The bucket counts are read atomically but not as one snapshot, so a
// quantile taken concurrently with Observe calls is approximate in the same
// way any scrape is; it never panics or returns a value outside the bucket
// range.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil || len(h.bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// Walk the buckets once, accumulating; total comes from the walked
	// counts (not h.count) so rank and counts are mutually consistent.
	n := len(h.bounds)
	counts := make([]uint64, n+1)
	var total uint64
	for i := range counts {
		counts[i] = h.counts[i].Load()
		total += counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum float64
	for i := 0; i < n; i++ {
		c := float64(counts[i])
		if cum+c >= rank && c > 0 {
			lower := 0.0
			if i > 0 {
				lower = h.bounds[i-1]
			}
			return lower + (rank-cum)/c*(h.bounds[i]-lower)
		}
		cum += c
	}
	return h.bounds[n-1]
}

// Registry is a lock-cheap metric namespace: registration takes a mutex
// once per metric, after which every update is purely atomic. A nil
// *Registry is the disabled configuration — its getters return nil metric
// handles whose methods are no-ops, so instrumented code needs no
// enabled/disabled branches of its own.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
	order      []string // registration order, for deterministic export
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, registering it on first use. The same
// name always yields the same handle; help is recorded on first
// registration. Nil registries return nil (a no-op counter).
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{name: name, help: help}
	r.counters[name] = c
	r.order = append(r.order, name)
	return c
}

// Gauge returns the named gauge, registering it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g := &Gauge{name: name, help: help}
	r.gauges[name] = g
	r.order = append(r.order, name)
	return g
}

// Histogram returns the named histogram, registering it on first use with
// the given bucket upper bounds (nil means DefaultDurationBuckets). Bounds
// must be sorted ascending; they are fixed at registration.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.histograms[name]; ok {
		return h
	}
	if bounds == nil {
		bounds = DefaultDurationBuckets
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	h := &Histogram{name: name, help: help, bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
	r.histograms[name] = h
	r.order = append(r.order, name)
	return h
}

// snapshot returns the registered names in registration order plus lookup
// maps, under the lock; values are read atomically afterwards.
func (r *Registry) snapshot() (order []string, cs map[string]*Counter, gs map[string]*Gauge, hs map[string]*Histogram) {
	r.mu.Lock()
	defer r.mu.Unlock()
	order = append([]string(nil), r.order...)
	cs = make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		cs[k] = v
	}
	gs = make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gs[k] = v
	}
	hs = make(map[string]*Histogram, len(r.histograms))
	for k, v := range r.histograms {
		hs[k] = v
	}
	return order, cs, gs, hs
}

// fmtFloat renders a float the way the Prometheus text format expects.
func fmtFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every registered metric in the Prometheus text
// exposition format (version 0.0.4), in registration order.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	order, cs, gs, hs := r.snapshot()
	for _, name := range order {
		switch {
		case cs[name] != nil:
			c := cs[name]
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n",
				name, c.help, name, name, c.Value()); err != nil {
				return err
			}
		case gs[name] != nil:
			g := gs[name]
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n",
				name, g.help, name, name, fmtFloat(g.Value())); err != nil {
				return err
			}
		case hs[name] != nil:
			h := hs[name]
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, h.help, name); err != nil {
				return err
			}
			var cum uint64
			for i, b := range h.bounds {
				cum += h.counts[i].Load()
				if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, fmtFloat(b), cum); err != nil {
					return err
				}
			}
			cum += h.counts[len(h.bounds)].Load()
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %s\n%s_count %d\n",
				name, cum, name, fmtFloat(h.Sum()), name, h.Count()); err != nil {
				return err
			}
		}
	}
	return nil
}

// ExpvarMap returns the registry as a plain name→value map for expvar-style
// JSON export: counters and gauges as numbers, histograms as
// {count, sum, buckets}.
func (r *Registry) ExpvarMap() map[string]any {
	out := map[string]any{}
	if r == nil {
		return out
	}
	order, cs, gs, hs := r.snapshot()
	for _, name := range order {
		switch {
		case cs[name] != nil:
			out[name] = cs[name].Value()
		case gs[name] != nil:
			out[name] = gs[name].Value()
		case hs[name] != nil:
			h := hs[name]
			buckets := map[string]uint64{}
			var cum uint64
			for i, b := range h.bounds {
				cum += h.counts[i].Load()
				buckets[fmtFloat(b)] = cum
			}
			cum += h.counts[len(h.bounds)].Load()
			buckets["+Inf"] = cum
			out[name] = map[string]any{"count": h.Count(), "sum": h.Sum(), "buckets": buckets}
		}
	}
	return out
}
