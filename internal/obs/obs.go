// Package obs is the simulation stack's telemetry layer: interval
// time-series sampling of the prefetcher's learning trajectory, a sampled
// per-decision event trace, and the metrics registry, span recorder,
// progress reporter and logger the run commands share. The HTTP endpoint
// and the pprof hooks are in the endpoint subpackage, so that obs, and
// with it core and sim, links no HTTP server.
//
// The paper's prefetcher is an online learner — coverage, accuracy and
// CST occupancy evolve over a run (the warm-up/convergence behaviour
// behind Figures 5 and 8) — but an end-of-run snapshot (LearnerHealth)
// cannot show *when* the bandit converges or why a delta was chosen. This
// package makes that visible without giving up the hot-path contract
// (DESIGN.md, "Hot path & benchmarking"):
//
//   - Disabled is free. A disabled configuration produces a nil
//     *Collector; every hook in core and sim guards with a single
//     branch-on-nil, so the instrumented hot path stays 0 allocs/op and
//     bit-identical to the uninstrumented one (the overhead-guard target
//     in the Makefile enforces this).
//   - Sampling is deterministic. Both the interval sampler and the 1-in-N
//     decision trace run off their own counters, never the policy RNG, so
//     enabling telemetry cannot perturb simulated behaviour.
//   - The series is bounded. When a run outgrows MaxSamples, adjacent
//     samples merge pairwise and the effective interval doubles, so a
//     billion-access run still exports a compact, full-history curve.
package obs

import (
	"fmt"
	"io"
)

// DefaultInterval is the sampling interval (in demand accesses) used when
// a Config enables sampling without choosing one.
const DefaultInterval = 4096

// DefaultMaxSamples bounds the series length before decimation kicks in.
const DefaultMaxSamples = 2048

// Config enables and parameterizes telemetry for one simulation run.
// The zero value disables everything.
type Config struct {
	// Interval snapshots the time series every Interval demand accesses;
	// 0 disables interval sampling.
	Interval uint64 `json:"interval,omitempty"`
	// MaxSamples bounds the series length: on overflow, adjacent samples
	// merge pairwise and the effective interval doubles. 0 means
	// DefaultMaxSamples.
	MaxSamples int `json:"max_samples,omitempty"`
	// DecisionRate traces one in DecisionRate prediction/reward events to
	// DecisionSink as JSONL; 0 disables decision tracing.
	DecisionRate uint64 `json:"decision_rate,omitempty"`
	// DecisionSink receives the JSONL decision-event stream. Decision
	// tracing is off when nil, whatever DecisionRate says.
	DecisionSink io.Writer `json:"-"`
	// Learner, when non-nil, receives each interval sample as live
	// learner-health gauges/counters (see LearnerMetrics), so a /metrics
	// endpoint carries the learning curve while the run executes. It only
	// fires at interval boundaries; nil keeps Record registry-free.
	Learner *LearnerMetrics `json:"-"`
}

// Enabled reports whether the configuration switches any telemetry on.
func (c Config) Enabled() bool {
	return c.Interval > 0 || (c.DecisionRate > 0 && c.DecisionSink != nil)
}

// DeltaCount pairs a link delta with its occurrence count across the CST.
type DeltaCount struct {
	Delta int8 `json:"delta"`
	Count int  `json:"count"`
}

// MachineSnapshot is the cumulative machine-side state (core model and
// cache hierarchy) read at each interval boundary.
type MachineSnapshot struct {
	// Cycles is the current simulated cycle.
	Cycles uint64
	// Instructions is the retired-instruction count (updated by the core
	// model at its periodic checkpoints, so it may lag by a few thousand
	// records).
	Instructions uint64
	// L1Misses and L2Misses are demand misses (reset at warm-up).
	L1Misses, L2Misses uint64
}

// LearnerSource is implemented by prefetchers with a learner whose
// snapshot the interval sampler records (core.Prefetcher does).
type LearnerSource interface {
	LearnerHealth(topDeltas int) LearnerHealth
}

// Attachable is implemented by prefetchers that accept a collector for
// decision tracing (core.Prefetcher does).
type Attachable interface {
	AttachTelemetry(*Collector)
}

// Sample is one interval snapshot. Cycles, Instructions, IPC and the
// learned-state gauges are point-in-time values; the remaining counters
// are deltas over the interval ending at Index.
type Sample struct {
	// Index is the demand-access index at the end of the interval.
	Index uint64 `json:"index"`
	// Cycles and Instructions are cumulative machine progress.
	Cycles       uint64 `json:"cycles"`
	Instructions uint64 `json:"instructions"`
	// IPC is cumulative (instructions/cycles so far); IntervalIPC covers
	// only this interval.
	IPC         float64 `json:"ipc"`
	IntervalIPC float64 `json:"interval_ipc"`
	// L1Misses/L2Misses are interval demand misses; L1MPKI/L2MPKI are the
	// interval rates per kilo-instruction.
	L1Misses uint64  `json:"l1_misses"`
	L2Misses uint64  `json:"l2_misses"`
	L1MPKI   float64 `json:"l1_mpki"`
	L2MPKI   float64 `json:"l2_mpki"`
	// Accesses..Deactivations are interval deltas of the prefetcher's
	// counters.
	Accesses      uint64 `json:"accesses"`
	QueueHits     uint64 `json:"queue_hits"`
	Predictions   uint64 `json:"predictions"`
	Real          uint64 `json:"real"`
	Shadow        uint64 `json:"shadow"`
	Expired       uint64 `json:"expired"`
	Activations   uint64 `json:"activations"`
	Deactivations uint64 `json:"deactivations"`
	// Learner-health interval deltas: outcome taxonomy, explore/exploit/
	// suppress decision split, reward-sign mix, and CST collection churn.
	Accurate        uint64 `json:"accurate"`
	Late            uint64 `json:"late"`
	Evicted         uint64 `json:"evicted"`
	Explores        uint64 `json:"explores"`
	Exploits        uint64 `json:"exploits"`
	Suppressed      uint64 `json:"suppressed"`
	PosRewards      uint64 `json:"pos_rewards"`
	NegRewards      uint64 `json:"neg_rewards"`
	ZeroRewards     uint64 `json:"zero_rewards"`
	CSTInsertions   uint64 `json:"cst_insertions"`
	CSTReplacements uint64 `json:"cst_replacements"`
	CSTRejects      uint64 `json:"cst_rejects"`
	// QueueHitRate is QueueHits/Accesses over the interval.
	QueueHitRate float64 `json:"queue_hit_rate"`
	// Accuracy/Epsilon and the CST gauges are point-in-time learner state;
	// Useless is the pending-issued population at the boundary.
	Accuracy          float64      `json:"accuracy"`
	Epsilon           float64      `json:"epsilon"`
	Useless           uint64       `json:"useless"`
	CSTEntries        int          `json:"cst_entries"`
	CSTLinks          int          `json:"cst_links"`
	CSTPositiveLinks  int          `json:"cst_positive_links"`
	CSTSaturatedLinks int          `json:"cst_saturated_links"`
	CSTMeanScore      float64      `json:"cst_mean_score"`
	TopDeltas         []DeltaCount `json:"top_deltas,omitempty"`
}

// Series is the exported time series of one run.
type Series struct {
	// BaseInterval is the configured interval; Interval is the effective
	// one after any decimation (always BaseInterval × 2^k).
	BaseInterval uint64 `json:"base_interval"`
	Interval     uint64 `json:"interval"`
	// WarmupIndex is the demand-access index at which statistics were
	// reset (0: no warm-up marker retired).
	WarmupIndex uint64 `json:"warmup_index,omitempty"`
	// Decisions counts decision-trace events written to the sink.
	Decisions uint64 `json:"decisions,omitempty"`
	// Samples is the curve, oldest first, strictly increasing Index.
	Samples []Sample `json:"samples"`
}

// Validate checks the structural invariants cmd/inspect relies on.
func (s *Series) Validate() error {
	if s == nil {
		return fmt.Errorf("obs: nil series")
	}
	if s.Interval == 0 || s.BaseInterval == 0 {
		return fmt.Errorf("obs: series has zero interval")
	}
	if s.Interval%s.BaseInterval != 0 {
		return fmt.Errorf("obs: effective interval %d not a multiple of base %d", s.Interval, s.BaseInterval)
	}
	if len(s.Samples) == 0 {
		return fmt.Errorf("obs: series has no samples")
	}
	var last uint64
	for i := range s.Samples {
		sm := &s.Samples[i]
		if i > 0 && sm.Index <= last {
			return fmt.Errorf("obs: sample %d index %d not after %d", i, sm.Index, last)
		}
		last = sm.Index
		// The rate may exceed 1: one demand access can consume several
		// queued predictions of the same block. Negative is impossible.
		if sm.QueueHitRate < 0 {
			return fmt.Errorf("obs: sample %d queue hit rate %v out of range", i, sm.QueueHitRate)
		}
	}
	return nil
}

// Collector gathers one run's telemetry. A nil *Collector is the disabled
// configuration: every method is nil-safe and the hot-path hooks reduce
// to one branch.
type Collector struct {
	cfg        Config
	interval   uint64
	maxSamples int
	series     Series
	prev       LearnerHealth
	prevMach   MachineSnapshot
	events     uint64
	sink       *decisionSink
}

// NewCollector builds a collector for cfg, or returns nil when cfg
// disables all telemetry (the branch-on-nil fast path).
func NewCollector(cfg Config) *Collector {
	if !cfg.Enabled() {
		return nil
	}
	max := cfg.MaxSamples
	if max <= 0 {
		max = DefaultMaxSamples
	}
	if max < 2 {
		max = 2 // pair-merge decimation needs room to halve
	}
	c := &Collector{
		cfg:        cfg,
		interval:   cfg.Interval,
		maxSamples: max,
		series:     Series{BaseInterval: cfg.Interval, Interval: cfg.Interval},
	}
	if cfg.DecisionRate > 0 && cfg.DecisionSink != nil {
		c.sink = newDecisionSink(cfg.DecisionSink)
	}
	return c
}

// SamplingEnabled reports whether interval sampling is on.
func (c *Collector) SamplingEnabled() bool { return c != nil && c.interval > 0 }

// Due reports whether the access index ending now closes an interval.
// Callers invoke it once per demand access after incrementing their index.
func (c *Collector) Due(index uint64) bool {
	return c != nil && c.interval > 0 && index > 0 && index%c.interval == 0
}

// LastIndex returns the index of the newest sample (0 when none).
func (c *Collector) LastIndex() uint64 {
	if c == nil || len(c.series.Samples) == 0 {
		return 0
	}
	return c.series.Samples[len(c.series.Samples)-1].Index
}

// delta differences cumulative counters across an interval, absorbing the
// warm-up reset (a counter that restarted reads as its new value).
func delta(cur, prev uint64) uint64 {
	if cur < prev {
		return cur
	}
	return cur - prev
}

// Record appends one sample at index from the cumulative machine and
// learner snapshots, decimating if the series is full.
func (c *Collector) Record(index uint64, m MachineSnapshot, h LearnerHealth) {
	if c == nil || c.interval == 0 {
		return
	}
	s := Sample{
		Index:         index,
		Cycles:        m.Cycles,
		Instructions:  m.Instructions,
		L1Misses:      delta(m.L1Misses, c.prevMach.L1Misses),
		L2Misses:      delta(m.L2Misses, c.prevMach.L2Misses),
		Accesses:      delta(h.Accesses, c.prev.Accesses),
		QueueHits:     delta(h.QueueHits, c.prev.QueueHits),
		Predictions:   delta(h.Predictions, c.prev.Predictions),
		Real:          delta(h.RealPrefetches, c.prev.RealPrefetches),
		Shadow:        delta(h.ShadowPrefetches, c.prev.ShadowPrefetches),
		Expired:       delta(h.Expired, c.prev.Expired),
		Activations:   delta(h.Activations, c.prev.Activations),
		Deactivations: delta(h.Deactivations, c.prev.Deactivations),

		Accurate:        delta(h.OutcomeAccurate, c.prev.OutcomeAccurate),
		Late:            delta(h.OutcomeLate, c.prev.OutcomeLate),
		Evicted:         delta(h.OutcomeEvicted, c.prev.OutcomeEvicted),
		Explores:        delta(h.Explores, c.prev.Explores),
		Exploits:        delta(h.Exploits, c.prev.Exploits),
		Suppressed:      delta(h.Suppressed, c.prev.Suppressed),
		PosRewards:      delta(h.PosRewards, c.prev.PosRewards),
		NegRewards:      delta(h.NegRewards, c.prev.NegRewards),
		ZeroRewards:     delta(h.ZeroRewards, c.prev.ZeroRewards),
		CSTInsertions:   delta(h.CSTInsertions, c.prev.CSTInsertions),
		CSTReplacements: delta(h.CSTReplacements, c.prev.CSTReplacements),
		CSTRejects:      delta(h.CSTRejects, c.prev.CSTRejects),

		Accuracy:          h.Accuracy,
		Epsilon:           h.Epsilon,
		Useless:           h.OutcomeUseless,
		CSTEntries:        h.CSTEntries,
		CSTLinks:          h.CSTLinks,
		CSTPositiveLinks:  h.PositiveLinks,
		CSTSaturatedLinks: h.SaturatedLinks,
		CSTMeanScore:      h.MeanScore,
		TopDeltas:         h.TopDeltas,
	}
	if m.Cycles > 0 {
		s.IPC = float64(m.Instructions) / float64(m.Cycles)
	}
	if dc := delta(m.Cycles, c.prevMach.Cycles); dc > 0 {
		s.IntervalIPC = float64(delta(m.Instructions, c.prevMach.Instructions)) / float64(dc)
	}
	if di := delta(m.Instructions, c.prevMach.Instructions); di > 0 {
		s.L1MPKI = float64(s.L1Misses) / float64(di) * 1000
		s.L2MPKI = float64(s.L2Misses) / float64(di) * 1000
	}
	if s.Accesses > 0 {
		s.QueueHitRate = float64(s.QueueHits) / float64(s.Accesses)
	}
	c.prev = h
	c.prevMach = m
	c.cfg.Learner.Update(&s)
	c.series.Samples = append(c.series.Samples, s)
	if len(c.series.Samples) > c.maxSamples {
		c.decimate()
	}
}

// decimate merges adjacent sample pairs and doubles the effective
// interval, keeping the full run history at half the resolution. Interval
// deltas sum; cumulative values and learner gauges take the later
// sample's; rates are recomputed over the merged span.
func (c *Collector) decimate() {
	in := c.series.Samples
	out := in[:0]
	var prev Sample // zero: run start
	for i := 0; i+1 < len(in); i += 2 {
		a, b := in[i], in[i+1]
		m := b
		m.L1Misses = a.L1Misses + b.L1Misses
		m.L2Misses = a.L2Misses + b.L2Misses
		m.Accesses = a.Accesses + b.Accesses
		m.QueueHits = a.QueueHits + b.QueueHits
		m.Predictions = a.Predictions + b.Predictions
		m.Real = a.Real + b.Real
		m.Shadow = a.Shadow + b.Shadow
		m.Expired = a.Expired + b.Expired
		m.Activations = a.Activations + b.Activations
		m.Deactivations = a.Deactivations + b.Deactivations
		m.Accurate = a.Accurate + b.Accurate
		m.Late = a.Late + b.Late
		m.Evicted = a.Evicted + b.Evicted
		m.Explores = a.Explores + b.Explores
		m.Exploits = a.Exploits + b.Exploits
		m.Suppressed = a.Suppressed + b.Suppressed
		m.PosRewards = a.PosRewards + b.PosRewards
		m.NegRewards = a.NegRewards + b.NegRewards
		m.ZeroRewards = a.ZeroRewards + b.ZeroRewards
		m.CSTInsertions = a.CSTInsertions + b.CSTInsertions
		m.CSTReplacements = a.CSTReplacements + b.CSTReplacements
		m.CSTRejects = a.CSTRejects + b.CSTRejects
		if dc := delta(b.Cycles, prev.Cycles); dc > 0 {
			m.IntervalIPC = float64(delta(b.Instructions, prev.Instructions)) / float64(dc)
		}
		if di := delta(b.Instructions, prev.Instructions); di > 0 {
			m.L1MPKI = float64(m.L1Misses) / float64(di) * 1000
			m.L2MPKI = float64(m.L2Misses) / float64(di) * 1000
		}
		if m.Accesses > 0 {
			m.QueueHitRate = float64(m.QueueHits) / float64(m.Accesses)
		} else {
			m.QueueHitRate = 0
		}
		out = append(out, m)
		prev = b
	}
	if len(in)%2 == 1 {
		// The trailing unpaired sample keeps its own (finer) interval; its
		// Index stays strictly increasing, which is all Validate demands.
		out = append(out, in[len(in)-1])
	}
	c.series.Samples = out
	c.interval *= 2
	c.series.Interval = c.interval
}

// NoteWarmupEnd marks the warm-up boundary: interval deltas restart so
// the post-reset counters do not read as negative progress.
func (c *Collector) NoteWarmupEnd(index uint64) {
	if c == nil {
		return
	}
	c.series.WarmupIndex = index
	c.prev = LearnerHealth{}
	c.prevMach.L1Misses = 0
	c.prevMach.L2Misses = 0
}

// Series exports the collected time series (nil when sampling was off).
func (c *Collector) Series() *Series {
	if c == nil || c.cfg.Interval == 0 {
		return nil
	}
	if c.sink != nil {
		c.series.Decisions = c.sink.written
	}
	return &c.series
}

// Err returns the first decision-sink write error, if any: telemetry loss
// must be loud, not silent.
func (c *Collector) Err() error {
	if c == nil || c.sink == nil {
		return nil
	}
	return c.sink.err
}
