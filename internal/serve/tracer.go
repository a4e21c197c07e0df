package serve

import (
	"sync/atomic"
	"time"

	"semloc/internal/obs"
)

// TraceConfig enables serving-path latency instrumentation: per-frame
// stage histograms (decode, inbox queue-wait, learner decide, encode/
// write), sampled per-request spans in the Chrome-trace format `inspect
// spans` renders, and a threshold-gated slow-request log. A nil
// *TraceConfig in serve.Config is the disabled configuration and restores
// the uninstrumented hot path exactly: no clock reads, no allocations, no
// histogram updates (the package's nil-collector contract, DESIGN.md §11).
type TraceConfig struct {
	// Reg receives the serve_*_latency histograms (nil: the server's
	// Config.Reg).
	Reg *obs.Registry
	// Spans, when set, receives sampled per-request spans (category
	// "serve", phases decode/queue_wait/decide/write).
	Spans *obs.SpanRecorder
	// SampleEvery records one span per N fresh decisions (default 256;
	// only meaningful with Spans).
	SampleEvery int
	// SlowThreshold logs any request whose end-to-end latency (decode
	// through reply write) exceeds it, with the per-stage breakdown.
	// 0 disables the slow log.
	SlowThreshold time.Duration
	// Logf receives slow-request lines (nil: the server's Config.Logf).
	Logf func(format string, args ...any)
}

func (tc *TraceConfig) withDefaults(reg *obs.Registry, logf func(string, ...any)) TraceConfig {
	out := *tc
	if out.Reg == nil {
		out.Reg = reg
	}
	if out.SampleEvery <= 0 {
		out.SampleEvery = 256
	}
	if out.Logf == nil {
		out.Logf = logf
	}
	return out
}

// Latency histogram names. All are observed exactly once per fresh
// decision — never for replays, degraded fallbacks or busy bounces — so
// every serve_*_latency count equals serve_decisions_total, an invariant
// the loadgen smoke asserts. Values are seconds on the nanosecond-scale
// log-spaced grid of obs.DefaultLatencyBuckets.
const (
	MetricDecodeLatency    = "serve_decode_latency"
	MetricQueueWaitLatency = "serve_queue_wait_latency"
	MetricDecideLatency    = "serve_decide_latency"
	MetricWriteLatency     = "serve_write_latency"
	MetricFrameLatency     = "serve_frame_latency"
)

// MetricBatchSize is the histogram of fresh decisions per served frame:
// one observation of 1 per unbatched decision, one observation of F per
// batch frame that produced F fresh decisions. Its sum therefore equals
// serve_decisions_total (the batch-path count-match invariant), while its
// quantiles show how full client batches actually run.
const MetricBatchSize = "serve_batch_size"

// batchSizeBuckets grids 1..MaxBatch with enough resolution to tell
// "mostly full" from "mostly single".
var batchSizeBuckets = []float64{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64}

// tracer is the serving-path instrumentation a Server carries when
// Config.Trace is set. A nil *tracer is the disabled path: the per-frame
// code asks `s.trace != nil` once per stage and otherwise touches nothing.
type tracer struct {
	decode    *obs.Histogram
	queueWait *obs.Histogram
	decide    *obs.Histogram
	write     *obs.Histogram
	frame     *obs.Histogram
	batchSize *obs.Histogram

	spans       *obs.SpanRecorder
	sampleEvery uint64
	reqs        atomic.Uint64

	slow time.Duration
	logf func(format string, args ...any)
}

func newTracer(tc *TraceConfig, reg *obs.Registry, logf func(string, ...any)) *tracer {
	if tc == nil {
		return nil
	}
	c := tc.withDefaults(reg, logf)
	r := c.Reg
	return &tracer{
		decode:      r.Histogram(MetricDecodeLatency, "seconds parsing one access frame off the wire", obs.DefaultLatencyBuckets),
		queueWait:   r.Histogram(MetricQueueWaitLatency, "seconds an access waited in the session inbox before the worker picked it up", obs.DefaultLatencyBuckets),
		decide:      r.Histogram(MetricDecideLatency, "seconds inside the learner per fresh decision", obs.DefaultLatencyBuckets),
		write:       r.Histogram(MetricWriteLatency, "seconds encoding and writing one decision reply", obs.DefaultLatencyBuckets),
		frame:       r.Histogram(MetricFrameLatency, "end-to-end seconds from frame decode to reply written", obs.DefaultLatencyBuckets),
		batchSize:   r.Histogram(MetricBatchSize, "fresh decisions per served frame (sum equals serve_decisions_total)", batchSizeBuckets),
		spans:       c.Spans,
		sampleEvery: uint64(c.SampleEvery),
		slow:        c.SlowThreshold,
		logf:        c.Logf,
	}
}

// sample decides at frame arrival whether this request's span is recorded,
// and if so returns the span's start offset (decode start) on the span
// recorder's epoch. Nil-safe: a nil tracer (or one without a span
// recorder) never reads a clock.
func (t *tracer) sample(decodeDur time.Duration) (bool, time.Duration) {
	if t == nil || t.spans == nil {
		return false, 0
	}
	if t.reqs.Add(1)%t.sampleEvery != 0 {
		return false, 0
	}
	return true, t.spans.Now() - decodeDur
}

// frameTiming carries one request's stage boundaries from the session
// worker to observe.
type frameTiming struct {
	decode    time.Duration // DecodeFrame cost (measured on the reader)
	queueWait time.Duration // arrival → worker dequeue (incl. serialization)
	decide    time.Duration // learner step
	write     time.Duration // encode + reply write
}

func (ft frameTiming) total() time.Duration {
	return ft.decode + ft.queueWait + ft.decide + ft.write
}

// observe records one request of size accesses that produced fresh > 0
// new decisions. Per-decision attribution keeps the count-match
// invariant: each stage duration is split evenly over the fresh decisions
// and observed fresh times, so serve_*_latency counts advance by fresh
// (== the serve_decisions_total increment) and the histogram sums still
// add up to real elapsed stage time. The request gets one span (when
// sampled at arrival) and one slow-request check, sized by the whole
// frame.
func (t *tracer) observe(sessionID string, firstSeq uint64, size, fresh int, ft frameTiming, sampled bool, spanStart time.Duration, inboxLen int) {
	t.batchSize.Observe(float64(fresh))
	n := time.Duration(fresh)
	decode := (ft.decode / n).Seconds()
	queueWait := (ft.queueWait / n).Seconds()
	decide := (ft.decide / n).Seconds()
	write := (ft.write / n).Seconds()
	perFrame := (ft.total() / n).Seconds()
	for i := 0; i < fresh; i++ {
		t.decode.Observe(decode)
		t.queueWait.Observe(queueWait)
		t.decide.Observe(decide)
		t.write.Observe(write)
		t.frame.Observe(perFrame)
	}
	total := ft.total()

	if sampled {
		at := spanStart
		phases := make([]obs.Phase, 0, 4)
		for _, p := range []struct {
			name string
			dur  time.Duration
		}{
			{obs.PhaseDecode, ft.decode},
			{obs.PhaseQueueWait, ft.queueWait},
			{obs.PhaseDecide, ft.decide},
			{obs.PhaseWrite, ft.write},
		} {
			phases = append(phases, obs.Phase{Name: p.name, Start: at, Dur: p.dur})
			at += p.dur
		}
		t.spans.Add(obs.Span{
			Cat:      obs.CatServe,
			Workload: sessionID,
			Point:    int(firstSeq),
			Start:    spanStart,
			Dur:      total,
			Phases:   phases,
		})
	}

	if t.slow > 0 && total > t.slow {
		t.logf("serve: slow request session=%s seq=%d size=%d fresh=%d total=%s decode=%s queue_wait=%s decide=%s write=%s inbox_len=%d",
			sessionID, firstSeq, size, fresh, total, ft.decode, ft.queueWait, ft.decide, ft.write, inboxLen)
	}
}
