package serve

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"semloc/internal/obs"
)

// logSink captures Logf lines concurrently (the session worker logs slow
// requests from its own goroutine).
type logSink struct {
	mu    sync.Mutex
	lines []string
}

func (ls *logSink) logf(format string, args ...any) {
	ls.mu.Lock()
	ls.lines = append(ls.lines, fmt.Sprintf(format, args...))
	ls.mu.Unlock()
}

func (ls *logSink) all() []string {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	return append([]string(nil), ls.lines...)
}

// TestServerTracingEndToEnd drives an instrumented daemon through fresh
// decisions, a replay and a stats exchange, and checks the whole tracing
// surface: the five serve_*_latency histograms (whose counts must equal
// serve_decisions_total exactly — replays and duplicates never observe),
// sampled CatServe spans with the four-stage phase breakdown, the slow-
// request log, and the per-session stats in both the stats frame and
// SessionStatsAll.
func TestServerTracingEndToEnd(t *testing.T) {
	reg := obs.NewRegistry()
	spans := obs.NewSpanRecorder()
	var sink logSink
	s := startServer(t, Config{
		Reg: reg,
		Trace: &TraceConfig{
			Spans:         spans,
			SampleEvery:   4,
			SlowThreshold: time.Nanosecond, // everything is "slow"
			Logf:          sink.logf,
		},
	})
	tc := dialServer(t, s)
	tc.hello("traced")

	const n = 64
	for i := uint64(1); i <= n; i++ {
		if got := tc.access(i, accessAddr(i)); got.Type != FrameDecision || got.Seq != i {
			t.Fatalf("seq %d: %+v", i, got)
		}
	}
	// A duplicate replay and a garbage frame: neither may observe latency.
	if dup := tc.access(n, accessAddr(n)); !dup.Replayed {
		t.Fatalf("duplicate not replayed: %+v", dup)
	}

	if got := s.decisionsTotal.Value(); got != n {
		t.Fatalf("decisions_total %d, want %d", got, n)
	}
	for _, name := range []string{
		MetricDecodeLatency, MetricQueueWaitLatency, MetricDecideLatency,
		MetricWriteLatency, MetricFrameLatency,
	} {
		h := reg.Histogram(name, "", obs.DefaultLatencyBuckets)
		if got := h.Count(); got != n {
			t.Fatalf("%s count %d, want %d (must equal serve_decisions_total)", name, got, n)
		}
	}

	// Sampled spans: every 4th fresh decision, category serve, with the
	// four consecutive stage phases covering the span exactly.
	got := spans.Spans()
	if len(got) != n/4 {
		t.Fatalf("%d spans recorded, want %d", len(got), n/4)
	}
	wantPhases := []string{obs.PhaseDecode, obs.PhaseQueueWait, obs.PhaseDecide, obs.PhaseWrite}
	for _, sp := range got {
		if sp.Cat != obs.CatServe || sp.Workload != "traced" {
			t.Fatalf("span %+v: want cat %q session traced", sp, obs.CatServe)
		}
		if sp.Point%4 != 0 {
			t.Fatalf("span for seq %d: sampling should pick every 4th", sp.Point)
		}
		if len(sp.Phases) != 4 {
			t.Fatalf("span seq %d has %d phases", sp.Point, len(sp.Phases))
		}
		at := sp.Start
		var sum time.Duration
		for i, p := range sp.Phases {
			if p.Name != wantPhases[i] {
				t.Fatalf("span seq %d phase %d: %q, want %q", sp.Point, i, p.Name, wantPhases[i])
			}
			if p.Start != at {
				t.Fatalf("span seq %d phase %q starts at %v, want contiguous %v", sp.Point, p.Name, p.Start, at)
			}
			at += p.Dur
			sum += p.Dur
		}
		if sum != sp.Dur {
			t.Fatalf("span seq %d: phases sum to %v, span dur %v", sp.Point, sum, sp.Dur)
		}
	}

	// Slow log: threshold 1ns means every fresh decision logged a line with
	// the stage breakdown.
	lines := sink.all()
	if len(lines) != n {
		t.Fatalf("%d slow lines, want %d", len(lines), n)
	}
	for _, want := range []string{"slow request", "session=traced", "decode=", "queue_wait=", "decide=", "write=", "inbox_len="} {
		if !strings.Contains(lines[0], want) {
			t.Fatalf("slow line %q missing %q", lines[0], want)
		}
	}

	// Stats frame: request carries no payload, reply carries the session's
	// counters.
	tc.send(&Frame{Type: FrameStats})
	st := tc.recv()
	if st.Type != FrameStats || st.Stats == nil {
		t.Fatalf("stats reply: %+v", st)
	}
	if st.Stats.ID != "traced" || st.Stats.Decisions != n || st.Stats.Replayed != 1 ||
		st.Stats.LastSeq != n || !st.Stats.Attached {
		t.Fatalf("session stats %+v", st.Stats)
	}

	// The debug aggregation view agrees.
	all := s.SessionStatsAll()
	if len(all) != 1 || all[0].Decisions != n || all[0].ID != "traced" {
		t.Fatalf("SessionStatsAll: %+v", all)
	}
}

// TestServerStatsBeforeHello: a stats frame outside a session is a
// protocol error, like any other pre-handshake traffic.
func TestServerStatsBeforeHello(t *testing.T) {
	s := startServer(t, Config{})
	tc := dialServer(t, s)
	tc.send(&Frame{Type: FrameStats})
	if got := tc.recv(); got.Type != FrameError || got.Code != CodeProtocol {
		t.Fatalf("stats before hello: %+v", got)
	}
}

// TestServerUninstrumentedRecordsNothing pins the disabled contract: with
// Config.Trace nil, serving registers no latency histograms and records no
// spans — the registry holds only the server's counters.
func TestServerUninstrumentedRecordsNothing(t *testing.T) {
	reg := obs.NewRegistry()
	s := startServer(t, Config{Reg: reg})
	tc := dialServer(t, s)
	tc.hello("plain")
	for i := uint64(1); i <= 16; i++ {
		tc.access(i, accessAddr(i))
	}
	if s.trace != nil {
		t.Fatal("tracer built despite nil TraceConfig")
	}
	m := reg.ExpvarMap()
	for _, name := range []string{
		MetricDecodeLatency, MetricQueueWaitLatency, MetricDecideLatency,
		MetricWriteLatency, MetricFrameLatency,
	} {
		if _, ok := m[name]; ok {
			t.Fatalf("%s registered on the uninstrumented path", name)
		}
	}
}

// TestTracerDisabledZeroAlloc is the alloc guard for the disabled serving
// hot path: every tracing seam the per-frame code touches when Config.Trace
// is nil — the nil-tracer sample call and the zero-valued inboxItem timing
// fields — must cost zero allocations. The enabled-but-unsampled steady
// state (histogram observes only, no span, no slow line) must also stay
// allocation-free, since that is the per-frame cost of an instrumented
// daemon. Each path's runs must also allocate at most maxGuardBytes in
// all.
func TestTracerDisabledZeroAlloc(t *testing.T) {
	var nilTr *tracer
	if n, b := allocsPerRun(500, func() {
		sampled, off := nilTr.sample(0)
		if sampled || off != 0 {
			t.Fatal("nil tracer sampled")
		}
		it := inboxItem{}
		_ = it
	}); n != 0 || b > maxGuardBytes {
		t.Fatalf("disabled tracing path allocates %.1f/op and %d B in all, want 0 and at most %d B", n, b, maxGuardBytes)
	}

	reg := obs.NewRegistry()
	tr := newTracer(&TraceConfig{
		Spans:       obs.NewSpanRecorder(),
		SampleEvery: 1 << 30, // never sample within the run
	}, reg, func(string, ...any) {})
	ft := frameTiming{decode: 100, queueWait: 200, decide: 300, write: 400}
	if n, b := allocsPerRun(500, func() {
		sampled, off := tr.sample(time.Microsecond)
		tr.observe("s", 1, 1, 1, ft, sampled, off, 0)
	}); n != 0 || b > maxGuardBytes {
		t.Fatalf("enabled unsampled observe allocates %.1f/op and %d B in all, want 0 and at most %d B", n, b, maxGuardBytes)
	}
}

// TestReplayRingExactBoundary pins the replay-window edge: with depth D and
// N > D decisions applied, seq N-D+1 (the oldest still cached) replays,
// while seq N-D (one past the ring edge) is stale.
func TestReplayRingExactBoundary(t *testing.T) {
	const depth, n = 8, 20
	s := startServer(t, Config{ReplayDepth: depth})
	tc := dialServer(t, s)
	tc.hello("edge")
	for i := uint64(1); i <= n; i++ {
		tc.access(i, accessAddr(i))
	}
	oldest := uint64(n - depth + 1) // 13: still in the ring
	if got := tc.access(oldest, accessAddr(oldest)); got.Type != FrameDecision || !got.Replayed {
		t.Fatalf("seq %d (ring edge): want replayed decision, got %+v", oldest, got)
	}
	evicted := oldest - 1 // 12: just evicted
	if got := tc.access(evicted, accessAddr(evicted)); got.Type != FrameError || got.Code != CodeStaleSeq {
		t.Fatalf("seq %d (past ring edge): want stale-seq, got %+v", evicted, got)
	}
	// The boundary probes didn't disturb the stream.
	if got := tc.access(n+1, accessAddr(n+1)); got.Type != FrameDecision || got.Seq != n+1 {
		t.Fatalf("stream desynced after boundary probes: %+v", got)
	}
}

// TestReplayRingUnit exercises the ring directly at its capacity edge:
// exactly depth entries all resolve; one more put evicts exactly the
// oldest.
func TestReplayRingUnit(t *testing.T) {
	var r replayRing
	r.init(4)
	for seq := uint64(1); seq <= 4; seq++ {
		r.putSpan([]ReplayEntry{{Seq: seq, Prefetch: []uint64{seq * 64}}})
	}
	for seq := uint64(1); seq <= 4; seq++ {
		e, ok := r.get(seq)
		if !ok || e.Prefetch[0] != seq*64 {
			t.Fatalf("seq %d missing from a full ring", seq)
		}
	}
	r.putSpan([]ReplayEntry{{Seq: 5}})
	if _, ok := r.get(1); ok {
		t.Fatal("oldest entry survived eviction at the ring edge")
	}
	for seq := uint64(2); seq <= 5; seq++ {
		if _, ok := r.get(seq); !ok {
			t.Fatalf("seq %d evicted early", seq)
		}
	}
	// Seq 0 never matches (the zero value marks an empty slot).
	if _, ok := r.get(0); ok {
		t.Fatal("ring matched the empty-slot sentinel")
	}
}
