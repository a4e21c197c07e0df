package core

import (
	"bytes"
	"reflect"
	"testing"

	"semloc/internal/obs"
)

// benchTrained drives the benchmark stream through a fresh prefetcher so
// tests observe a populated table and live queue.
func benchTrained(t *testing.T, col *obs.Collector) *Prefetcher {
	t.Helper()
	p := MustNew(DefaultConfig())
	if col != nil {
		p.AttachTelemetry(col)
	}
	iss := &benchIssuer{free: 4}
	stream := benchStream(4096)
	for i := range stream {
		p.OnAccess(&stream[i], iss)
	}
	return p
}

// TestLearnerHealthMatchesMetrics pins the one snapshot to the counters
// it copies, and the ranking to the one scan: LearnerHealth(0) is
// LearnerHealth(8) without its TopDeltas.
func TestLearnerHealthMatchesMetrics(t *testing.T) {
	p := benchTrained(t, nil)
	h := p.LearnerHealth(8)
	m := p.Metrics()
	if h.Accesses != m.Accesses || h.Predictions != m.Predictions ||
		h.QueueHits != m.QueueHits || h.Expired != m.Expired ||
		h.RealPrefetches != m.RealPrefetches || h.ShadowPrefetches != m.ShadowPrefetches ||
		h.Activations != m.Activations || h.Deactivations != m.Deactivations ||
		h.OutcomeUseless != m.OutcomeUseless || h.CSTRejects != m.CSTRejects {
		t.Fatalf("snapshot counters diverge from Metrics: %+v vs %+v", h, m)
	}
	if h.Epsilon != p.Epsilon() || h.Accuracy != p.Accuracy() || h.CSTCapacity != DefaultConfig().CSTEntries {
		t.Fatalf("snapshot policy or capacity diverges: %+v", h)
	}
	if err := h.CheckOutcomes(); err != nil {
		t.Fatal(err)
	}
	if h.Accesses == 0 || h.CSTEntries == 0 || len(h.TopDeltas) == 0 {
		t.Fatal("trained prefetcher produced an empty snapshot")
	}
	bare := p.LearnerHealth(0)
	if bare.TopDeltas != nil {
		t.Fatalf("LearnerHealth(0) ranked %d deltas", len(bare.TopDeltas))
	}
	bare.TopDeltas = h.TopDeltas
	if !reflect.DeepEqual(bare, h) {
		t.Fatalf("LearnerHealth(0) differs from LearnerHealth(8) beyond TopDeltas:\n%+v\n%+v", bare, h)
	}
}

func TestDecisionTraceEmitsAllKinds(t *testing.T) {
	var buf bytes.Buffer
	col := obs.NewCollector(obs.Config{DecisionRate: 1, DecisionSink: &buf})
	benchTrained(t, col)
	if err := col.Flush(); err != nil {
		t.Fatal(err)
	}
	evs, err := obs.ReadDecisions(&buf)
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, ev := range evs {
		kinds[ev.Kind]++
		switch ev.Kind {
		case obs.KindDecide:
			if len(ev.Candidates) == 0 {
				t.Fatalf("decide event without candidates: %+v", ev)
			}
		case obs.KindReward:
			if ev.Depth < 0 {
				t.Fatalf("reward event with negative depth: %+v", ev)
			}
		case obs.KindExpire:
			if ev.Reward >= 0 {
				t.Fatalf("expire event without penalty: %+v", ev)
			}
		default:
			t.Fatalf("unknown event kind %q", ev.Kind)
		}
	}
	// The recurring chase trains, predicts and overflows the queue, so
	// every kind must appear at rate 1.
	for _, k := range []string{obs.KindDecide, obs.KindReward, obs.KindExpire} {
		if kinds[k] == 0 {
			t.Fatalf("no %q events traced (kinds: %v)", k, kinds)
		}
	}
}

// TestTelemetryDoesNotPerturbLearning runs the same stream with and
// without an attached collector and requires bit-identical learner
// snapshots, every counter and the CST's state alike: tracing samples off
// its own counter, never the policy RNG.
func TestTelemetryDoesNotPerturbLearning(t *testing.T) {
	plain := benchTrained(t, nil)
	var buf bytes.Buffer
	traced := benchTrained(t, obs.NewCollector(obs.Config{DecisionRate: 3, DecisionSink: &buf}))
	if hp, ht := plain.LearnerHealth(8), traced.LearnerHealth(8); !reflect.DeepEqual(hp, ht) {
		t.Fatalf("telemetry changed the learner:\n%+v\n%+v", hp, ht)
	}
}
