package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// feed drives n accesses through the collector the way the sim adapter
// does: Due after each index increment, Record on boundaries, one final
// flush sample at run end if the last boundary missed it.
func feed(c *Collector, n uint64) {
	var h LearnerHealth
	var m MachineSnapshot
	for i := uint64(1); i <= n; i++ {
		h.Accesses = i
		h.Predictions = 2 * i
		h.QueueHits = i / 2
		m.Cycles = 3 * i
		m.Instructions = 4 * i
		m.L1Misses = i / 4
		if c.Due(i) {
			c.Record(i, m, h)
		}
	}
	if c.SamplingEnabled() && c.LastIndex() < n {
		c.Record(n, m, h)
	}
}

func TestNilCollectorIsSafe(t *testing.T) {
	var c *Collector
	if c.Due(1) || c.SamplingEnabled() || c.TraceDue() {
		t.Fatal("nil collector reported work due")
	}
	c.Record(1, MachineSnapshot{}, LearnerHealth{})
	c.Emit(&DecisionEvent{})
	c.NoteWarmupEnd(1)
	if c.Series() != nil {
		t.Fatal("nil collector exported a series")
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if c.Err() != nil {
		t.Fatal("nil collector reported an error")
	}
}

func TestDisabledConfigYieldsNilCollector(t *testing.T) {
	if c := NewCollector(Config{}); c != nil {
		t.Fatal("zero config should disable telemetry")
	}
	// A decision rate without a sink is still disabled.
	if c := NewCollector(Config{DecisionRate: 8}); c != nil {
		t.Fatal("decision rate without sink should disable telemetry")
	}
}

func TestIntervalOne(t *testing.T) {
	c := NewCollector(Config{Interval: 1, MaxSamples: 1 << 20})
	feed(c, 10)
	s := c.Series()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(s.Samples) != 10 {
		t.Fatalf("interval 1 over 10 accesses: %d samples, want 10", len(s.Samples))
	}
	// Every interval delta must be exactly one access.
	for i, sm := range s.Samples {
		if sm.Accesses != 1 {
			t.Fatalf("sample %d covers %d accesses, want 1", i, sm.Accesses)
		}
	}
}

func TestIntervalLongerThanRun(t *testing.T) {
	c := NewCollector(Config{Interval: 1 << 20})
	feed(c, 100)
	s := c.Series()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// No boundary was crossed; the end-of-run flush still records the
	// whole run as one sample.
	if len(s.Samples) != 1 {
		t.Fatalf("got %d samples, want 1 flush sample", len(s.Samples))
	}
	if got := s.Samples[0]; got.Index != 100 || got.Accesses != 100 {
		t.Fatalf("flush sample = %+v, want index/accesses 100", got)
	}
}

func TestIntervalDeltasAndRates(t *testing.T) {
	c := NewCollector(Config{Interval: 50})
	feed(c, 200)
	s := c.Series()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(s.Samples) != 4 {
		t.Fatalf("got %d samples, want 4", len(s.Samples))
	}
	for i, sm := range s.Samples {
		if sm.Accesses != 50 {
			t.Fatalf("sample %d: %d accesses, want 50", i, sm.Accesses)
		}
		if sm.Predictions != 100 {
			t.Fatalf("sample %d: %d predictions, want 100", i, sm.Predictions)
		}
		if sm.QueueHitRate < 0.49 || sm.QueueHitRate > 0.51 {
			t.Fatalf("sample %d: queue hit rate %v, want ~0.5", i, sm.QueueHitRate)
		}
		// Cumulative counters are monotone; feed uses 4 instr / 3 cycles.
		if sm.IPC < 1.3 || sm.IPC > 1.34 {
			t.Fatalf("sample %d: IPC %v, want ~4/3", i, sm.IPC)
		}
	}
}

func TestDecimationBoundsSeriesAndPreservesTotals(t *testing.T) {
	c := NewCollector(Config{Interval: 1, MaxSamples: 8})
	feed(c, 64)
	s := c.Series()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(s.Samples) > 8 {
		t.Fatalf("decimation failed to bound series: %d samples", len(s.Samples))
	}
	if s.Interval <= s.BaseInterval {
		t.Fatalf("effective interval %d did not grow past base %d", s.Interval, s.BaseInterval)
	}
	var accesses uint64
	for _, sm := range s.Samples {
		accesses += sm.Accesses
	}
	if accesses != 64 {
		t.Fatalf("decimation lost interval counts: %d accesses, want 64", accesses)
	}
	if last := s.Samples[len(s.Samples)-1]; last.Index != 64 {
		t.Fatalf("last sample index %d, want 64", last.Index)
	}
}

func TestWarmupResetClampsDeltas(t *testing.T) {
	c := NewCollector(Config{Interval: 10})
	h := LearnerHealth{Accesses: 10, QueueHits: 8}
	m := MachineSnapshot{Cycles: 100, Instructions: 100, L1Misses: 50}
	c.Record(10, m, h)
	// Warm-up reset: prefetcher metrics and cache stats restart at zero.
	c.NoteWarmupEnd(10)
	h = LearnerHealth{Accesses: 4, QueueHits: 1}
	m = MachineSnapshot{Cycles: 200, Instructions: 220, L1Misses: 3}
	c.Record(20, m, h)
	s := c.Series()
	if s.WarmupIndex != 10 {
		t.Fatalf("warmup index %d, want 10", s.WarmupIndex)
	}
	got := s.Samples[1]
	if got.Accesses != 4 || got.QueueHits != 1 || got.L1Misses != 3 {
		t.Fatalf("post-warmup deltas = %+v, want restart from zero", got)
	}
	// Machine progress is never reset: the interval still spans 100 cycles.
	if got.IntervalIPC < 1.19 || got.IntervalIPC > 1.21 {
		t.Fatalf("interval IPC %v, want 1.2", got.IntervalIPC)
	}
}

func TestSeriesValidateRejectsCorrupt(t *testing.T) {
	bad := []*Series{
		nil,
		{},
		{BaseInterval: 4, Interval: 4},
		{BaseInterval: 4, Interval: 6, Samples: []Sample{{Index: 4}}},
		{BaseInterval: 4, Interval: 4, Samples: []Sample{{Index: 8}, {Index: 4}}},
		{BaseInterval: 4, Interval: 4, Samples: []Sample{{Index: 4, Accesses: 4, QueueHitRate: -0.5}}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Fatalf("case %d: corrupt series validated", i)
		}
	}
	good := &Series{BaseInterval: 4, Interval: 8, Samples: []Sample{{Index: 8}, {Index: 16}}}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDecisionTraceSamplingAndRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	c := NewCollector(Config{DecisionRate: 4, DecisionSink: &buf})
	emitted := 0
	for i := 0; i < 10; i++ {
		if c.TraceDue() {
			c.Emit(&DecisionEvent{
				Kind: KindDecide, Index: uint64(i), Context: 77,
				Candidates: []CandidateScore{{Delta: 1, Score: 5}, {Delta: -3, Score: 2}},
				Delta:      1, Real: true,
			})
			emitted++
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	// 1-in-4 over 10 events, first always sampled: events 0, 4, 8.
	if emitted != 3 {
		t.Fatalf("emitted %d events, want 3", emitted)
	}
	evs, err := ReadDecisions(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 3 {
		t.Fatalf("read %d events, want 3", len(evs))
	}
	if evs[1].Index != 4 || evs[1].Delta != 1 || !evs[1].Real || len(evs[1].Candidates) != 2 {
		t.Fatalf("round-tripped event mismatch: %+v", evs[1])
	}
}

func TestDecisionSinkErrorSticks(t *testing.T) {
	c := NewCollector(Config{DecisionRate: 1, DecisionSink: failWriter{}})
	for i := 0; i < 3; i++ {
		if c.TraceDue() {
			// Force enough volume to defeat bufio buffering.
			c.Emit(&DecisionEvent{Kind: KindDecide, Candidates: make([]CandidateScore, 4096)})
		}
	}
	if err := c.Flush(); err == nil {
		t.Fatal("sink write error was swallowed")
	}
	if c.Err() == nil {
		t.Fatal("Err did not surface the sink failure")
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) {
	return 0, errWrite
}

var errWrite = &json.UnsupportedValueError{Str: "forced write failure"}

func TestReadDecisionsRejectsGarbage(t *testing.T) {
	_, err := ReadDecisions(strings.NewReader("{\"kind\":\"decide\"}\nnot json\n"))
	if err == nil {
		t.Fatal("garbage line parsed")
	}
}

func TestSeriesJSONRoundTrip(t *testing.T) {
	c := NewCollector(Config{Interval: 25})
	feed(c, 100)
	s := c.Series()
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Series
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(back.Samples) != len(s.Samples) || back.Interval != s.Interval {
		t.Fatalf("round trip changed series shape: %d/%d samples", len(back.Samples), len(s.Samples))
	}
}
