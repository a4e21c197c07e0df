package reuse

import (
	"testing"

	"semloc/internal/cache"
	"semloc/internal/memmodel"
	"semloc/internal/trace"
	"semloc/internal/workloads"
)

// loadsTrace builds a trace of 8-byte loads at the given line numbers.
func loadsTrace(lines ...int) *trace.Trace {
	e := trace.NewEmitter("t")
	for _, l := range lines {
		e.Load(0x100, memmodel.Addr(l*memmodel.LineSize))
	}
	return e.Finish()
}

func TestColdOnlyTrace(t *testing.T) {
	p := Analyze(loadsTrace(1, 2, 3, 4, 5), 64)
	if p.Cold != 5 || p.Accesses != 5 {
		t.Errorf("cold=%d accesses=%d, want 5/5", p.Cold, p.Accesses)
	}
	if p.Distances.Total() != 0 {
		t.Error("unique-line trace should have no finite distances")
	}
}

func TestSameLineZeroDistance(t *testing.T) {
	p := Analyze(loadsTrace(7, 7, 7, 7), 64)
	if p.Cold != 1 {
		t.Errorf("cold=%d, want 1", p.Cold)
	}
	if p.Distances.Count(0) != 3 {
		t.Errorf("distance-0 count = %d, want 3", p.Distances.Count(0))
	}
}

func TestCyclicDistances(t *testing.T) {
	// Cycle over n lines repeated: every non-cold access has distance n-1.
	const n = 10
	var seq []int
	for rep := 0; rep < 4; rep++ {
		for i := 0; i < n; i++ {
			seq = append(seq, i)
		}
	}
	p := Analyze(loadsTrace(seq...), 64)
	if p.Cold != n {
		t.Errorf("cold=%d, want %d", p.Cold, n)
	}
	if got := p.Distances.Count(n - 1); got != uint64(len(seq)-n) {
		t.Errorf("distance-%d count = %d, want %d", n-1, got, len(seq)-n)
	}
}

func TestInterleavedDistances(t *testing.T) {
	// a b a -> a's reuse distance is 1 (only b in between).
	p := Analyze(loadsTrace(1, 2, 1), 64)
	if p.Distances.Count(1) != 1 {
		t.Errorf("distance-1 count = %d, want 1", p.Distances.Count(1))
	}
	// a b b a -> still distance 1 (b is one distinct line).
	p = Analyze(loadsTrace(1, 2, 2, 1), 64)
	if p.Distances.Count(1) != 1 {
		t.Errorf("dedup: distance-1 count = %d, want 1", p.Distances.Count(1))
	}
}

func TestMissRatioMonotone(t *testing.T) {
	w, _ := workloads.ByName("list")
	tr := w.Generate(workloads.GenConfig{Scale: 0.05, Seed: 1})
	p := Analyze(tr, 1<<16)
	prev := 1.1
	for c := 1; c <= 1<<16; c *= 4 {
		mr := p.MissRatio(c)
		if mr > prev+1e-9 {
			t.Fatalf("miss ratio not monotone: %f at %d after %f", mr, c, prev)
		}
		if mr < 0 || mr > 1 {
			t.Fatalf("miss ratio out of range: %f", mr)
		}
		prev = mr
	}
}

// TestPredictsFullyAssociativeCache cross-validates the analyzer against
// the cache simulator: for a fully-associative LRU L1, the measured miss
// ratio must match the stack-distance prediction.
func TestPredictsFullyAssociativeCache(t *testing.T) {
	w, _ := workloads.ByName("listsort")
	tr := w.Generate(workloads.GenConfig{Scale: 0.3, Seed: 1})

	const capLines = 256 // 16 kB fully-associative L1
	cfg := cache.DefaultConfig()
	cfg.L1 = cache.LevelConfig{Name: "L1D", Size: capLines * memmodel.LineSize, Ways: capLines, Latency: 2, MSHRs: 4}
	h := cache.MustNew(cfg)
	var accesses, misses uint64
	now := cache.Cycle(0)
	c := tr.Cursor()
	for c.Next() {
		r := c.Record()
		if !r.IsMem() {
			continue
		}
		res := h.Access(r.Addr, now)
		accesses++
		if res.Outcome != cache.OutcomeL1Hit {
			misses++
		}
		now = res.Done
	}
	measured := float64(misses) / float64(accesses)

	p := Analyze(tr, 1<<16)
	predicted := p.MissRatio(capLines)
	diff := measured - predicted
	if diff < 0 {
		diff = -diff
	}
	if diff > 0.02 {
		t.Errorf("cache simulator disagrees with stack-distance prediction: measured %.4f vs predicted %.4f", measured, predicted)
	}
}

func TestWorkingSetLines(t *testing.T) {
	const n = 32
	var seq []int
	for rep := 0; rep < 8; rep++ {
		for i := 0; i < n; i++ {
			seq = append(seq, i)
		}
	}
	p := Analyze(loadsTrace(seq...), 1024)
	ws := p.WorkingSetLines(0.99)
	if ws != n-1 {
		t.Errorf("working set = %d lines, want %d", ws, n-1)
	}
}

func TestEmptyTrace(t *testing.T) {
	p := Analyze(&trace.Trace{Name: "empty"}, 16)
	if p.Accesses != 0 || p.MissRatio(4) != 0 {
		t.Errorf("empty trace should produce zero profile")
	}
}
