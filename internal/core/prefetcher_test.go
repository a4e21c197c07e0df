package core

import (
	"math"
	"testing"

	"semloc/internal/cache"
	"semloc/internal/memmodel"
	"semloc/internal/prefetch"
	"semloc/internal/trace"
)

// testIssuer records real and shadow prefetches.
type testIssuer struct {
	issued  map[memmodel.Line]int
	shadows int
	free    int
}

func newTestIssuer() *testIssuer {
	return &testIssuer{issued: make(map[memmodel.Line]int), free: 4}
}

func (t *testIssuer) Prefetch(addr memmodel.Addr, now cache.Cycle) bool {
	t.issued[memmodel.LineOf(addr)]++
	return true
}

func (t *testIssuer) Shadow(addr memmodel.Addr) { t.shadows++ }

func (t *testIssuer) FreePrefetchSlots(now cache.Cycle) int { return t.free }

func TestConfigDefaultsValid(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	// Table 2 storage budget: ~31 kB.
	sz := cfg.StorageBytes()
	if sz < 28<<10 || sz > 36<<10 {
		t.Errorf("StorageBytes = %d, want ~31kB", sz)
	}
}

func TestConfigValidation(t *testing.T) {
	mutate := []func(*Config){
		func(c *Config) { c.CSTEntries = 0 },
		func(c *Config) { c.CSTEntries = 1000 }, // not a power of two
		func(c *Config) { c.CSTLinks = 0 },
		func(c *Config) { c.CSTLinks = 9 },
		func(c *Config) { c.ReducerEntries = 3 },
		func(c *Config) { c.HistoryDepth = 0 },
		func(c *Config) { c.QueueDepth = 0 },
		func(c *Config) { c.SampleDepths = []int{100} },
		func(c *Config) { c.SampleDepths = nil },
		func(c *Config) { c.Epsilon = 1.5 },
		func(c *Config) { c.Epsilon = math.NaN() }, // fails every ordered comparison
		func(c *Config) { c.MaxDegree = 0 },
		func(c *Config) { c.BlockShift = 1 },
		func(c *Config) { c.Reward.Peak = 0 },
	}
	for i, m := range mutate {
		cfg := DefaultConfig()
		m(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("mutation %d should fail validation", i)
		}
	}
}

// chaseAccess builds the access stream of a repeating pointer chase over
// the given block sequence: fixed PC, pointer-typed hints, Value carrying
// the next node's address (so AttrLastValue identifies the node).
func chaseAccess(blocks []int64, i int) *prefetch.Access {
	cur := blocks[i%len(blocks)]
	next := blocks[(i+1)%len(blocks)]
	addr := memmodel.Addr(cur << 6)
	return &prefetch.Access{
		PC:       0x400680,
		Addr:     addr,
		Line:     memmodel.LineOf(addr),
		Index:    uint64(i),
		Now:      cache.Cycle(i * 30),
		MissedL1: true,
		Value:    uint64(next << 6),
		Hints:    trace.SWHints{Valid: true, TypeID: 3, LinkOffset: 8, RefForm: trace.RefArrow},
	}
}

func TestLearnsRecurringChase(t *testing.T) {
	// A cyclic "linked list" of 64 scattered blocks (deltas within ±127).
	rng := memmodel.NewRNG(17)
	base := int64(1 << 20)
	blocks := make([]int64, 64)
	cur := base
	for i := range blocks {
		blocks[i] = cur
		cur += int64(rng.Intn(200) - 100)
		if cur < base-120 {
			cur = base
		}
	}
	p := MustNew(DefaultConfig())
	iss := newTestIssuer()
	const rounds = 400
	for i := 0; i < rounds*len(blocks); i++ {
		p.OnAccess(chaseAccess(blocks, i), iss)
	}
	m := p.Metrics()
	if m.Accesses != rounds*64 {
		t.Fatalf("Accesses = %d", m.Accesses)
	}
	if m.Predictions == 0 || m.RealPrefetches == 0 {
		t.Fatalf("no predictions issued: %+v", m)
	}
	if m.QueueHits == 0 {
		t.Fatalf("no queue hits: the prefetcher learned nothing")
	}
	hitRate := float64(m.QueueHits) / float64(m.Predictions)
	if hitRate < 0.15 {
		t.Errorf("queue hit rate = %.3f, want >= 0.15 on a perfectly recurring chase", hitRate)
	}
	// The hit-depth distribution should put real mass inside the reward
	// window (Figure 8's step at ~18).
	inWindow := m.HitDepths.Fraction(DefaultRewardConfig().Low, DefaultRewardConfig().High)
	if inWindow < 0.3 {
		t.Errorf("fraction of hits inside reward window = %.3f, want >= 0.3", inWindow)
	}
	if p.Accuracy() <= 0.0 {
		t.Errorf("policy accuracy = %.3f, want positive", p.Accuracy())
	}
}

func TestAdaptationActivatesAttributes(t *testing.T) {
	// A single load site touching many distinct nodes overloads the
	// default (PC+hints) context and must trigger attribute activation.
	rng := memmodel.NewRNG(23)
	base := int64(1 << 20)
	blocks := make([]int64, 64)
	cur := base
	for i := range blocks {
		blocks[i] = cur
		cur += int64(rng.Intn(100) + 1)
	}
	p := MustNew(DefaultConfig())
	iss := newTestIssuer()
	for i := 0; i < 200*len(blocks); i++ {
		p.OnAccess(chaseAccess(blocks, i), iss)
	}
	if p.Metrics().Activations == 0 {
		t.Error("expected reducer attribute activations on an overloaded context")
	}
}

func TestRandomStreamStaysQuiet(t *testing.T) {
	// On a non-recurring random stream the prefetcher must not flood
	// memory: accuracy collapses and the degree throttles.
	p := MustNew(DefaultConfig())
	iss := newTestIssuer()
	rng := memmodel.NewRNG(29)
	for i := 0; i < 20000; i++ {
		addr := memmodel.Addr(rng.Uint64() & 0x3fffffff)
		a := &prefetch.Access{
			PC: 0x400, Addr: addr, Line: memmodel.LineOf(addr),
			Index: uint64(i), MissedL1: true,
		}
		p.OnAccess(a, iss)
	}
	m := p.Metrics()
	real := float64(m.RealPrefetches)
	if real/float64(m.Accesses) > 0.05 {
		t.Errorf("random stream provoked %.2f real prefetches per access, want ~0 (scores must stay below threshold)", real/float64(m.Accesses))
	}
}

func TestShadowOnLowMSHRs(t *testing.T) {
	p := MustNew(DefaultConfig())
	iss := newTestIssuer()
	iss.free = 0 // prefetch path fully stressed
	blocks := []int64{100, 130, 90, 160, 75, 140, 110, 95}
	for i := 0; i < 200*len(blocks); i++ {
		p.OnAccess(chaseAccess(blocks, i), iss)
	}
	m := p.Metrics()
	if m.RealPrefetches != 0 {
		t.Errorf("RealPrefetches = %d with zero free MSHRs, want 0", m.RealPrefetches)
	}
	if m.ShadowPrefetches == 0 {
		t.Error("expected shadow operations under MSHR pressure")
	}
}

func TestDisableShadowCripplesLearning(t *testing.T) {
	// Without shadow operations nothing can earn the first positive
	// reward, so the score threshold is never crossed: the ablation shows
	// shadow prefetches are what bootstrap learning (§4.1).
	run := func(disable bool) (real, preds uint64) {
		cfg := DefaultConfig()
		cfg.DisableShadow = disable
		cfg.MSHRReserve = 0
		p := MustNew(cfg)
		iss := newTestIssuer()
		blocks := []int64{100, 130, 90, 160, 75, 140, 110, 95}
		for i := 0; i < 200*len(blocks); i++ {
			p.OnAccess(chaseAccess(blocks, i), iss)
		}
		m := p.Metrics()
		return m.RealPrefetches, m.Predictions
	}
	realOn, _ := run(false)
	realOff, predsOff := run(true)
	if realOn == 0 {
		t.Fatal("shadow-enabled run issued no real prefetches")
	}
	if realOff >= realOn/2 {
		t.Errorf("disabling shadows should cripple real prefetching: %d vs %d", realOff, realOn)
	}
	_ = predsOff
}

func TestResetMetrics(t *testing.T) {
	p := MustNew(DefaultConfig())
	iss := newTestIssuer()
	blocks := []int64{10, 40, 25, 60}
	for i := 0; i < 100; i++ {
		p.OnAccess(chaseAccess(blocks, i), iss)
	}
	if p.Metrics().Accesses == 0 {
		t.Fatal("no accesses recorded")
	}
	p.ResetMetrics()
	m := p.Metrics()
	if m.Accesses != 0 || m.Predictions != 0 || m.HitDepths.Total() != 0 {
		t.Errorf("metrics not reset: %+v", m)
	}
}

func TestBlockGranularity(t *testing.T) {
	// With a 256 B block, predictions land on 256 B-aligned addresses.
	cfg := DefaultConfig()
	cfg.BlockShift = 8
	p := MustNew(cfg)
	iss := newTestIssuer()
	blocks := []int64{100, 130, 90, 160, 75, 140, 110, 95}
	for i := 0; i < 200*len(blocks); i++ {
		cur := blocks[i%len(blocks)]
		next := blocks[(i+1)%len(blocks)]
		addr := memmodel.Addr(cur << 8)
		p.OnAccess(&prefetch.Access{
			PC: 0x400, Addr: addr, Line: memmodel.LineOf(addr),
			Index: uint64(i), MissedL1: true, Value: uint64(next << 8),
		}, iss)
	}
	for line := range iss.issued {
		if uint64(line.Base())%256 != 0 {
			t.Fatalf("prefetch %v not 256B-aligned", line.Base())
		}
	}
}

func TestNameAndInterfaces(t *testing.T) {
	p := MustNew(DefaultConfig())
	if p.Name() != "context" {
		t.Errorf("Name = %q", p.Name())
	}
	var _ prefetch.Prefetcher = p
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew with invalid config should panic")
		}
	}()
	MustNew(Config{})
}
