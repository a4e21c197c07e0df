package cache

import (
	"testing"
	"testing/quick"

	"semloc/internal/memmodel"
)

// smallConfig is a tiny hierarchy for eviction-focused tests.
func smallConfig() Config {
	return Config{
		L1:          LevelConfig{Name: "L1D", Size: 1 << 10, Ways: 2, Latency: 2, MSHRs: 4},
		L2:          LevelConfig{Name: "L2", Size: 8 << 10, Ways: 4, Latency: 20, MSHRs: 20},
		DRAMLatency: 300,
	}
}

func TestDefaultConfigMatchesTable2(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	if cfg.L1.Size != 64<<10 || cfg.L1.Ways != 8 || cfg.L1.Latency != 2 || cfg.L1.MSHRs != 4 {
		t.Errorf("L1 config mismatch with Table 2: %+v", cfg.L1)
	}
	if cfg.L2.Size != 2<<20 || cfg.L2.Ways != 16 || cfg.L2.Latency != 20 || cfg.L2.MSHRs != 20 {
		t.Errorf("L2 config mismatch with Table 2: %+v", cfg.L2)
	}
	if cfg.DRAMLatency != 300 {
		t.Errorf("DRAM latency = %d, want 300", cfg.DRAMLatency)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{L1: LevelConfig{Name: "a", Size: 0, Ways: 1, MSHRs: 1}, L2: DefaultConfig().L2, DRAMLatency: 1},
		{L1: LevelConfig{Name: "a", Size: 100, Ways: 3, MSHRs: 1}, L2: DefaultConfig().L2, DRAMLatency: 1},
		{L1: DefaultConfig().L1, L2: LevelConfig{Name: "b", Size: 1 << 20, Ways: 16, MSHRs: 0}, DRAMLatency: 1},
		{L1: DefaultConfig().L1, L2: DefaultConfig().L2, DRAMLatency: 0},
		// 3*64*ways lines -> sets not power of two
		{L1: LevelConfig{Name: "a", Size: 3 * 64 * 2, Ways: 2, MSHRs: 1, Latency: 1}, L2: DefaultConfig().L2, DRAMLatency: 1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d: expected validation error", i)
		}
	}
	if _, err := New(bad[0]); err == nil {
		t.Error("New should propagate validation errors")
	}
}

func TestColdMissThenHit(t *testing.T) {
	h := MustNew(DefaultConfig())
	res := h.Access(0x1000, 0)
	if res.Outcome != OutcomeMemory {
		t.Fatalf("cold access outcome = %v, want memory", res.Outcome)
	}
	// 2 (L1) + 20 (L2) + 300 (DRAM)
	if res.Done != 322 {
		t.Errorf("cold miss Done = %d, want 322", res.Done)
	}
	res = h.Access(0x1000, res.Done)
	if res.Outcome != OutcomeL1Hit {
		t.Errorf("second access outcome = %v, want l1-hit", res.Outcome)
	}
	if res.Done != 322+2 {
		t.Errorf("hit Done = %d, want 324", res.Done)
	}
}

func TestSameLineSharesOutcome(t *testing.T) {
	h := MustNew(DefaultConfig())
	h.Access(0x1000, 0)
	// Another address in the same 64B line.
	res := h.Access(0x103f, 400)
	if res.Outcome != OutcomeL1Hit {
		t.Errorf("same-line access outcome = %v, want l1-hit", res.Outcome)
	}
	// Different line misses.
	res = h.Access(0x1040, 400)
	if res.Outcome != OutcomeMemory {
		t.Errorf("next-line access outcome = %v, want memory", res.Outcome)
	}
}

func TestInFlightMerge(t *testing.T) {
	h := MustNew(DefaultConfig())
	first := h.Access(0x1000, 0) // completes at 322
	res := h.Access(0x1000, 100)
	if res.Outcome != OutcomeL1InFlight {
		t.Fatalf("merge outcome = %v, want l1-inflight", res.Outcome)
	}
	if res.Done != first.Done {
		t.Errorf("merged access Done = %d, want %d", res.Done, first.Done)
	}
	l1, _ := h.Stats()
	if l1.InFlightHits != 1 {
		t.Errorf("InFlightHits = %d, want 1", l1.InFlightHits)
	}
}

func TestL2HitAfterL1Eviction(t *testing.T) {
	cfg := smallConfig()
	h := MustNew(cfg)
	// Fill L1 set 0 beyond capacity: lines mapping to set 0 differ by
	// sets*linesize strides. L1 has 8 sets (1kB/2way/64B).
	sets := cfg.L1.Sets()
	stride := memmodel.Addr(sets * memmodel.LineSize)
	now := Cycle(0)
	for i := 0; i < cfg.L1.Ways+1; i++ {
		res := h.Access(memmodel.Addr(i)*stride, now)
		now = res.Done + 1
	}
	// First line evicted from L1 but still in L2.
	res := h.Access(0, now)
	if res.Outcome != OutcomeL2Hit {
		t.Errorf("outcome = %v, want l2-hit", res.Outcome)
	}
	if res.Done != now+cfg.L1.Latency+cfg.L2.Latency {
		t.Errorf("L2 hit Done = %d, want %d", res.Done, now+22)
	}
}

// l1Contains reports whether the line holding addr is present or in
// flight in h's L1.
func l1Contains(h *Hierarchy, addr memmodel.Addr) bool {
	return h.l1.lookup(memmodel.LineOf(addr)) >= 0
}

func TestLRUReplacement(t *testing.T) {
	cfg := smallConfig()
	h := MustNew(cfg)
	sets := cfg.L1.Sets()
	stride := memmodel.Addr(sets * memmodel.LineSize)
	a, b, c := memmodel.Addr(0), stride, 2*stride
	now := Cycle(0)
	for _, addr := range []memmodel.Addr{a, b} {
		res := h.Access(addr, now)
		now = res.Done + 1
	}
	// Touch a again so b is LRU.
	res := h.Access(a, now)
	now = res.Done + 1
	// c evicts b.
	res = h.Access(c, now)
	now = res.Done + 1
	if !l1Contains(h, a) {
		t.Error("a should remain in L1 (recently used)")
	}
	if l1Contains(h, b) {
		t.Error("b should have been evicted (LRU)")
	}
	if !l1Contains(h, c) {
		t.Error("c should be resident")
	}
}

func TestPrefetchHitClassification(t *testing.T) {
	h := MustNew(DefaultConfig())
	if !h.Prefetch(0x2000, 0) {
		t.Fatal("prefetch rejected")
	}
	// Demand long after fill completes: full prefetch hit.
	res := h.Access(0x2000, 1000)
	if res.Outcome != OutcomeL1Hit || !res.PrefetchedLine {
		t.Errorf("late demand: outcome=%v prefetched=%v, want l1-hit/true", res.Outcome, res.PrefetchedLine)
	}
	// Second demand to the same line is a plain hit, not a prefetch hit.
	res = h.Access(0x2000, 2000)
	if res.PrefetchedLine {
		t.Error("second touch must not count as prefetched-line hit")
	}
}

func TestPrefetchShorterWait(t *testing.T) {
	h := MustNew(DefaultConfig())
	h.Prefetch(0x2000, 0) // fills at 322
	res := h.Access(0x2000, 100)
	if res.Outcome != OutcomeL1InFlight || !res.PrefetchedLine {
		t.Errorf("outcome=%v prefetched=%v, want l1-inflight/true", res.Outcome, res.PrefetchedLine)
	}
	if res.Done != 322 {
		t.Errorf("Done = %d, want 322 (wait shortened from 100+322)", res.Done)
	}
}

func TestPrefetchDuplicateDropped(t *testing.T) {
	h := MustNew(DefaultConfig())
	if !h.Prefetch(0x2000, 0) {
		t.Fatal("first prefetch rejected")
	}
	if h.Prefetch(0x2000, 1) {
		t.Error("duplicate prefetch should be dropped")
	}
	l1, _ := h.Stats()
	if l1.Prefetches != 1 || l1.PrefetchDrops != 1 {
		t.Errorf("prefetch stats = %+v", l1)
	}
}

func TestUselessPrefetchCounting(t *testing.T) {
	h := MustNew(smallConfig())
	h.Prefetch(0x0, 0)
	h.FinishStats()
	l1, _ := h.Stats()
	if l1.UselessEvicts != 1 {
		t.Errorf("UselessEvicts = %d, want 1 (never-touched prefetch)", l1.UselessEvicts)
	}
}

func TestUsefulPrefetchNotCountedUseless(t *testing.T) {
	h := MustNew(smallConfig())
	h.Prefetch(0x0, 0)
	h.Access(0x0, 500)
	h.FinishStats()
	l1, _ := h.Stats()
	if l1.UselessEvicts != 0 {
		t.Errorf("UselessEvicts = %d, want 0", l1.UselessEvicts)
	}
}

func TestMSHRLimitDelaysMisses(t *testing.T) {
	cfg := DefaultConfig()
	cfg.L1.MSHRs = 1
	h := MustNew(cfg)
	r1 := h.Access(0x10000, 0)
	r2 := h.Access(0x20000, 0) // must wait for the single MSHR
	if r2.Done <= r1.Done {
		t.Errorf("second miss (%d) should complete after first (%d) with 1 MSHR", r2.Done, r1.Done)
	}
}

func TestFreeMSHRs(t *testing.T) {
	cfg := DefaultConfig()
	h := MustNew(cfg)
	if free := h.l1.mshr.free(0); free != cfg.L1.MSHRs {
		t.Errorf("initial free MSHRs = %d, want %d", free, cfg.L1.MSHRs)
	}
	h.Access(0x10000, 0)
	if free := h.l1.mshr.free(1); free != cfg.L1.MSHRs-1 {
		t.Errorf("free MSHRs after one miss = %d, want %d", free, cfg.L1.MSHRs-1)
	}
	if free := h.l1.mshr.free(100000); free != cfg.L1.MSHRs {
		t.Errorf("free MSHRs after completion = %d, want %d", free, cfg.L1.MSHRs)
	}
}

func TestResetStatsPreservesContents(t *testing.T) {
	h := MustNew(DefaultConfig())
	h.Access(0x3000, 0)
	h.ResetStats()
	l1, l2 := h.Stats()
	if l1.Accesses != 0 || l2.Accesses != 0 {
		t.Error("stats not cleared")
	}
	if l1.Name != "L1D" || l2.Name != "L2" {
		t.Error("stats names lost on reset")
	}
	res := h.Access(0x3000, 1000)
	if res.Outcome != OutcomeL1Hit {
		t.Errorf("contents lost on reset: outcome = %v", res.Outcome)
	}
}

func TestOutcomeStrings(t *testing.T) {
	want := map[Outcome]string{
		OutcomeL1Hit: "l1-hit", OutcomeL1InFlight: "l1-inflight",
		OutcomeL2Hit: "l2-hit", OutcomeL2InFlight: "l2-inflight",
		OutcomeMemory: "memory", Outcome(99): "outcome(?)",
	}
	for o, s := range want {
		if o.String() != s {
			t.Errorf("%d.String() = %q, want %q", o, o.String(), s)
		}
	}
}

// Property: a demand access never completes before the L1 hit latency, and
// re-accessing the same address at a later time is always at least as fast.
func TestAccessLatencyProperties(t *testing.T) {
	h := MustNew(DefaultConfig())
	now := Cycle(0)
	f := func(raw uint32) bool {
		addr := memmodel.Addr(raw) & 0xffffff
		res := h.Access(addr, now)
		if res.Done < now+2 {
			return false
		}
		later := res.Done + 10
		res2 := h.Access(addr, later)
		if res2.Done != later+2 { // must now be an L1 hit
			return false
		}
		now = res2.Done
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: hierarchy statistics stay consistent — misses never exceed
// accesses at either level, and L2 accesses never exceed L1 misses.
func TestStatsConsistencyProperty(t *testing.T) {
	h := MustNew(smallConfig())
	rng := memmodel.NewRNG(3)
	now := Cycle(0)
	for i := 0; i < 5000; i++ {
		addr := memmodel.Addr(rng.Intn(1 << 16))
		if rng.Intn(4) == 0 {
			h.Prefetch(addr, now)
		} else {
			res := h.Access(addr, now)
			if res.Done > now {
				now = res.Done - Cycle(rng.Intn(100))
			}
		}
		now++
	}
	l1, l2 := h.Stats()
	if l1.Misses > l1.Accesses {
		t.Errorf("L1 misses %d > accesses %d", l1.Misses, l1.Accesses)
	}
	if l2.Misses > l2.Accesses {
		t.Errorf("L2 misses %d > accesses %d", l2.Misses, l2.Accesses)
	}
	if l2.Accesses > l1.Misses {
		t.Errorf("L2 accesses %d > L1 misses %d", l2.Accesses, l1.Misses)
	}
}

func TestStoreMarksDirtyAndWritesBack(t *testing.T) {
	cfg := smallConfig()
	h := MustNew(cfg)
	// Write a line, then evict it by filling the set.
	h.AccessWrite(0, 0)
	sets := cfg.L1.Sets()
	stride := memmodel.Addr(sets * memmodel.LineSize)
	now := Cycle(1000)
	for i := 1; i <= cfg.L1.Ways; i++ {
		res := h.Access(memmodel.Addr(i)*stride, now)
		now = res.Done + 1
	}
	l1, _ := h.Stats()
	if l1.Writebacks == 0 {
		t.Error("evicting a written line must count a write-back")
	}
}

func TestLoadsDoNotWriteBack(t *testing.T) {
	cfg := smallConfig()
	h := MustNew(cfg)
	sets := cfg.L1.Sets()
	stride := memmodel.Addr(sets * memmodel.LineSize)
	now := Cycle(0)
	for i := 0; i <= 2*cfg.L1.Ways; i++ {
		res := h.Access(memmodel.Addr(i)*stride, now)
		now = res.Done + 1
	}
	l1, l2 := h.Stats()
	if l1.Writebacks != 0 || l2.Writebacks != 0 {
		t.Errorf("clean evictions must not write back: l1=%d l2=%d", l1.Writebacks, l2.Writebacks)
	}
}

func TestL2WritebackOnDirtyEviction(t *testing.T) {
	// Thrash one L2 set with writes until dirty L2 lines are evicted.
	cfg := smallConfig()
	h := MustNew(cfg)
	l2sets := cfg.L2.Sets()
	stride := memmodel.Addr(l2sets * memmodel.LineSize)
	now := Cycle(0)
	for i := 0; i <= 3*cfg.L2.Ways; i++ {
		res := h.AccessWrite(memmodel.Addr(i)*stride, now)
		now = res.Done + 1
		// Evict from L1 quickly by touching other lines in the L1 set.
		res = h.Access(memmodel.Addr(i)*stride+64, now)
		now = res.Done + 1
	}
	_, l2 := h.Stats()
	if l2.Writebacks == 0 {
		t.Error("dirty L2 evictions must count write-backs")
	}
}

// TestResetMatchesFresh drives a mixed demand/prefetch sequence through a
// reset hierarchy and a freshly built one and requires bit-identical
// outcomes and statistics: the contract that lets the run-scratch pool
// (sim.RunPool) recycle hierarchies across simulation runs.
func TestResetMatchesFresh(t *testing.T) {
	cfg := smallConfig()
	drive := func(h *Hierarchy) ([]Result, LevelStats, LevelStats) {
		var out []Result
		now := Cycle(0)
		for i := 0; i < 64; i++ {
			addr := memmodel.Addr((i * 37) % 41 * memmodel.LineSize)
			var res Result
			switch i % 3 {
			case 0:
				res = h.Access(addr, now)
			case 1:
				res = h.AccessWrite(addr+8, now)
			default:
				h.Prefetch(addr+memmodel.Addr(memmodel.LineSize), now)
				res = h.Access(addr, now)
			}
			out = append(out, res)
			now = res.Done + 3
		}
		h.FinishStats()
		l1, l2 := h.Stats()
		return out, l1, l2
	}

	used := MustNew(cfg)
	drive(used) // dirty it thoroughly
	used.Reset()
	gotRes, gotL1, gotL2 := drive(used)
	wantRes, wantL1, wantL2 := drive(MustNew(cfg))

	for i := range wantRes {
		if gotRes[i] != wantRes[i] {
			t.Fatalf("access %d diverged after Reset: got %+v want %+v", i, gotRes[i], wantRes[i])
		}
	}
	if gotL1 != wantL1 || gotL2 != wantL2 {
		t.Errorf("stats diverged after Reset:\n got %+v / %+v\nwant %+v / %+v", gotL1, gotL2, wantL1, wantL2)
	}
}
