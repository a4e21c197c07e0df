package cpu

import (
	"testing"

	"semloc/internal/cache"
	"semloc/internal/memmodel"
	"semloc/internal/trace"
)

// fixedMem satisfies every access after a fixed latency, with no bandwidth
// limits — a pure latency model for isolating core behaviour.
type fixedMem struct{ lat cache.Cycle }

func (m fixedMem) Access(rec *trace.Record, now cache.Cycle) cache.Cycle {
	return now + m.lat
}

func run(t *testing.T, tr *trace.Trace, mem Memory, cfg Config) Result {
	t.Helper()
	res, err := Run(tr, mem, cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func TestComputeOnlyIPC(t *testing.T) {
	e := trace.NewEmitter("compute")
	e.Compute(4000)
	res := run(t, e.Finish(), fixedMem{0}, DefaultConfig())
	if res.Instructions != 4000 {
		t.Fatalf("Instructions = %d", res.Instructions)
	}
	// 4-wide: ~1000 cycles.
	if res.Cycles < 1000 || res.Cycles > 1010 {
		t.Errorf("Cycles = %d, want ~1000", res.Cycles)
	}
	if ipc := res.IPC(); ipc < 3.9 || ipc > 4.01 {
		t.Errorf("IPC = %v, want ~4", ipc)
	}
}

func TestIndependentLoadsOverlap(t *testing.T) {
	e := trace.NewEmitter("mlp")
	const n = 16
	for i := 0; i < n; i++ {
		e.Load(0x100, 0x1000+64*memAddr(i))
	}
	res := run(t, e.Finish(), fixedMem{300}, DefaultConfig())
	// Fully overlapped: ~300 cycles, far below serialized 16*300.
	if res.Cycles > 400 {
		t.Errorf("Cycles = %d; independent loads should overlap (<400)", res.Cycles)
	}
}

func TestDependentLoadsSerialize(t *testing.T) {
	e := trace.NewEmitter("chain")
	const n = 16
	prev := -1
	for i := 0; i < n; i++ {
		prev = e.LoadSpec(trace.MemSpec{PC: 0x100, Addr: 0x1000 + 64*memAddr(i), Dep: prev})
	}
	res := run(t, e.Finish(), fixedMem{300}, DefaultConfig())
	if res.Cycles < 16*300 {
		t.Errorf("Cycles = %d; dependent chain should serialize (>=4800)", res.Cycles)
	}
}

func TestLQBoundsOverlap(t *testing.T) {
	mk := func(lq int) uint64 {
		e := trace.NewEmitter("lq")
		for i := 0; i < 64; i++ {
			e.Load(0x100, 0x1000+64*memAddr(i))
		}
		cfg := DefaultConfig()
		cfg.LQ = lq
		res, err := Run(e.Finish(), fixedMem{300}, cfg)
		if err != nil {
			panic(err)
		}
		return res.Cycles
	}
	narrow, wide := mk(4), mk(64)
	if narrow <= wide {
		t.Errorf("LQ=4 cycles (%d) should exceed LQ=64 cycles (%d)", narrow, wide)
	}
}

func TestROBBoundsOverlap(t *testing.T) {
	mk := func(rob int) uint64 {
		e := trace.NewEmitter("rob")
		for i := 0; i < 32; i++ {
			e.Load(0x100, 0x1000+64*memAddr(i))
			e.Compute(100) // spread loads across the window
		}
		cfg := DefaultConfig()
		cfg.ROB = rob
		res, err := Run(e.Finish(), fixedMem{300}, cfg)
		if err != nil {
			panic(err)
		}
		return res.Cycles
	}
	small, large := mk(32), mk(1024)
	if small <= large {
		t.Errorf("ROB=32 cycles (%d) should exceed ROB=1024 cycles (%d)", small, large)
	}
}

func TestStoresDoNotBlockRetirement(t *testing.T) {
	e := trace.NewEmitter("stores")
	for i := 0; i < 16; i++ {
		e.Store(0x100, 0x1000+64*memAddr(i))
	}
	res := run(t, e.Finish(), fixedMem{300}, DefaultConfig())
	// Stores retire at dispatch+1; with 16 stores and SQ=32 no stall.
	if res.Cycles > 50 {
		t.Errorf("Cycles = %d; stores should not serialize retirement", res.Cycles)
	}
	if res.Stores != 16 {
		t.Errorf("Stores = %d", res.Stores)
	}
}

func TestStoreBufferFullStalls(t *testing.T) {
	mk := func(sq int) uint64 {
		e := trace.NewEmitter("sq")
		for i := 0; i < 128; i++ {
			e.Store(0x100, 0x1000+64*memAddr(i))
		}
		cfg := DefaultConfig()
		cfg.SQ = sq
		res, err := Run(e.Finish(), fixedMem{300}, cfg)
		if err != nil {
			panic(err)
		}
		return res.Cycles
	}
	narrow, wide := mk(2), mk(128)
	if narrow <= wide {
		t.Errorf("SQ=2 cycles (%d) should exceed SQ=128 cycles (%d)", narrow, wide)
	}
}

func TestBranchPredictorLearnsBias(t *testing.T) {
	mkTrace := func(pattern func(i int) bool) *trace.Trace {
		e := trace.NewEmitter("branches")
		for i := 0; i < 4000; i++ {
			e.Branch(0x200, pattern(i))
			e.Compute(3)
		}
		return e.Finish()
	}
	biased := run(t, mkTrace(func(int) bool { return true }), fixedMem{0}, DefaultConfig())
	rng := uint64(12345)
	random := run(t, mkTrace(func(int) bool {
		rng = rng*6364136223846793005 + 1442695040888963407
		return rng>>63 == 1
	}), fixedMem{0}, DefaultConfig())
	if biased.Mispredicts > biased.Branches/20 {
		t.Errorf("always-taken mispredicts = %d/%d, want few", biased.Mispredicts, biased.Branches)
	}
	if random.Mispredicts < random.Branches/4 {
		t.Errorf("random mispredicts = %d/%d, want many", random.Mispredicts, random.Branches)
	}
	if random.Cycles <= biased.Cycles {
		t.Errorf("random-branch cycles (%d) should exceed biased (%d)", random.Cycles, biased.Cycles)
	}
}

func TestMispredictPenaltyZeroDisables(t *testing.T) {
	e := trace.NewEmitter("nopred")
	for i := 0; i < 100; i++ {
		e.Branch(0x200, i%2 == 0)
	}
	cfg := DefaultConfig()
	cfg.MispredictPenalty = 0
	res := run(t, e.Finish(), fixedMem{0}, cfg)
	if res.Mispredicts != 0 {
		t.Errorf("Mispredicts = %d with penalty disabled", res.Mispredicts)
	}
}

func TestWarmupSubtraction(t *testing.T) {
	e := trace.NewEmitter("warm")
	e.Compute(4000)
	e.EndWarmup()
	e.Compute(8000)
	var warmCycle cache.Cycle
	cfg := DefaultConfig()
	cfg.OnWarmupEnd = func(now cache.Cycle) { warmCycle = now }
	res := run(t, e.Finish(), fixedMem{0}, cfg)
	if res.Instructions != 8000 {
		t.Errorf("post-warmup Instructions = %d, want 8000", res.Instructions)
	}
	if res.Cycles < 1990 || res.Cycles > 2020 {
		t.Errorf("post-warmup Cycles = %d, want ~2000", res.Cycles)
	}
	if warmCycle == 0 {
		t.Error("OnWarmupEnd not invoked")
	}
}

func TestSecondWarmupIgnored(t *testing.T) {
	e := trace.NewEmitter("warm2")
	e.Compute(100)
	e.EndWarmup()
	e.Compute(100)
	e.EndWarmup()
	e.Compute(100)
	calls := 0
	cfg := DefaultConfig()
	cfg.OnWarmupEnd = func(cache.Cycle) { calls++ }
	res := run(t, e.Finish(), fixedMem{0}, cfg)
	if calls != 1 {
		t.Errorf("OnWarmupEnd called %d times, want 1", calls)
	}
	if res.Instructions != 200 {
		t.Errorf("Instructions = %d, want 200", res.Instructions)
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{Width: 0, ROB: 1, LQ: 1, SQ: 1},
		{Width: 1, ROB: 0, LQ: 1, SQ: 1},
		{Width: 1, ROB: 1, LQ: 0, SQ: 1},
		{Width: 1, ROB: 1, LQ: 1, SQ: 0},
	}
	e := trace.NewEmitter("x")
	e.Compute(1)
	tr := e.Finish()
	for i, cfg := range bad {
		if _, err := Run(tr, fixedMem{0}, cfg); err == nil {
			t.Errorf("config %d: expected error", i)
		}
	}
}

func TestUnknownKindErrors(t *testing.T) {
	e := trace.NewEmitter("bad")
	e.Append(trace.Record{Kind: trace.Kind(88)})
	tr := e.Finish()
	if _, err := Run(tr, fixedMem{0}, DefaultConfig()); err == nil {
		t.Error("expected error for unknown record kind")
	}
}

func TestIPCandCPI(t *testing.T) {
	r := Result{Cycles: 100, Instructions: 200}
	if r.IPC() != 2 || r.CPI() != 0.5 {
		t.Errorf("IPC=%v CPI=%v", r.IPC(), r.CPI())
	}
	empty := Result{}
	if empty.IPC() != 0 || empty.CPI() != 0 {
		t.Error("empty Result should report zero rates")
	}
}

func TestMemLatencyDominatesSlowTrace(t *testing.T) {
	// Sanity: with a huge memory latency and a dependent chain, IPC tends
	// toward instructions/(n*latency).
	e := trace.NewEmitter("slow")
	prev := -1
	for i := 0; i < 10; i++ {
		prev = e.LoadSpec(trace.MemSpec{PC: 0x1, Addr: memAddr(i) * 64, Dep: prev})
		e.Compute(10)
	}
	res := run(t, e.Finish(), fixedMem{1000}, DefaultConfig())
	if res.Cycles < 10000 {
		t.Errorf("Cycles = %d, want >= 10000", res.Cycles)
	}
}

func memAddr(i int) memmodel.Addr { return memmodel.Addr(i) }
