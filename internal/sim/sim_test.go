package sim

import (
	"fmt"
	"reflect"
	"testing"

	"semloc/internal/cache"
	"semloc/internal/core"
	"semloc/internal/memmodel"
	"semloc/internal/prefetch"
	"semloc/internal/trace"
	"semloc/internal/workloads"
)

func uint64AsAddr(i int) memmodel.Addr { return memmodel.Addr(i) }

func uint64AsLine(i int) memmodel.Line { return memmodel.Line(i) }

func genTrace(t *testing.T, name string, scale float64) *trace.Trace {
	t.Helper()
	w, err := workloads.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return w.Generate(workloads.GenConfig{Scale: scale, Seed: 1})
}

func TestRunBasics(t *testing.T) {
	tr := genTrace(t, "list", 0.05)
	res, err := Run(tr, prefetch.NewNone(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Workload != "list" || res.Prefetcher != "none" {
		t.Errorf("identity wrong: %s/%s", res.Workload, res.Prefetcher)
	}
	if res.CPU.Instructions == 0 || res.CPU.Cycles == 0 {
		t.Fatalf("no work simulated: %+v", res.CPU)
	}
	if res.IPC() <= 0 {
		t.Error("IPC must be positive")
	}
	if res.L1.Accesses == 0 {
		t.Error("no L1 accesses recorded")
	}
	if res.L1MPKI() <= 0 {
		t.Error("list workload must miss in L1")
	}
}

func TestCategoriesPartitionDemand(t *testing.T) {
	for _, pn := range []string{"none", "sms", "context"} {
		var pf prefetch.Prefetcher
		switch pn {
		case "none":
			pf = prefetch.NewNone()
		case "sms":
			pf = prefetch.NewSMS(prefetch.SMSConfig{})
		case "context":
			pf = core.MustNew(core.DefaultConfig())
		}
		tr := genTrace(t, "list", 0.05)
		res, err := Run(tr, pf, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		c := res.Categories
		sum := c.HitPrefetched + c.ShorterWait + c.NonTimely + c.MissNotPrefetched + c.HitOlderDemand
		if sum != c.Demand {
			t.Errorf("%s: categories sum to %d, demand %d", pn, sum, c.Demand)
		}
		if c.Demand == 0 {
			t.Errorf("%s: no demand accesses", pn)
		}
	}
}

func TestNonePrefetcherHasNoPrefetchCategories(t *testing.T) {
	tr := genTrace(t, "list", 0.05)
	res, err := Run(tr, prefetch.NewNone(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	c := res.Categories
	if c.HitPrefetched != 0 || c.ShorterWait != 0 || c.NonTimely != 0 || c.PrefetchNeverHit != 0 {
		t.Errorf("no-prefetch run has prefetch categories: %+v", c)
	}
	if res.HitDepths.Total() != 0 {
		t.Error("no-prefetch run recorded hit depths")
	}
}

func TestContextSpeedsUpLinkedList(t *testing.T) {
	tr := genTrace(t, "list", 0.1)
	base, err := Run(tr, prefetch.NewNone(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := Run(tr, core.MustNew(core.DefaultConfig()), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	speedup := ctx.IPC() / base.IPC()
	if speedup < 1.5 {
		t.Errorf("context speedup on list = %.2fx, want >= 1.5x", speedup)
	}
	if ctx.L1MPKI() >= base.L1MPKI() {
		t.Errorf("context must reduce L1 MPKI: %.1f vs %.1f", ctx.L1MPKI(), base.L1MPKI())
	}
	if ctx.Categories.HitPrefetched == 0 {
		t.Error("no prefetched-line hits recorded")
	}
}

func TestAllPrefetchersSpeedUpArray(t *testing.T) {
	tr := genTrace(t, "array", 0.1)
	base, err := Run(tr, prefetch.NewNone(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	pfs := []prefetch.Prefetcher{
		prefetch.NewStride(prefetch.StrideConfig{}),
		prefetch.NewGHB(prefetch.GHBConfig{Localization: prefetch.LocalizeGlobal}),
		prefetch.NewSMS(prefetch.SMSConfig{}),
		core.MustNew(core.DefaultConfig()),
	}
	for _, pf := range pfs {
		res, err := Run(tr, pf, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if s := res.IPC() / base.IPC(); s < 1.3 {
			t.Errorf("%s speedup on sequential array = %.2fx, want >= 1.3x", pf.Name(), s)
		}
	}
}

func TestContextHitDepthsInWindow(t *testing.T) {
	tr := genTrace(t, "list", 0.1)
	res, err := Run(tr, core.MustNew(core.DefaultConfig()), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.HitDepths.Total() == 0 {
		t.Fatal("no hit depths recorded")
	}
	rw := core.DefaultRewardConfig()
	frac := res.HitDepths.Fraction(rw.Low, rw.High)
	if frac < 0.4 {
		t.Errorf("fraction of hits inside reward window = %.2f, want >= 0.4 (Figure 8 step)", frac)
	}
}

func TestWarmupResetsStatistics(t *testing.T) {
	// A trace whose warm-up region is much larger than its measured region
	// must report the small measured region's instruction count.
	e := trace.NewEmitter("warmheavy")
	for i := 0; i < 10000; i++ {
		e.Load(0x100, 0x10000+64*uint64AsAddr(i))
	}
	e.EndWarmup()
	for i := 0; i < 100; i++ {
		e.Load(0x100, 0x10000+64*uint64AsAddr(i))
	}
	res, err := Run(e.Finish(), prefetch.NewNone(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.CPU.Instructions != 100 {
		t.Errorf("post-warmup instructions = %d, want 100", res.CPU.Instructions)
	}
	if res.L1.Accesses != 100 {
		t.Errorf("post-warmup L1 accesses = %d, want 100", res.L1.Accesses)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() *Result {
		tr := genTrace(t, "mcf", 0.05)
		res, err := Run(tr, core.MustNew(core.DefaultConfig()), DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.CPU != b.CPU {
		t.Errorf("CPU results differ: %+v vs %+v", a.CPU, b.CPU)
	}
	if a.Categories != b.Categories {
		t.Errorf("categories differ: %+v vs %+v", a.Categories, b.Categories)
	}
}

func TestPredictionLog(t *testing.T) {
	p := newPredictionLog(4)
	p.add(10, 100, true)
	p.add(11, 101, false)
	pred, issued, depth := p.consume(10, 130)
	if !pred || !issued || depth != 30 {
		t.Errorf("consume(10) = %v/%v/%d, want true/true/30", pred, issued, depth)
	}
	// Consumed entries cannot match again.
	if pred, _, _ := p.consume(10, 131); pred {
		t.Error("consumed entry matched twice")
	}
	// Unissued prediction reports issued=false.
	if _, issued, _ := p.consume(11, 120); issued {
		t.Error("shadow prediction reported as issued")
	}
	// Ring overwrite drops old entries.
	for i := 0; i < 8; i++ {
		p.add(20+uint64AsLine(i), uint64(200+i), true)
	}
	if pred, _, _ := p.consume(20, 300); pred {
		t.Error("overwritten entry should be gone")
	}
}

func TestRunWorkloadErrors(t *testing.T) {
	_, err := RunWorkload("x", func() (*trace.Trace, error) {
		return nil, errFake
	}, prefetch.NewNone(), DefaultConfig())
	if err == nil {
		t.Error("expected generator error to propagate")
	}
}

var errFake = &fakeError{}

type fakeError struct{}

func (*fakeError) Error() string { return "fake" }

func TestOracleBoundsContext(t *testing.T) {
	// The limit-study oracle with perfect knowledge must beat (or match)
	// the learned context prefetcher, and both must beat the baseline on
	// the flagship linked list.
	tr := genTrace(t, "list", 0.1)
	base, err := Run(tr, prefetch.NewNone(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := Run(tr, prefetch.NewOracle(tr, 0), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := Run(tr, core.MustNew(core.DefaultConfig()), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	so := oracle.IPC() / base.IPC()
	sc := ctx.IPC() / base.IPC()
	if so < 1.5 {
		t.Errorf("oracle speedup = %.2f, want substantial", so)
	}
	if sc > so*1.05 {
		t.Errorf("context (%.2f) should not exceed the oracle bound (%.2f)", sc, so)
	}
}

// TestGoldenDeterminism is the full-strength version of TestDeterminism:
// two runs of the same (workload, prefetcher, seed) must produce a
// byte-identical Result — every field, including the HitDepths histogram
// buckets and both cache levels, serialized and compared as bytes. This is
// the contract that lets hot-path rewrites be verified by before/after
// result comparison: any nondeterminism (map iteration, pointer hashing,
// time dependence) or reordering of policy feedback shows up here.
func TestGoldenDeterminism(t *testing.T) {
	dump := func(r *Result) string {
		return fmt.Sprintf("%+v|cpu=%+v|l1=%+v|l2=%+v|cats=%+v|hd=%d,%v",
			r.Workload+"/"+r.Prefetcher, r.CPU, r.L1, r.L2, r.Categories,
			r.HitDepths.Total(), r.HitDepths.CDF())
	}
	for _, wl := range []string{"list", "mcf"} {
		for _, mk := range []struct {
			name string
			pf   func() prefetch.Prefetcher
		}{
			{"none", func() prefetch.Prefetcher { return prefetch.NewNone() }},
			{"context", func() prefetch.Prefetcher { return core.MustNew(core.DefaultConfig()) }},
		} {
			tr := genTrace(t, wl, 0.05)
			run := func() *Result {
				res, err := Run(tr, mk.pf(), DefaultConfig())
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			a, b := run(), run()
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s/%s: results differ structurally", wl, mk.name)
			}
			da, db := dump(a), dump(b)
			if da != db {
				t.Errorf("%s/%s: serialized results differ:\n%s\n%s", wl, mk.name, da, db)
			}
		}
	}
}

// TestRunChainsCallerWarmupHook pins the warm-up hook contract the
// experiment engine's span tracing relies on: a caller-provided
// CPU.OnWarmupEnd must still fire (after the internal stat resets), and
// installing one must not change the simulation result.
func TestRunChainsCallerWarmupHook(t *testing.T) {
	tr := genTrace(t, "list", 0.05)
	base, err := Run(tr, prefetch.NewNone(), DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	calls := 0
	cfg.CPU.OnWarmupEnd = func(cache.Cycle) { calls++ }
	res, err := Run(tr, prefetch.NewNone(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("caller warm-up hook fired %d times, want 1", calls)
	}
	if !reflect.DeepEqual(base, res) {
		t.Error("installing a warm-up hook changed the simulation result")
	}
}
