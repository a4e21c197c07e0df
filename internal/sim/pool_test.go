package sim

import (
	"reflect"
	"runtime"
	"testing"

	"semloc/internal/cache"
	"semloc/internal/core"
	"semloc/internal/memmodel"
	"semloc/internal/prefetch"
	"semloc/internal/trace"
)

// TestPooledRunsBitIdentical is the pooling correctness contract: a run on
// recycled scratch must produce a Result structurally identical to a run
// on fresh allocations, for both the trivial and the learning prefetcher.
func TestPooledRunsBitIdentical(t *testing.T) {
	pool := NewRunPool()
	for _, wl := range []string{"list", "mcf"} {
		tr := genTrace(t, wl, 0.05)
		for _, mk := range []struct {
			name string
			pf   func() prefetch.Prefetcher
		}{
			{"none", func() prefetch.Prefetcher { return prefetch.NewNone() }},
			{"context", func() prefetch.Prefetcher { return core.MustNew(core.DefaultConfig()) }},
		} {
			fresh := func() *Result {
				res, err := Run(tr, mk.pf(), DefaultConfig())
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			pooled := func() *Result {
				cfg := DefaultConfig()
				cfg.Pool = pool
				res, err := Run(tr, mk.pf(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			want := fresh()
			// Run the pooled variant repeatedly so later iterations execute
			// on scratch dirtied by earlier ones.
			for i := 0; i < 3; i++ {
				if got := pooled(); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s/%s: pooled run %d differs from fresh run", wl, mk.name, i)
				}
			}
		}
	}
}

// TestPoolRebuildsOnConfigChange ensures a pooled hierarchy built for one
// cache configuration is not reused for a different one.
func TestPoolRebuildsOnConfigChange(t *testing.T) {
	pool := NewRunPool()
	a := cache.DefaultConfig()
	b := cache.DefaultConfig()
	b.L1.Size = a.L1.Size / 2

	s, err := pool.get(a)
	if err != nil {
		t.Fatal(err)
	}
	hierA := s.hier
	pool.put(s)

	s, err = pool.get(b)
	if err != nil {
		t.Fatal(err)
	}
	if s.hier == hierA {
		t.Fatal("pool reused a hierarchy across differing cache configs")
	}
	if s.hier.Config() != b {
		t.Fatalf("rebuilt hierarchy has config %+v, want %+v", s.hier.Config(), b)
	}
	pool.put(s)

	// Invalid config surfaces the construction error, not a stale scratch.
	bad := cache.DefaultConfig()
	bad.L1.Ways = 0
	if _, err := pool.get(bad); err == nil {
		t.Fatal("invalid cache config accepted by pool.get")
	}
}

// TestNilPoolAllocatesFresh pins the disabled path: a nil pool must behave
// exactly like the pre-pooling code.
func TestNilPoolAllocatesFresh(t *testing.T) {
	var rp *RunPool
	s, err := rp.get(cache.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if s == nil || s.hier == nil || s.plog == nil {
		t.Fatal("nil pool returned incomplete scratch")
	}
	rp.put(s) // must not panic
}

// chainTrace builds an n-record pointer chase (load, compute, branch, each
// load depending on the one before) with dependency reach 3 at any length.
func chainTrace(n int) *trace.Trace {
	e := trace.NewEmitter("chain")
	prev := -1
	for e.Len() < n {
		prev = e.LoadSpec(&trace.MemSpec{PC: 0x400, Addr: memmodel.Addr(e.Len()%8192) * 64, Dep: prev})
		e.Compute(2)
		e.Branch(0x408, true)
	}
	return e.Finish()
}

// TestPooledRunHeapIndependentOfLength pins what a pooled run allocates:
// the recycled scratch survives garbage collections between runs, and the
// core model's state is sized by the trace's dependency reach, so a run
// allocates the same few KiB whatever the trace's length, under each
// prefetcher the simulator benchmark times: 6,224 B today. The 8 KiB
// bound fails a run whose trace cursor escapes to the heap again
// (12,688 B: the cursor is 6.5 KiB with its per-op state).
func TestPooledRunHeapIndependentOfLength(t *testing.T) {
	short, long := chainTrace(100_000), chainTrace(800_000)
	if short.DepReach() != long.DepReach() {
		t.Fatalf("reach %d vs %d: the traces must differ only in length", short.DepReach(), long.DepReach())
	}
	for _, mk := range []struct {
		name string
		pf   func() prefetch.Prefetcher
	}{
		{"none", func() prefetch.Prefetcher { return prefetch.NewNone() }},
		{"sms", func() prefetch.Prefetcher { return prefetch.NewSMS(prefetch.DefaultSMSConfig()) }},
		{"ghb-gdc", func() prefetch.Prefetcher { return prefetch.NewGHB(prefetch.DefaultGHBConfig(prefetch.LocalizeGlobal)) }},
		{"context", func() prefetch.Prefetcher { return core.MustNew(core.DefaultConfig()) }},
	} {
		t.Run(mk.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Pool = NewRunPool()
			run := func(tr *trace.Trace) uint64 {
				pf := mk.pf()
				// Two collections: a pool the collector clears keeps its
				// objects through at most one.
				runtime.GC()
				runtime.GC()
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				if _, err := Run(tr, pf, cfg); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&after)
				return after.TotalAlloc - before.TotalAlloc
			}
			// TotalAlloc also counts what the runtime allocates when it
			// starts an OS thread mid-run (~5.5 KiB, seen under -race). A
			// thread start lands in one run; an allocation per access would
			// show in all three, so the least of three measures the run.
			least := func(tr *trace.Trace) uint64 {
				return min(run(tr), run(tr), run(tr))
			}
			run(short) // fills the pool
			a, b := least(short), least(long)
			t.Logf("allocated %d B on %d records, %d B on %d", a, short.Len(), b, long.Len())
			if diff := max(a, b) - min(a, b); diff > 4<<10 {
				t.Errorf("runs allocated %d B on %d records and %d B on %d: the heap grows with trace length",
					a, short.Len(), b, long.Len())
			}
			for _, got := range []uint64{a, b} {
				if got > 8<<10 {
					t.Errorf("a pooled run allocated %d B, want under 8 KiB", got)
				}
			}
		})
	}
}
