//go:build !race

package core

import (
	"runtime"
	"testing"

	"semloc/internal/obs"
)

// maxGuardBytes bounds the bytes an alloc guard's runs may allocate in
// all. testing.AllocsPerRun rounds mallocs per run down, so a reused
// buffer that doubles without bound reads 0 allocs/op; its bytes do not.
const maxGuardBytes = 64 << 10

// allocsPerRun is testing.AllocsPerRun, plus the bytes allocated across
// the runs and AllocsPerRun's warm-up call: the runtime.MemStats.TotalAlloc
// delta.
func allocsPerRun(runs int, f func()) (allocs float64, bytes uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs = testing.AllocsPerRun(runs, f)
	runtime.ReadMemStats(&after)
	return allocs, after.TotalAlloc - before.TotalAlloc
}

// TestOnAccessZeroAllocTelemetryDisabled is the in-tree half of the
// overhead contract (DESIGN.md §11): with no collector attached, the
// instrumented OnAccess path must not allocate — under every exploration
// policy, not just ε-greedy (softmax once broke this with a per-decision
// weights slice; its weights now live in bandit scratch). The Makefile's
// overhead-guard target enforces the same invariant via the benchmark
// (plus a ns/op ceiling); this test makes `go test ./...` catch an
// allocation regression without running benchmarks. Race builds are
// excluded: the detector's instrumentation perturbs allocation counts.
// TestLearnerHealthSnapshotZeroAlloc extends the contract to the
// introspection layer (DESIGN.md §18): the health counters are plain
// integer field updates on paths OnAccess already executes, and taking a
// LearnerHealth(0) snapshot, the one without a delta ranking, is a value
// copy plus one table scan — neither may allocate, so a serving daemon can export per-session health on every
// stats frame without GC pressure. Both guards also bound the bytes their
// runs allocate in all (maxGuardBytes), so a reused buffer that grows
// without bound fails them.
func TestLearnerHealthSnapshotZeroAlloc(t *testing.T) {
	p := MustNew(DefaultConfig())
	iss := &benchIssuer{free: 4}
	stream := benchStream(4096)
	for i := range stream {
		p.OnAccess(&stream[i], iss)
	}
	var sink obs.LearnerHealth
	allocs, bytes := allocsPerRun(200, func() {
		sink = p.LearnerHealth(0)
	})
	if allocs != 0 || bytes > maxGuardBytes {
		t.Fatalf("LearnerHealth(0) allocates %.2f allocs/op and %d B in all, want 0 and at most %d B", allocs, bytes, maxGuardBytes)
	}
	if sink.Accesses == 0 {
		t.Fatal("snapshot empty after a warm stream")
	}
}

func TestOnAccessZeroAllocTelemetryDisabled(t *testing.T) {
	for _, kind := range []PolicyKind{PolicyEpsilonGreedy, PolicySoftmax, PolicyUCB} {
		t.Run(kind.String(), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Policy = kind
			p := MustNew(cfg)
			iss := &benchIssuer{free: 4}
			stream := benchStream(4096)
			for i := range stream {
				p.OnAccess(&stream[i], iss)
			}
			i := 0
			allocs, bytes := allocsPerRun(2000, func() {
				p.OnAccess(&stream[i%len(stream)], iss)
				i++
			})
			if allocs != 0 || bytes > maxGuardBytes {
				t.Fatalf("OnAccess (%v, telemetry disabled) allocates %.2f allocs/op and %d B in all, want 0 and at most %d B",
					kind, allocs, bytes, maxGuardBytes)
			}
		})
	}
}
