package workloads

import (
	"runtime"
	"runtime/debug"
	"testing"

	"semloc/internal/trace"
)

// simWorkloads returns perfbench's five sim workloads.
func simWorkloads(b *testing.B) []*Workload {
	names := []string{"list", "mcf", "graph500-list", "array", "suffixArray"}
	ws := make([]*Workload, len(names))
	for i, n := range names {
		w, err := ByName(n)
		if err != nil {
			b.Fatal(err)
		}
		ws[i] = w
	}
	return ws
}

// BenchmarkGenerate generates perfbench's five sim traces (scale 0.25,
// seed 1) per iteration, the work perfbench's setup_s times, and reports
// the cost per record.
func BenchmarkGenerate(b *testing.B) {
	ws := simWorkloads(b)
	b.ReportAllocs()
	records := 0
	for i := 0; i < b.N; i++ {
		for _, w := range ws {
			records += w.Generate(GenConfig{Scale: 0.25, Seed: 1}).Len()
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(records), "ns/record")
}

// BenchmarkGenerateSetup times what perfbench's setup_s times: generating
// its five sim traces (scale 0.25, seed 1), one sub-benchmark per trace and
// "all" for the set, each iteration after a runtime.GC() with the collector
// paused, as perfbench's set-up runs them, so a regression names its
// generator. BenchmarkGenerate keeps the collector on, as the experiment
// engine, prefetchsim and tracegen generate.
func BenchmarkGenerateSetup(b *testing.B) {
	ws := simWorkloads(b)
	gen := func(b *testing.B, ws []*Workload) {
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			runtime.GC()
			b.StartTimer()
			for _, w := range ws {
				w.Generate(GenConfig{Scale: 0.25, Seed: 1})
			}
		}
	}
	for _, w := range ws {
		b.Run(w.Name, func(b *testing.B) { gen(b, []*Workload{w}) })
	}
	b.Run("all", func(b *testing.B) { gen(b, ws) })
}

// BenchmarkCursor walks perfbench's five sim traces (scale 0.25, seed 1)
// with a cursor per iteration, reading each record's PC and Addr, and
// reports the cost per record: the walk the CPU model pays on real
// traffic, where the trace package's BenchmarkCursor walks a synthetic
// trace.
func BenchmarkCursor(b *testing.B) {
	var trs []*trace.Trace
	records := 0
	for _, w := range simWorkloads(b) {
		tr := w.Generate(GenConfig{Scale: 0.25, Seed: 1})
		trs = append(trs, tr)
		records += tr.Len()
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sum uint64
	for i := 0; i < b.N; i++ {
		for _, tr := range trs {
			c := tr.Cursor()
			for c.Next() {
				r := c.Record()
				sum += r.PC ^ uint64(r.Addr)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*records), "ns/record")
	cursorSink = sum
}

var cursorSink uint64
