package workloads

import (
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
