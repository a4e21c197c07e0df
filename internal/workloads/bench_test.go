package workloads

import "testing"

// BenchmarkGenerate generates perfbench's five sim traces (scale 0.25,
// seed 1) per iteration, the work perfbench's setup_s times, and reports
// the cost per record.
func BenchmarkGenerate(b *testing.B) {
	names := []string{"list", "mcf", "graph500-list", "array", "suffixArray"}
	ws := make([]*Workload, len(names))
	for i, n := range names {
		w, err := ByName(n)
		if err != nil {
			b.Fatal(err)
		}
		ws[i] = w
	}
	b.ReportAllocs()
	records := 0
	for i := 0; i < b.N; i++ {
		for _, w := range ws {
			records += w.Generate(GenConfig{Scale: 0.25, Seed: 1}).Len()
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(records), "ns/record")
}
