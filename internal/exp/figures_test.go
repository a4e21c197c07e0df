package exp

import (
	"bytes"
	"strings"
	"testing"
)

// figRunner uses a scale large enough for the figures to be meaningful but
// small enough for CI.
func figRunner() *Runner {
	opts := DefaultOptions()
	opts.Scale = 0.05
	return NewRunner(opts)
}

func TestFig5Output(t *testing.T) {
	out, _ := render(t, figRunner(), "fig5")
	if !strings.Contains(out, "reward (paper window 18-50)") {
		t.Errorf("missing paper-window series:\n%s", out)
	}
	// Both series appear with the expected row count (0..80 step 2 = 41).
	if got := strings.Count(out, "\n"); got < 41 {
		t.Errorf("too few rows: %d newlines", got)
	}
}

func TestFig8CDFsAreMonotone(t *testing.T) {
	out, cells := render(t, figRunner(), "fig8")
	if !strings.Contains(out, "microbenchmarks") || !strings.Contains(out, "regular benchmarks") {
		t.Fatalf("missing plot sections:\n%s", out[:200])
	}
	// CDF property on the cells: every microbenchmark's CDF is monotone.
	for _, c := range cells[:len(fig8Micro)] {
		cdf := c.Result.HitDepths.CDF()
		for i := 1; i < len(cdf); i++ {
			if cdf[i] < cdf[i-1] {
				t.Fatalf("%s: CDF not monotone at %d", c.Job.Workload, i)
			}
		}
	}
}

func TestFig9FractionsBounded(t *testing.T) {
	for _, jr := range runCells(t, figRunner(), crossJobs([]string{"list", "array"}, FigurePrefetchers)...) {
		c := jr.Result.Categories
		sum := c.HitPrefetched + c.ShorterWait + c.NonTimely + c.MissNotPrefetched + c.HitOlderDemand
		if sum != c.Demand {
			t.Errorf("%s/%s: categories %d != demand %d", jr.Job.Workload, jr.Job.Prefetcher, sum, c.Demand)
		}
	}
}

// TestFig10AndFig11Output renders both MPKI figures from one batch of
// their shared cells, at a tiny scale: they touch every workload.
func TestFig10AndFig11Output(t *testing.T) {
	fig10, err := ByID("fig10")
	if err != nil {
		t.Fatal(err)
	}
	fig11, err := ByID("fig11")
	if err != nil {
		t.Fatal(err)
	}
	r := tinyRunner()
	cells := runCells(t, r, fig10.Jobs()...)
	for _, e := range []Experiment{fig10, fig11} {
		var buf bytes.Buffer
		if err := e.Render(cells, r.Options(), &buf); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(buf.String(), "AVERAGE (all)") {
			t.Errorf("%s: missing average row:\n%s", e.ID, buf.String())
		}
	}
}

func TestFig12Output(t *testing.T) {
	out, _ := render(t, tinyRunner(), "fig12")
	for _, want := range []string{"AVERAGE (all)", "AVERAGE (SPEC2006)", "max speedup"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig12 output missing %q", want)
		}
	}
}

// TestGainVsBestWordsTheSign pins Fig. 12's closing sentence on both sides
// of the best competitor: a context average below it reads "below", never
// a negative gain called "better".
func TestGainVsBestWordsTheSign(t *testing.T) {
	for _, tc := range []struct {
		ctx, best float64
		want      string
	}{
		{1.763, 1.816, "average speedup gain vs best competitor (sms): 6% below"},
		{1.76, 1.68, "average speedup gain vs best competitor (sms): 12% above"},
	} {
		if got := gainVsBest("sms", tc.ctx, tc.best); got != tc.want {
			t.Errorf("gainVsBest(%v, %v) = %q, want %q", tc.ctx, tc.best, got, tc.want)
		}
	}
}

func TestFig13SweepShapes(t *testing.T) {
	out, _ := render(t, tinyRunner(), "fig13")
	if strings.Count(out, "kB") < len(fig13Sizes) {
		t.Errorf("expected one row per CST size:\n%s", out)
	}
}

func TestFig14Output(t *testing.T) {
	opts := DefaultOptions()
	opts.Scale = 0.03
	out, _ := render(t, NewRunner(opts), "fig14")
	if !strings.Contains(out, "SSCA2") || !strings.Contains(out, "Graph500") {
		t.Errorf("fig14 missing sections:\n%s", out)
	}
	if !strings.Contains(out, "best naive-implementation CPI") {
		t.Error("fig14 missing summary line")
	}
}

// TestIntegrationHeadlineShape asserts the paper's qualitative claims on a
// mid-scale run of the flagship workloads: the context prefetcher beats
// the spatio-temporal prefetchers on the linked list and reduces MPKI.
func TestIntegrationHeadlineShape(t *testing.T) {
	if testing.Short() {
		t.Skip("mid-scale integration run")
	}
	opts := DefaultOptions()
	opts.Scale = 0.2
	pfs := []string{"none", "context", "ghb-gdc", "ghb-pcdc"}
	cells := runCells(t, NewRunner(opts), crossJobs([]string{"list"}, pfs)...)
	base, cres := cells[0], cells[1]

	ctx := speedup(cres, base)
	if ctx < 1.5 {
		t.Errorf("context speedup on list = %.2f, want >= 1.5", ctx)
	}
	for i, pn := range pfs[2:] {
		if other := speedup(cells[2+i], base); ctx <= other {
			t.Errorf("context (%.2f) should beat %s (%.2f) on the linked list", ctx, pn, other)
		}
	}
	// MPKI reduction (Figures 10/11 headline).
	if cres.Result.L1MPKI() >= base.Result.L1MPKI()/2 {
		t.Errorf("context should at least halve list L1 MPKI: %.1f vs %.1f", cres.Result.L1MPKI(), base.Result.L1MPKI())
	}
}

func TestLimitStudy(t *testing.T) {
	out, cells := render(t, figRunner(), "limit")
	if !strings.Contains(out, "average capture of the oracle's gain") {
		t.Fatalf("missing summary:\n%s", out)
	}
	// The oracle must dominate the baseline on the flagship list workload,
	// the first row: its cells are none, then oracle.
	if cells[0].Job.Workload != "list" || cells[1].Job.Prefetcher != "oracle" {
		t.Fatalf("limit study's first cells are %s/%s and %s/%s, want list/none and list/oracle",
			cells[0].Job.Workload, cells[0].Job.Prefetcher, cells[1].Job.Workload, cells[1].Job.Prefetcher)
	}
	if so := speedup(cells[1], cells[0]); so < 1.2 {
		t.Errorf("oracle speedup on list = %.2f, want substantial", so)
	}
}

func TestCaptureMath(t *testing.T) {
	cases := []struct{ s, oracle, want float64 }{
		{2.0, 3.0, 0.5},
		{1.0, 3.0, 0.0},
		{0.9, 3.0, 0.0},
		{3.0, 3.0, 1.0},
		{4.0, 3.0, 1.5},
		{1.2, 1.0, 1.0},
		{0.8, 0.9, 0.0},
		{9.0, 2.0, 2.0},
	}
	for _, c := range cases {
		if got := capture(c.s, c.oracle); got != c.want {
			t.Errorf("capture(%v,%v) = %v, want %v", c.s, c.oracle, got, c.want)
		}
	}
}
