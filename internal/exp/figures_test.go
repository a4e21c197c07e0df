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
	var buf bytes.Buffer
	if err := RunFig5(figRunner(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "reward (paper window 18-50)") {
		t.Errorf("missing paper-window series:\n%s", out)
	}
	// Both series appear with the expected row count (0..80 step 2 = 41).
	if got := strings.Count(out, "\n"); got < 41 {
		t.Errorf("too few rows: %d newlines", got)
	}
}

func TestFig8CDFsAreMonotone(t *testing.T) {
	r := figRunner()
	var buf bytes.Buffer
	if err := RunFig8(r, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "microbenchmarks") || !strings.Contains(out, "regular benchmarks") {
		t.Fatalf("missing plot sections:\n%s", out[:200])
	}
	// CDF property via the runner: every per-workload CDF is monotone.
	for _, wl := range fig8Micro {
		res, err := r.Result(wl, "context")
		if err != nil {
			t.Fatal(err)
		}
		cdf := res.HitDepths.CDF()
		for i := 1; i < len(cdf); i++ {
			if cdf[i] < cdf[i-1] {
				t.Fatalf("%s: CDF not monotone at %d", wl, i)
			}
		}
	}
}

func TestFig9FractionsBounded(t *testing.T) {
	r := figRunner()
	for _, wl := range []string{"list", "array"} {
		results, err := r.ResultsFor(wl, FigurePrefetchers)
		if err != nil {
			t.Fatal(err)
		}
		for pn, res := range results {
			c := res.Categories
			sum := c.HitPrefetched + c.ShorterWait + c.NonTimely + c.MissNotPrefetched + c.HitOlderDemand
			if sum != c.Demand {
				t.Errorf("%s/%s: categories %d != demand %d", wl, pn, sum, c.Demand)
			}
		}
	}
}

func TestFig10AndFig11Output(t *testing.T) {
	// Use a tiny scale: these touch every workload.
	opts := DefaultOptions()
	opts.Scale = 0.02
	r := NewRunner(opts)
	for _, fn := range []func(*Runner, *bytes.Buffer) error{
		func(r *Runner, b *bytes.Buffer) error { return RunFig10(r, b) },
		func(r *Runner, b *bytes.Buffer) error { return RunFig11(r, b) },
	} {
		var buf bytes.Buffer
		if err := fn(r, &buf); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(buf.String(), "AVERAGE (all)") {
			t.Errorf("missing average row:\n%s", buf.String())
		}
	}
}

func TestFig12Output(t *testing.T) {
	opts := DefaultOptions()
	opts.Scale = 0.02
	r := NewRunner(opts)
	var buf bytes.Buffer
	if err := RunFig12(r, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
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
	opts := DefaultOptions()
	opts.Scale = 0.02
	r := NewRunner(opts)
	var buf bytes.Buffer
	if err := RunFig13(r, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Count(out, "kB") < len(fig13Sizes) {
		t.Errorf("expected one row per CST size:\n%s", out)
	}
}

func TestFig14Output(t *testing.T) {
	opts := DefaultOptions()
	opts.Scale = 0.03
	r := NewRunner(opts)
	var buf bytes.Buffer
	if err := RunFig14(r, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
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
	r := NewRunner(opts)

	ctx, err := r.Speedup("list", "context")
	if err != nil {
		t.Fatal(err)
	}
	if ctx < 1.5 {
		t.Errorf("context speedup on list = %.2f, want >= 1.5", ctx)
	}
	for _, pn := range []string{"ghb-gdc", "ghb-pcdc"} {
		other, err := r.Speedup("list", pn)
		if err != nil {
			t.Fatal(err)
		}
		if ctx <= other {
			t.Errorf("context (%.2f) should beat %s (%.2f) on the linked list", ctx, pn, other)
		}
	}
	// MPKI reduction (Figures 10/11 headline).
	base, err := r.Result("list", "none")
	if err != nil {
		t.Fatal(err)
	}
	cres, err := r.Result("list", "context")
	if err != nil {
		t.Fatal(err)
	}
	if cres.L1MPKI() >= base.L1MPKI()/2 {
		t.Errorf("context should at least halve list L1 MPKI: %.1f vs %.1f", cres.L1MPKI(), base.L1MPKI())
	}
}

func TestLimitStudy(t *testing.T) {
	opts := DefaultOptions()
	opts.Scale = 0.05
	r := NewRunner(opts)
	var buf bytes.Buffer
	if err := RunLimit(r, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "average capture of the oracle's gain") {
		t.Fatalf("missing summary:\n%s", out)
	}
	// The oracle must dominate the baseline on the flagship list workload.
	so, err := r.Speedup("list", "oracle")
	if err != nil {
		t.Fatal(err)
	}
	if so < 1.2 {
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
