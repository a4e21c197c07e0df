package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(10)
	h.Add(3)
	h.Add(3)
	h.Add(7)
	if h.Total() != 3 {
		t.Errorf("Total = %d, want 3", h.Total())
	}
	if h.Count(3) != 2 {
		t.Errorf("Count(3) = %d, want 2", h.Count(3))
	}
	if h.Count(0) != 0 {
		t.Errorf("Count(0) = %d, want 0", h.Count(0))
	}
}

func TestHistogramClamping(t *testing.T) {
	h := NewHistogram(5)
	h.Add(-3)
	h.Add(100)
	if h.Count(0) != 1 {
		t.Errorf("negative value should clamp to 0")
	}
	if h.Count(5) != 1 {
		t.Errorf("overflow should clamp to max bucket")
	}
	if h.Count(-1) != 0 || h.Count(99) != 0 {
		t.Errorf("out-of-range Count should be 0")
	}
}

func TestHistogramCDFMonotone(t *testing.T) {
	f := func(vals []uint8) bool {
		h := NewHistogram(64)
		for _, v := range vals {
			h.Add(int(v))
		}
		cdf := h.CDF()
		prev := 0.0
		for _, p := range cdf {
			if p < prev || p < 0 || p > 1.0000001 {
				return false
			}
			prev = p
		}
		if len(vals) > 0 && math.Abs(cdf[len(cdf)-1]-1) > 1e-9 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogramEmptyCDF(t *testing.T) {
	h := NewHistogram(4)
	for _, p := range h.CDF() {
		if p != 0 {
			t.Errorf("empty CDF should be all zero")
		}
	}
}

func TestHistogramFraction(t *testing.T) {
	h := NewHistogram(20)
	for i := 0; i < 10; i++ {
		h.Add(i)
	}
	if got := h.Fraction(0, 4); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("Fraction(0,4) = %v, want 0.5", got)
	}
	if got := h.Fraction(-5, 100); math.Abs(got-1) > 1e-9 {
		t.Errorf("Fraction clamped = %v, want 1", got)
	}
}

func TestHistogramMeanPercentile(t *testing.T) {
	h := NewHistogram(100)
	for i := 1; i <= 100; i++ {
		h.Add(i)
	}
	if m := h.Mean(); math.Abs(m-50.5) > 1e-9 {
		t.Errorf("Mean = %v, want 50.5", m)
	}
	if p := h.Percentile(0.5); p != 50 {
		t.Errorf("Percentile(0.5) = %d, want 50", p)
	}
	if p := h.Percentile(1.0); p != 100 {
		t.Errorf("Percentile(1.0) = %d, want 100", p)
	}
}

func TestMeans(t *testing.T) {
	xs := []float64{1, 2, 4}
	if m := Mean(xs); math.Abs(m-7.0/3) > 1e-9 {
		t.Errorf("Mean = %v", m)
	}
}

func TestMeanEdgeCases(t *testing.T) {
	if Mean(nil) != 0 {
		t.Error("Mean(nil) should be 0")
	}
}

func TestMax(t *testing.T) {
	if m := Max([]float64{5, 1, 3}); m != 5 {
		t.Errorf("Max = %v, want 5", m)
	}
	if Max(nil) != 0 {
		t.Error("Max(nil) should be 0")
	}
}

func TestTableRender(t *testing.T) {
	tb := NewTable("demo", "name", "value")
	tb.AddRow("alpha", 1.5)
	tb.AddRow("b", 42)
	out := tb.String()
	want := "== demo ==\nname   value\n-----  -----\nalpha  1.500\nb      42\n"
	if out != want {
		t.Errorf("Render mismatch:\n%q\nwant\n%q", out, want)
	}
}

func TestTableNoTitle(t *testing.T) {
	tb := NewTable("", "x")
	tb.AddRow("y")
	out := tb.String()
	if out != "x\n-\ny\n" {
		t.Errorf("Render = %q", out)
	}
}
