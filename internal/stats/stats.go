// Package stats provides the small statistical toolkit the experiment
// harness needs: integer histograms, cumulative distributions, the mean
// and maximum of a sample, and plain-text tables.
package stats

// Histogram counts occurrences of non-negative integer values (e.g. prefetch
// hit depths). Values beyond the configured maximum are clamped into the
// final overflow bucket so tail mass is never lost.
type Histogram struct {
	counts []uint64
	total  uint64
}

// NewHistogram creates a histogram covering values [0, max]; values above
// max land in the bucket for max.
func NewHistogram(max int) *Histogram {
	if max < 0 {
		max = 0
	}
	return &Histogram{counts: make([]uint64, max+1)}
}

// Add records one observation of v. Negative values clamp to 0.
func (h *Histogram) Add(v int) {
	if v < 0 {
		v = 0
	}
	if v >= len(h.counts) {
		v = len(h.counts) - 1
	}
	h.counts[v]++
	h.total++
}

// Reset clears all observations in place, keeping the bucket storage (the
// warm-up boundary and the run-scratch pool recycle histograms this way).
func (h *Histogram) Reset() {
	clear(h.counts)
	h.total = 0
}

// Clone returns an independent copy (used by learner-state snapshots so a
// live histogram cannot mutate a captured one).
func (h *Histogram) Clone() *Histogram {
	c := &Histogram{counts: make([]uint64, len(h.counts)), total: h.total}
	copy(c.counts, h.counts)
	return c
}

// Count returns the number of observations equal to v (after clamping).
func (h *Histogram) Count(v int) uint64 {
	if v < 0 || v >= len(h.counts) {
		return 0
	}
	return h.counts[v]
}

// Total returns the number of observations.
func (h *Histogram) Total() uint64 { return h.total }

// Max returns the largest representable value (the overflow bucket index).
func (h *Histogram) Max() int { return len(h.counts) - 1 }

// CDF returns the cumulative distribution F(v) = P(X <= v) for each v in
// [0, Max]. An empty histogram yields all zeros.
func (h *Histogram) CDF() []float64 {
	out := make([]float64, len(h.counts))
	if h.total == 0 {
		return out
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		out[i] = float64(cum) / float64(h.total)
	}
	return out
}

// Fraction returns the fraction of observations in [lo, hi] inclusive.
func (h *Histogram) Fraction(lo, hi int) float64 {
	if h.total == 0 {
		return 0
	}
	if lo < 0 {
		lo = 0
	}
	if hi >= len(h.counts) {
		hi = len(h.counts) - 1
	}
	var sum uint64
	for i := lo; i <= hi; i++ {
		sum += h.counts[i]
	}
	return float64(sum) / float64(h.total)
}

// Mean returns the mean observed value (clamped values count as clamped).
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	var sum float64
	for v, c := range h.counts {
		sum += float64(v) * float64(c)
	}
	return sum / float64(h.total)
}

// Percentile returns the smallest v with CDF(v) >= p, for p in (0,1].
func (h *Histogram) Percentile(p float64) int {
	if h.total == 0 {
		return 0
	}
	target := p * float64(h.total)
	var cum float64
	for v, c := range h.counts {
		cum += float64(c)
		if cum >= target {
			return v
		}
	}
	return h.Max()
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Max returns the maximum of xs (0 for empty input).
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}
