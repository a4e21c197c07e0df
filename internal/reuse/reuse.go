// Package reuse computes LRU stack-distance (reuse-distance) profiles of
// memory traces. A stack distance is the number of distinct cache lines
// touched between two accesses to the same line; the profile predicts the
// miss ratio of any fully-associative LRU cache (an access misses iff its
// distance is at least the cache's capacity in lines), which makes it both
// a workload-characterization tool (cmd/traceinfo -reuse) and an
// independent cross-check of the cache simulator.
package reuse

import (
	"semloc/internal/memmodel"
	"semloc/internal/stats"
	"semloc/internal/trace"
)

// Profile is the reuse-distance distribution of a trace's data accesses.
type Profile struct {
	// Distances histograms finite stack distances (in lines), clamped at
	// the configured maximum.
	Distances *stats.Histogram
	// Cold counts first-touch accesses (infinite distance).
	Cold uint64
	// Accesses is the number of memory accesses profiled.
	Accesses uint64
}

// Analyze profiles every load and store of the trace at cache-line
// granularity. Distances of maxDist lines or more land in the histogram's
// final bucket.
func Analyze(tr *trace.Trace, maxDist int) *Profile {
	p := &Profile{Distances: stats.NewHistogram(maxDist)}
	bit := newFenwick(tr.Accesses())
	last := make(map[memmodel.Line]int) // line -> time of previous access
	t := 0
	c := tr.Cursor()
	for c.Next() {
		r := c.Record()
		if !r.IsMem() {
			continue
		}
		t++
		line := memmodel.LineOf(r.Addr)
		p.Accesses++
		if prev, ok := last[line]; ok {
			// Distinct lines touched strictly between prev and t = number
			// of "last access" markers in (prev, t).
			d := bit.rangeSum(prev+1, t-1)
			p.Distances.Add(d)
			bit.add(prev, -1)
		} else {
			p.Cold++
		}
		bit.add(t, 1)
		last[line] = t
	}
	return p
}

// MissRatio predicts the miss ratio of a fully-associative LRU cache with
// the given capacity in lines: cold misses plus accesses whose distance is
// at least the capacity.
func (p *Profile) MissRatio(capacityLines int) float64 {
	if p.Accesses == 0 {
		return 0
	}
	misses := p.Cold
	if capacityLines <= p.Distances.Max() {
		misses += uint64(float64(p.Distances.Total()) * p.Distances.Fraction(capacityLines, p.Distances.Max()))
	}
	return float64(misses) / float64(p.Accesses)
}

// WorkingSetLines returns the number of distinct lines that cover the
// given fraction of reuses — a compact working-set-size estimate.
func (p *Profile) WorkingSetLines(fraction float64) int {
	return p.Distances.Percentile(fraction)
}

// fenwick is a growable binary indexed tree over access timestamps.
type fenwick struct {
	tree []int
}

func newFenwick(capacity int) *fenwick {
	return &fenwick{tree: make([]int, capacity+1)}
}

func (f *fenwick) add(i, v int) {
	for ; i < len(f.tree); i += i & (-i) {
		f.tree[i] += v
	}
}

// prefixSum returns the sum of positions 1..i.
func (f *fenwick) prefixSum(i int) int {
	if i >= len(f.tree) {
		i = len(f.tree) - 1
	}
	s := 0
	for ; i > 0; i -= i & (-i) {
		s += f.tree[i]
	}
	return s
}

// rangeSum returns the sum of positions lo..hi (inclusive); 0 if empty.
func (f *fenwick) rangeSum(lo, hi int) int {
	if lo > hi {
		return 0
	}
	if lo < 1 {
		lo = 1
	}
	return f.prefixSum(hi) - f.prefixSum(lo-1)
}
