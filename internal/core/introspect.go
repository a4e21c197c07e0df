package core

import "sort"

// TableStats summarizes the learned state of the CST for introspection,
// tuning and tests: how much of the table is populated, how scores are
// distributed, and which deltas dominate.
type TableStats struct {
	// Entries is the number of valid CST entries holding candidates.
	Entries int
	// Links is the total number of resident (delta, score) links.
	Links int
	// PositiveLinks counts links with accumulated positive reward — the
	// associations the prefetcher will actually dispatch.
	PositiveLinks int
	// SaturatedLinks counts links pinned at the score ceiling.
	SaturatedLinks int
	// MeanScore is the average link score.
	MeanScore float64
	// TopDeltas lists the most frequent link deltas, best first (at most
	// eight), for a quick view of what was learned.
	TopDeltas []DeltaCount
}

// DeltaCount pairs a delta with its occurrence count across the CST.
type DeltaCount struct {
	Delta int8
	Count int
}

// Inspect summarizes the current CST contents.
func (p *Prefetcher) Inspect() TableStats {
	var st TableStats
	var scoreSum int
	deltas := make(map[int8]int)
	for i := range p.table.entries {
		e := &p.table.entries[i]
		if !e.valid {
			continue
		}
		for li := 0; li < int(e.links); li++ {
			if !e.isUsed(li) {
				continue
			}
			st.Links++
			scoreSum += int(e.scores[li])
			if e.scores[li] > 0 {
				st.PositiveLinks++
			}
			if e.scores[li] == 127 {
				st.SaturatedLinks++
			}
			deltas[e.deltas[li]]++
		}
		if e.n > 0 {
			st.Entries++
		}
	}
	if st.Links > 0 {
		st.MeanScore = float64(scoreSum) / float64(st.Links)
	}
	type dc struct {
		d int8
		c int
	}
	all := make([]dc, 0, len(deltas))
	for d, c := range deltas {
		all = append(all, dc{d, c})
	}
	// SliceStable with a total-order comparator (count descending, delta
	// ascending breaking ties): equal-count deltas rank identically from
	// run to run regardless of map iteration order, so golden comparisons
	// of TopDeltas never flake.
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].c != all[j].c {
			return all[i].c > all[j].c
		}
		return all[i].d < all[j].d
	})
	for i := 0; i < len(all) && i < 8; i++ {
		st.TopDeltas = append(st.TopDeltas, DeltaCount{Delta: all[i].d, Count: all[i].c})
	}
	return st
}
