package core

import (
	"sort"

	"semloc/internal/obs"
)

// Learner introspection (DESIGN.md §18): the learner's snapshot — the
// prefetch outcome taxonomy, the explore/exploit split, the reward-sign
// mix, CST occupancy and churn, and the most frequent link deltas — plus a
// live "explain" view of the hottest learned contexts with their candidate
// score tables. Everything here reads state the hot path already
// maintains: a snapshot costs one CST scan and nothing on the access path.

// LearnerHealth implements obs.LearnerSource: the learner's snapshot, with
// the topDeltas most frequent link deltas ranked (none when topDeltas is
// 0). It scans the CST once, counting deltas in a fixed array, and only
// a ranking allocates, so LearnerHealth(0) allocates nothing and a serving
// daemon can attach it to every stats frame without GC pressure. Call it
// at interval boundaries, not per access.
func (p *Prefetcher) LearnerHealth(topDeltas int) obs.LearnerHealth {
	m := &p.metrics
	h := obs.LearnerHealth{
		Accesses:         m.Accesses,
		Predictions:      m.Predictions,
		Explores:         m.Explores,
		Exploits:         m.Exploits,
		Suppressed:       m.Suppressed,
		RealPrefetches:   m.RealPrefetches,
		ShadowPrefetches: m.ShadowPrefetches,
		QueueHits:        m.QueueHits,
		Expired:          m.Expired,
		OutcomeAccurate:  m.OutcomeAccurate,
		OutcomeLate:      m.OutcomeLate,
		OutcomeEvicted:   m.OutcomeEvicted,
		OutcomeUseless:   p.pendingIssued,
		OutcomeCarried:   m.OutcomeCarried,
		PosRewards:       m.PosRewards,
		NegRewards:       m.NegRewards,
		ZeroRewards:      m.ZeroRewards,
		Epsilon:          p.policy.epsilon,
		Accuracy:         p.policy.accuracy,
		CSTInsertions:    m.CSTInsertions,
		CSTReplacements:  m.CSTReplacements,
		CSTRejects:       m.CSTRejects,
		Activations:      m.Activations,
		Deactivations:    m.Deactivations,
		CSTCapacity:      p.cfg.CSTEntries,
	}
	// counts[d+128] is how many resident links hold delta d.
	var counts [256]int
	var scoreSum int
	for i := range p.table.entries {
		e := &p.table.entries[i]
		if !e.valid {
			continue
		}
		for li := 0; li < int(e.links); li++ {
			if !e.isUsed(li) {
				continue
			}
			h.CSTLinks++
			scoreSum += int(e.scores[li])
			if e.scores[li] > 0 {
				h.PositiveLinks++
			}
			if e.scores[li] == 127 {
				h.SaturatedLinks++
			}
			counts[int(e.deltas[li])+128]++
		}
		if e.n > 0 {
			h.CSTEntries++
		}
	}
	if h.CSTLinks > 0 {
		h.MeanScore = float64(scoreSum) / float64(h.CSTLinks)
	}
	// Rank by count descending; the ascending scan with a strict > keeps
	// the smaller delta first among equal counts, so the ranking is total
	// and stable from run to run.
	for len(h.TopDeltas) < topDeltas {
		best := -1
		for i, c := range counts {
			if c > 0 && (best < 0 || c > counts[best]) {
				best = i
			}
		}
		if best < 0 {
			break
		}
		h.TopDeltas = append(h.TopDeltas, obs.DeltaCount{Delta: int8(best - 128), Count: counts[best]})
		counts[best] = 0
	}
	return h
}

// LinkExplain is one candidate link in a context's score table, in
// exploitation-rank order (best first).
type LinkExplain struct {
	Delta int8 `json:"delta"`
	Score int8 `json:"score"`
}

// ContextExplain is the live state of one learned context: its packed
// identity (the same value decision events carry), how often the
// prediction unit consulted it, its recent candidate churn, and its
// candidate score table best-first.
type ContextExplain struct {
	Context uint64        `json:"context"`
	Trials  int           `json:"trials"`
	Churn   int           `json:"churn"`
	Links   []LinkExplain `json:"links"`
}

// ExplainTopContexts returns the k hottest learned contexts — ranked by
// prediction trials, table index breaking ties — each with its candidate
// score table in exploitation order. It scans the CST once; k caps the
// result, not the scan.
func (p *Prefetcher) ExplainTopContexts(k int) []ContextExplain {
	if k <= 0 {
		return nil
	}
	type hot struct {
		idx    int32
		trials uint16
	}
	var hots []hot
	for i := range p.table.entries {
		e := &p.table.entries[i]
		if e.valid && e.n > 0 {
			hots = append(hots, hot{idx: int32(i), trials: e.trials})
		}
	}
	sort.Slice(hots, func(i, j int) bool {
		if hots[i].trials != hots[j].trials {
			return hots[i].trials > hots[j].trials
		}
		return hots[i].idx < hots[j].idx
	})
	if len(hots) > k {
		hots = hots[:k]
	}
	out := make([]ContextExplain, 0, len(hots))
	for _, h := range hots {
		e := &p.table.entries[h.idx]
		ce := ContextExplain{
			Context: contextID(cstKey{idx: h.idx, tag: e.tag}),
			Trials:  int(e.trials),
			Churn:   int(e.churn),
			Links:   make([]LinkExplain, 0, int(e.n)),
		}
		for j := 0; j < int(e.n); j++ {
			s := e.order[j]
			ce.Links = append(ce.Links, LinkExplain{Delta: e.deltas[s], Score: e.scores[s]})
		}
		out = append(out, ce)
	}
	return out
}
