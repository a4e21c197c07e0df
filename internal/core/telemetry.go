package core

import (
	"semloc/internal/obs"
)

// Telemetry integration. The prefetcher carries an optional *obs.Collector
// (nil by default); every hot-path hook below guards with one branch on
// that pointer, so the disabled configuration keeps the 0 allocs/op
// invariant of DESIGN.md §10 (the Makefile's overhead-guard target and
// TestOnAccessZeroAllocTelemetryDisabled enforce it).
//
// Determinism: event sampling runs off the collector's own counter, never
// the policy RNG, so attaching telemetry cannot change what the
// prefetcher does — only what it reports.

var (
	_ obs.Attachable    = (*Prefetcher)(nil)
	_ obs.LearnerSource = (*Prefetcher)(nil)
)

// AttachTelemetry implements obs.Attachable: subsequent decisions, rewards
// and expiries are (sampled and) traced through c. Attach before the run;
// a nil c detaches.
func (p *Prefetcher) AttachTelemetry(c *obs.Collector) { p.obs = c }

// contextID packs a CST key into the integer identity decision events
// carry, so a trace reader can follow one learned context across events.
func contextID(k cstKey) uint64 { return uint64(k.idx)<<8 | uint64(k.tag) }

// traceDecision emits one sampled "decide" event: the candidate links the
// prediction unit considered, the delta it chose, whether the prediction
// dispatched to memory or trained as a shadow, and the issue/suppress
// reason. Callers guard with p.obs != nil; the candidate slice is only
// built once the event is actually sampled.
func (p *Prefetcher) traceDecision(entry *cstEntry, key cstKey, delta int8, real, explore bool, reason string) {
	if !p.obs.TraceDue() {
		return
	}
	ev := obs.DecisionEvent{
		Kind:    obs.KindDecide,
		Index:   p.index,
		Context: contextID(key),
		Delta:   delta,
		Real:    real,
		Explore: explore,
		Reason:  reason,
	}
	for li := 0; li < int(entry.links); li++ {
		if entry.isUsed(li) {
			ev.Candidates = append(ev.Candidates, obs.CandidateScore{Delta: entry.deltas[li], Score: entry.scores[li]})
		}
	}
	p.obs.Emit(&ev)
}

// traceReward emits one sampled "reward" event for a queued prediction
// consumed by a demand access at the given depth.
func (p *Prefetcher) traceReward(key cstKey, delta int8, reward int8, depth int, real bool) {
	if !p.obs.TraceDue() {
		return
	}
	p.obs.Emit(&obs.DecisionEvent{
		Kind:    obs.KindReward,
		Index:   p.index,
		Context: contextID(key),
		Delta:   delta,
		Real:    real,
		Reward:  reward,
		Depth:   depth,
	})
}

// traceExpire emits one sampled "expire" event for a prediction displaced
// from the queue unconsumed, carrying the expiry penalty.
func (p *Prefetcher) traceExpire(key cstKey, delta int8, penalty int8, real bool) {
	if !p.obs.TraceDue() {
		return
	}
	p.obs.Emit(&obs.DecisionEvent{
		Kind:    obs.KindExpire,
		Index:   p.index,
		Context: contextID(key),
		Delta:   delta,
		Real:    real,
		Reward:  penalty,
	})
}
