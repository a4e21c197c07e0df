package core

import (
	"semloc/internal/memmodel"
	"semloc/internal/obs"
	"semloc/internal/prefetch"
	"semloc/internal/stats"
)

// Thresholds for the reducer's dynamic attribute control (§4.4): a CST
// entry whose candidate churn reaches overloadChurn splits its reduced
// context by activating an attribute; a reducer entry whose lookups miss
// the CST coldStreakLimit times in a row merges states by deactivating
// one.
const (
	overloadChurn   = 8
	coldStreakLimit = 32
	// churnDecayEvery must stay a power of two: the hot path tests it with
	// a mask, not a modulo.
	churnDecayEvery = 4096
)

// Metrics exposes the prefetcher's internal counters, including the
// prefetch-queue hit-depth histogram that Figure 8 plots.
type Metrics struct {
	// Accesses counts observed demand accesses.
	Accesses uint64
	// Predictions counts queue pushes (real + shadow).
	Predictions uint64
	// RealPrefetches counts predictions dispatched to memory.
	RealPrefetches uint64
	// ShadowPrefetches counts predictions tracked without dispatching.
	ShadowPrefetches uint64
	// QueueHits counts demand accesses that matched a queued prediction.
	QueueHits uint64
	// Expired counts predictions that left the queue unhit.
	Expired uint64
	// Activations and Deactivations count reducer attribute changes.
	Activations, Deactivations uint64

	// Outcome taxonomy: every prefetch dispatched to memory ends in exactly
	// one of four buckets. Accurate = consumed by a demand access at a
	// depth earning a positive reward; Late = consumed but past the useful
	// window (reward <= 0); Evicted = displaced from the prefetch queue
	// unconsumed; Useless = still pending in the queue at snapshot time.
	// OutcomeUseless is snapshot-only: the Metrics accessor fills it from
	// the live pending count, the internal field stays zero (saved states
	// store zero and recompute the pending count from the queue on
	// restore). OutcomeCarried counts dispatches still pending when the
	// counters were last reset (the warm-up boundary), so the books
	// balance: Accurate + Late + Evicted + Useless == RealPrefetches +
	// OutcomeCarried at every snapshot (obs.LearnerHealth.CheckOutcomes
	// asserts it).
	OutcomeAccurate uint64
	OutcomeLate     uint64
	OutcomeEvicted  uint64
	OutcomeUseless  uint64
	OutcomeCarried  uint64

	// Explores counts policy-selected exploration trainings; Exploits
	// counts best-link exploitation dispatch attempts; Suppressed counts
	// prediction rounds where the best score sat under ScoreThreshold and
	// only a shadow trained.
	Explores   uint64
	Exploits   uint64
	Suppressed uint64

	// PosRewards/NegRewards/ZeroRewards split queue-hit rewards by sign
	// (real and shadow alike) — the learner's reward-sign mix.
	PosRewards  uint64
	NegRewards  uint64
	ZeroRewards uint64

	// CSTInsertions/CSTReplacements/CSTRejects classify candidate
	// collection: a fresh link slot filled, a resident unprotected link
	// evicted for a newcomer, or a newcomer dropped because the victim was
	// protected (positive score or replacement hysteresis) — the last two
	// are the eviction-churn signal.
	CSTInsertions   uint64
	CSTReplacements uint64
	CSTRejects      uint64

	// HitDepths is the distribution of prediction-to-demand distances in
	// accesses (real and shadow predictions alike, as in Figure 8).
	HitDepths *stats.Histogram
}

// Prefetcher is the context-based prefetcher. It implements
// prefetch.Prefetcher.
type Prefetcher struct {
	cfg     Config
	reducer *reducer
	table   *cst
	history *historyQueue
	queue   *prefetchQueue
	policy  *bandit
	machine machineState
	index   uint64 // demand access counter
	metrics Metrics
	// pendingIssued tracks dispatched prefetches still live and unconsumed
	// in the queue: ++ on dispatch, -- when a demand access consumes one or
	// an eviction displaces one. It is derived state (always equal to the
	// queue's live && !hit && issued population) kept incrementally so the
	// Metrics accessor can fill OutcomeUseless without scanning the ring;
	// restore recomputes it from the queue.
	pendingIssued uint64
	// rewardTab memoizes cfg.Reward.Reward(depth) for depths up to the
	// point where the bell settles at the expiry penalty; rewardAt consults
	// it so the feedback path does no float math per queue hit.
	rewardTab  []int8
	expPenalty int8
	// obs, when non-nil, receives sampled decision/reward/expire events
	// and interval snapshots (see telemetry.go). nil costs one branch per
	// hook site and nothing else.
	obs *obs.Collector
}

var _ prefetch.Prefetcher = (*Prefetcher)(nil)

// New builds a context prefetcher; the configuration must be valid.
func New(cfg Config) (*Prefetcher, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Prefetcher{
		cfg:        cfg,
		reducer:    newReducer(cfg.ReducerEntries),
		table:      newCST(cfg.CSTEntries, cfg.CSTLinks),
		history:    newHistoryQueue(cfg.HistoryDepth),
		queue:      newPrefetchQueue(cfg.QueueDepth),
		policy:     newBandit(cfg.Epsilon, cfg.AdaptiveEpsilon, cfg.Seed),
		metrics:    Metrics{HitDepths: stats.NewHistogram(cfg.QueueDepth)},
		rewardTab:  buildRewardTable(cfg.Reward),
		expPenalty: cfg.Reward.Expired(),
	}, nil
}

// buildRewardTable tabulates the reward bell by depth. Beyond the window's
// upper edge the quadratic is monotone non-increasing and clamps at the
// expiry penalty, so the table ends at the first such depth and rewardAt
// answers everything past it with the penalty.
func buildRewardTable(r RewardConfig) []int8 {
	tab := make([]int8, 0, r.High+2)
	for d := 0; ; d++ {
		v := r.Reward(d)
		tab = append(tab, v)
		if d > r.High && v == r.Expired() {
			return tab
		}
	}
}

// rewardAt returns cfg.Reward.Reward(depth) via the precomputed table.
func (p *Prefetcher) rewardAt(depth int) int8 {
	if depth < len(p.rewardTab) {
		return p.rewardTab[depth]
	}
	return p.expPenalty
}

// MustNew builds a context prefetcher and panics on configuration errors
// (the panic value is an error wrapping ErrBadConfig, which the simulation
// harness recovers into a typed run failure).
func MustNew(cfg Config) *Prefetcher {
	p, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return p
}

// Name implements prefetch.Prefetcher: "context" for the paper's ε-greedy
// learner, "context-<policy>" for the alternative policies (as GHB reports
// its localization in "ghb-gdc" and "ghb-pcdc").
func (p *Prefetcher) Name() string {
	if p.cfg.Policy == PolicyEpsilonGreedy {
		return "context"
	}
	return "context-" + p.cfg.Policy.String()
}

// Metrics returns a snapshot of the internal counters. The snapshot's
// OutcomeUseless is the current pending-issued population (the internal
// field is always zero), so the outcome taxonomy balances on every
// snapshot.
func (p *Prefetcher) Metrics() Metrics {
	m := p.metrics
	m.OutcomeUseless = p.pendingIssued
	return m
}

// Accuracy returns the policy's moving estimate of queue hit rate.
func (p *Prefetcher) Accuracy() float64 { return p.policy.accuracy }

// Epsilon returns the current exploration rate.
func (p *Prefetcher) Epsilon() float64 { return p.policy.epsilon }

// ResetMetrics clears counters (at the warm-up boundary) while keeping all
// learned state, as hardware would. Dispatches still pending in the queue
// carry over as OutcomeCarried so the outcome taxonomy stays balanced when
// their fates land after the boundary.
func (p *Prefetcher) ResetMetrics() {
	p.metrics = Metrics{
		OutcomeCarried: p.pendingIssued,
		HitDepths:      stats.NewHistogram(p.cfg.QueueDepth),
	}
}

// OnAccess implements prefetch.Prefetcher: Algorithm 1's three parallel
// operations — feedback, data collection, prediction — executed on every
// demand access.
func (p *Prefetcher) OnAccess(a *prefetch.Access, iss prefetch.Issuer) {
	p.metrics.Accesses++
	block := int64(uint64(a.Addr) >> p.cfg.BlockShift)

	// Context capture and two-level indexing (Figure 7). The default
	// attributes are active in every set the hot path hashes, so their fold
	// is computed once and extended into the full-context hash (reducer
	// key) and the reduced-context hash (CST key); when the reducer holds
	// the full set, the CST key reuses the reducer's hash outright.
	v := p.machine.capture(a, p.cfg.BlockShift)
	prefix := hashDefaultPrefix(&v)
	fullHash := hashExtend(prefix, &v, FullAttrSet)
	reduced := fullHash
	var red *reducerEntry
	if !p.cfg.DisableReducer {
		red = p.reducer.lookup(fullHash)
		if red.active != FullAttrSet {
			reduced = hashExtend(prefix, &v, red.active)
		}
	}
	key := p.table.key(reduced)

	// Feedback: reward every queued prediction of the current block by its
	// depth (Figure 5), and fold the outcome into the policy.
	p.queue.match(block, p.index, func(e *pfEntry, depth int) {
		p.metrics.QueueHits++
		p.metrics.HitDepths.Add(depth)
		r := p.rewardAt(depth)
		switch {
		case r > 0:
			p.metrics.PosRewards++
		case r < 0:
			p.metrics.NegRewards++
		default:
			p.metrics.ZeroRewards++
		}
		if entry := p.table.lookup(e.key); entry != nil {
			entry.rewardSlot(e.slot, e.delta, r)
		}
		if p.obs != nil {
			p.traceReward(e.key, e.delta, r, depth, e.issued)
		}
		// The policy's accuracy estimate tracks the hit rate of actual
		// prefetches (§5); shadow training does not throttle the degree.
		if e.issued {
			p.pendingIssued--
			if r > 0 {
				p.metrics.OutcomeAccurate++
			} else {
				p.metrics.OutcomeLate++
			}
			p.policy.feedback(r > 0)
		}
	})

	// Collection: associate one sampled older context with the current
	// block. The paper samples a subset of the context-address pairs (§4.2)
	// — one random predefined depth per access keeps insertion pressure on
	// a CST entry low enough that candidates survive until their reward
	// arrives (~an effective-window of accesses later).
	d := p.cfg.SampleDepths[int(p.policy.next()%uint64(len(p.cfg.SampleDepths)))]
	if h := p.history.at(d); h != nil {
		delta := block - h.block
		if delta != 0 && delta >= -128 && delta <= 127 {
			entry, _ := p.table.ensure(h.key)
			switch entry.addCandidate(int8(delta), p.policy.next()&3 == 0) {
			case candInserted:
				p.metrics.CSTInsertions++
			case candReplaced:
				p.metrics.CSTReplacements++
			case candRejected:
				p.metrics.CSTRejects++
			}
		}
	}

	// Prediction: look up the current context and issue prefetches.
	entry := p.table.lookup(key)
	if red != nil {
		if entry != nil {
			red.noteWarm()
			if entry.overloaded(overloadChurn) {
				if red.overload() {
					p.metrics.Activations++
				}
				entry.decayChurn()
			}
		} else {
			red.noteCold()
			if red.coldStreak >= coldStreakLimit {
				if red.underload() {
					p.metrics.Deactivations++
				}
			}
		}
	}
	if entry != nil {
		p.predict(entry, key, block, a, iss)
	}

	// The current context joins the history queue for future collection.
	p.history.push(key, block)
	p.index++
	p.machine.update(a, p.cfg.BlockShift)

	if p.index&(churnDecayEvery-1) == 0 {
		for i := range p.table.entries {
			p.table.entries[i].decayChurn()
		}
	}
}

// predict issues up to degree real prefetches from the entry's best links
// and possibly one exploratory shadow prefetch (ε-greedy).
func (p *Prefetcher) predict(entry *cstEntry, key cstKey, block int64, a *prefetch.Access, iss prefetch.Issuer) {
	if entry.n == 0 {
		return
	}

	// Exploration: a policy-selected candidate trains as a shadow
	// operation (ε-greedy by default; softmax/UCB as extensions).
	entry.noteTrial()
	if !p.cfg.DisableShadow {
		if li := p.policy.exploreChoice(p.cfg.Policy, entry); li >= 0 {
			p.metrics.Explores++
			real, reason := p.enqueue(entry.deltas[li], uint8(li), key, block, a, iss, false)
			if p.obs != nil {
				p.traceDecision(entry, key, entry.deltas[li], real, true, reason)
			}
		}
	}

	// Exploitation: the highest-scoring candidates, throttled by accuracy
	// and by memory-system pressure. Each iteration takes the front-most
	// not-yet-issued slot of the live rank order. The scan restarts from
	// the front every time because enqueue can rescore this very entry
	// (queue pushes fire expiry penalties), reshuffling the order mid-loop
	// — re-deriving the best from current scores is precisely what the old
	// per-iteration rescan did, which keeps results bit-identical.
	degree := p.policy.degree(p.cfg.MaxDegree)
	issued := 0
	var issuedMask uint8
	for issued < degree {
		best := -1
		for j := 0; j < int(entry.n); j++ {
			if s := entry.order[j]; issuedMask&(1<<s) == 0 {
				best = int(s)
				break
			}
		}
		if best < 0 {
			break
		}
		issuedMask |= 1 << uint(best)
		delta, score := entry.deltas[best], entry.scores[best]
		if score < p.cfg.ScoreThreshold {
			// No candidate with positive evidence: spend no memory traffic,
			// but keep training — a random under-threshold candidate goes
			// into the queue as a shadow so its reward can be measured
			// (ties would otherwise always train the same link).
			p.metrics.Suppressed++
			if !p.cfg.DisableShadow {
				li := p.policy.pickSlot(entry)
				real, reason := p.enqueue(entry.deltas[li], uint8(li), key, block, a, iss, false)
				if reason == ReasonShadow {
					reason = ReasonSuppressed
				}
				if p.obs != nil {
					p.traceDecision(entry, key, entry.deltas[li], real, true, reason)
				}
			}
			break
		}
		p.metrics.Exploits++
		dispatched, reason := p.enqueue(delta, uint8(best), key, block, a, iss, true)
		if p.obs != nil {
			p.traceDecision(entry, key, delta, dispatched, false, reason)
		}
		issued++
	}
}

// Issue/suppress reasons attached to decision attribution: why a
// prediction did or did not dispatch to memory. The values are package
// constants (never built per decision), so recording one costs a pointer
// copy and no allocation.
const (
	// ReasonIssued marks a prediction dispatched to memory.
	ReasonIssued = "issued"
	// ReasonShadow marks a training-only prediction (exploration or an
	// explicit shadow) that was never meant to dispatch.
	ReasonShadow = "shadow"
	// ReasonSuppressed marks the threshold-suppression shadow: the best
	// candidate's score sat under ScoreThreshold, so the round trained a
	// random link instead of spending memory traffic.
	ReasonSuppressed = "suppressed"
	// ReasonMSHRDemoted marks a wanted-real prediction demoted to a shadow
	// because the memory system was stressed (free MSHRs below reserve).
	ReasonMSHRDemoted = "mshr-demoted"
	// ReasonDupDemoted marks a wanted-real prediction demoted because the
	// block was already in flight from an earlier context.
	ReasonDupDemoted = "dup-demoted"
	// ReasonNegTarget marks a prediction dropped outright: the delta
	// pointed below address zero.
	ReasonNegTarget = "negative-target"
	// ReasonRefused marks a wanted-real prediction the issuer refused to
	// dispatch (no slot at issue time); it trains as a shadow.
	ReasonRefused = "refused"
)

// enqueue pushes one prediction into the prefetch queue, dispatching it to
// memory unless it is a shadow, a duplicate, or the MSHRs are depleted.
// Expired queue entries displaced by the push receive the expiry penalty.
// It reports whether the prediction actually dispatched to memory (false
// for shadows and demotions) and why, which the decision trace records.
func (p *Prefetcher) enqueue(delta int8, slot uint8, key cstKey, block int64, a *prefetch.Access, iss prefetch.Issuer, wantReal bool) (bool, string) {
	target := block + int64(delta)
	if target < 0 {
		return false, ReasonNegTarget
	}
	addr := memmodel.Addr(uint64(target) << p.cfg.BlockShift)

	// The target's bucket chain head serves both the duplicate check and
	// the push below.
	b := p.queue.bucket(target)
	real, reason := wantReal, ReasonShadow
	if real {
		reason = ReasonIssued
		if iss.FreePrefetchSlots(a.Now) < p.cfg.MSHRReserve {
			// Memory system stressed: demote to a shadow operation (§4.2).
			real, reason = false, ReasonMSHRDemoted
		}
	}
	if real {
		if predicted, issuedBefore := p.queue.containsAt(b, target); predicted && issuedBefore {
			// Already in flight from an earlier context: re-enqueue as a
			// shadow to train this context-address pair too (§4.2).
			real, reason = false, ReasonDupDemoted
		}
	}

	dispatched := false
	if real {
		dispatched = iss.Prefetch(addr, a.Now)
		if !dispatched {
			reason = ReasonRefused
		}
	}
	if !dispatched {
		iss.Shadow(addr)
	}

	p.metrics.Predictions++
	if dispatched {
		p.metrics.RealPrefetches++
		p.pendingIssued++
	} else {
		p.metrics.ShadowPrefetches++
	}
	exp, has := p.queue.pushAt(b, target, key, delta, slot, p.index, dispatched)
	if has {
		p.metrics.Expired++
		if entry := p.table.lookup(exp.key); entry != nil {
			entry.rewardSlot(exp.slot, exp.delta, p.expPenalty)
		}
		if exp.issued {
			p.pendingIssued--
			p.metrics.OutcomeEvicted++
			p.policy.feedback(false)
		}
		if p.obs != nil {
			p.traceExpire(exp.key, exp.delta, p.expPenalty, exp.issued)
		}
	}
	return dispatched, reason
}
