package obs

import "fmt"

// LearnerHealth is the one snapshot of the context learner (DESIGN.md
// §18): what became of its predictions and dispatched prefetches, how the
// policy split explore from exploit, the reward-sign mix, the churn of the
// CST and the reducer, and what the CST holds. The interval sampler records
// it through LearnerSource, the run artifact stores the one taken when a
// run ends, and prefetchd's stats and explain frames carry it. Counters are
// cumulative since the last metrics reset (the warm-up boundary in
// simulations, the session start in prefetchd); Epsilon, Accuracy,
// OutcomeUseless and the CST occupancy fields are point-in-time.
//
// The fields are declared in causal order — what the learner saw, what it
// decided, how the queue and memory answered, what it learned — so the
// first field that differs between two snapshots of one access stream
// points at the earliest divergence (prefetchsim -remote names it).
type LearnerHealth struct {
	// Accesses counts observed demand accesses; Predictions counts queue
	// pushes (real + shadow).
	Accesses    uint64 `json:"accesses"`
	Predictions uint64 `json:"predictions"`

	// Explores counts policy-selected exploration trainings; Exploits
	// counts best-link exploitation dispatch attempts; Suppressed counts
	// prediction rounds whose best score sat under the threshold, so only
	// a shadow trained.
	Explores   uint64 `json:"explores"`
	Exploits   uint64 `json:"exploits"`
	Suppressed uint64 `json:"suppressed"`

	// RealPrefetches were dispatched to memory, ShadowPrefetches tracked
	// without dispatching. QueueHits counts demand accesses that matched a
	// queued prediction, Expired predictions that left the queue unhit.
	RealPrefetches   uint64 `json:"real_prefetches"`
	ShadowPrefetches uint64 `json:"shadow_prefetches"`
	QueueHits        uint64 `json:"queue_hits"`
	Expired          uint64 `json:"expired"`

	// Outcome taxonomy of dispatched prefetches: accurate (consumed in the
	// useful window), late (consumed past it), evicted (displaced from the
	// queue unconsumed), useless (still pending), and carried (pending at
	// the last reset). CheckOutcomes asserts accurate + late + evicted +
	// useless == real_prefetches + carried.
	OutcomeAccurate uint64 `json:"outcome_accurate"`
	OutcomeLate     uint64 `json:"outcome_late"`
	OutcomeEvicted  uint64 `json:"outcome_evicted"`
	OutcomeUseless  uint64 `json:"outcome_useless"`
	OutcomeCarried  uint64 `json:"outcome_carried,omitempty"`

	// Reward-sign mix across queue-hit rewards (real and shadow alike),
	// and the policy's accuracy estimate and exploration rate they move.
	PosRewards  uint64  `json:"pos_rewards"`
	NegRewards  uint64  `json:"neg_rewards"`
	ZeroRewards uint64  `json:"zero_rewards"`
	Epsilon     float64 `json:"epsilon"`
	Accuracy    float64 `json:"accuracy"`

	// Churn: CST link slots filled, unprotected links evicted for a
	// newcomer, newcomers dropped against protected victims, and reducer
	// attribute activations and deactivations.
	CSTInsertions   uint64 `json:"cst_insertions"`
	CSTReplacements uint64 `json:"cst_replacements"`
	CSTRejects      uint64 `json:"cst_rejects"`
	Activations     uint64 `json:"activations"`
	Deactivations   uint64 `json:"deactivations"`

	// CST occupancy and score distribution: entries holding candidates out
	// of CSTCapacity, resident links, links with positive score and links
	// pinned at the ceiling, and the mean link score. TopDeltas ranks the
	// most frequent link deltas, count descending and then delta
	// ascending; only a snapshot that asked for them carries any.
	CSTEntries     int          `json:"cst_entries"`
	CSTCapacity    int          `json:"cst_capacity"`
	CSTLinks       int          `json:"cst_links"`
	PositiveLinks  int          `json:"positive_links"`
	SaturatedLinks int          `json:"saturated_links"`
	MeanScore      float64      `json:"mean_score"`
	TopDeltas      []DeltaCount `json:"top_deltas,omitempty"`
}

// RankedDeltas is how many of the CST's most frequent deltas the interval
// samples and the run artifact carry.
const RankedDeltas = 8

// CheckOutcomes asserts the outcome-taxonomy count-match invariant: every
// dispatched prefetch is accounted for exactly once.
func (h *LearnerHealth) CheckOutcomes() error {
	got := h.OutcomeAccurate + h.OutcomeLate + h.OutcomeEvicted + h.OutcomeUseless
	want := h.RealPrefetches + h.OutcomeCarried
	if got != want {
		return fmt.Errorf("obs: outcome taxonomy mismatch: accurate %d + late %d + evicted %d + useless %d = %d, want real %d + carried %d = %d",
			h.OutcomeAccurate, h.OutcomeLate, h.OutcomeEvicted, h.OutcomeUseless, got,
			h.RealPrefetches, h.OutcomeCarried, want)
	}
	return nil
}

// Anomaly-check floors. The thresholds are deliberately conservative: the
// check is a regression gate, so it must stay quiet on short smokes and
// healthy convergence and only fire on pathologies that persist at volume.
const (
	// anomalyMinAccesses gates both checks: below this the learner has not
	// had a fair chance to learn anything.
	anomalyMinAccesses = 50000
	// anomalyMinIssued gates the stalled-learning check: the learner must
	// actually be spending memory traffic before "nothing lands" is a bug.
	anomalyMinIssued = 1000
	// anomalyMinChurn is the replacement volume floor for the churn-storm
	// check.
	anomalyMinChurn = 10000
)

// CheckAnomalies inspects a health snapshot for the two learning
// pathologies the introspection layer is built to catch, and additionally
// re-asserts the outcome count-match invariant. It returns nil for a
// healthy (or merely young) learner.
//
//   - Stalled learning: the learner issues real prefetches at volume but
//     none ever lands accurately and no link has accumulated positive
//     reward — it is spending traffic without learning.
//   - Churn storm: candidate replacements dominate insertions by an order
//     of magnitude while almost no occupied entry holds a positive link —
//     contexts are thrashing through the table faster than rewards can
//     protect them.
func (h *LearnerHealth) CheckAnomalies() error {
	if err := h.CheckOutcomes(); err != nil {
		return err
	}
	if h.Accesses < anomalyMinAccesses {
		return nil
	}
	if h.RealPrefetches >= anomalyMinIssued && h.OutcomeAccurate == 0 && h.PositiveLinks == 0 {
		return fmt.Errorf("obs: stalled learning: %d real prefetches over %d accesses with zero accurate outcomes and zero positive links",
			h.RealPrefetches, h.Accesses)
	}
	if h.CSTReplacements >= anomalyMinChurn &&
		h.CSTReplacements > 10*h.CSTInsertions &&
		h.PositiveLinks*4 < h.CSTEntries {
		return fmt.Errorf("obs: churn storm: %d replacements vs %d insertions with only %d positive links across %d occupied entries",
			h.CSTReplacements, h.CSTInsertions, h.PositiveLinks, h.CSTEntries)
	}
	return nil
}

// Learner-health metric names, published by LearnerMetrics when a live
// registry is attached to an instrumented run (sweep/experiments -listen).
// Counters carry the cumulative learner-health totals across every sampled
// run; gauges hold the most recently sampled run's point-in-time learner
// state (last-writer-wins across parallel cells, like GaugeLastIPC).
const (
	MetricLearnerAccurate     = "learner_outcome_accurate_total"
	MetricLearnerLate         = "learner_outcome_late_total"
	MetricLearnerEvicted      = "learner_outcome_evicted_total"
	MetricLearnerExplores     = "learner_explores_total"
	MetricLearnerExploits     = "learner_exploits_total"
	MetricLearnerSuppressed   = "learner_suppressed_total"
	MetricLearnerPosRewards   = "learner_pos_rewards_total"
	MetricLearnerNegRewards   = "learner_neg_rewards_total"
	MetricLearnerZeroRewards  = "learner_zero_rewards_total"
	MetricLearnerInsertions   = "learner_cst_insertions_total"
	MetricLearnerReplacements = "learner_cst_replacements_total"
	MetricLearnerRejects      = "learner_cst_rejects_total"
	GaugeLearnerEpsilon       = "learner_epsilon"
	GaugeLearnerAccuracy      = "learner_accuracy"
	GaugeLearnerUseless       = "learner_outcome_useless"
	GaugeLearnerCSTEntries    = "learner_cst_entries"
	GaugeLearnerCSTLinks      = "learner_cst_links"
	GaugeLearnerCSTPositive   = "learner_cst_positive_links"
	GaugeLearnerCSTSaturated  = "learner_cst_saturated_links"
	GaugeLearnerMeanScore     = "learner_cst_mean_score"
	HistLearnerQueueHitRate   = "learner_queue_hit_rate"
)

// LearnerMetrics bridges interval samples into a live metrics registry, so
// /metrics carries the learner-health series while instrumented runs
// execute. A nil *LearnerMetrics (no registry attached) is the disabled
// configuration: Update is nil-safe and the collector hook reduces to one
// branch. Updates happen once per sampling interval — never on the
// per-access hot path.
type LearnerMetrics struct {
	accurate, late, evicted            *Counter
	explores, exploits, suppressed     *Counter
	posRewards, negRewards, zeroRew    *Counter
	insertions, replacements, rejects  *Counter
	epsilon, accuracy, useless         *Gauge
	cstEntries, cstLinks               *Gauge
	cstPositive, cstSaturated, meanSco *Gauge
	hitRate                            *Histogram
}

// hitRateBuckets spans the per-interval queue-hit rate: the rate can
// exceed 1 (one access can consume several queued predictions), so the
// buckets run 1% .. 256% by doubling.
var hitRateBuckets = []float64{0.01, 0.02, 0.04, 0.08, 0.16, 0.32, 0.64, 1.28, 2.56}

// NewLearnerMetrics registers the learner-health instruments on reg, or
// returns nil when reg is nil (the no-op path).
func NewLearnerMetrics(reg *Registry) *LearnerMetrics {
	if reg == nil {
		return nil
	}
	return &LearnerMetrics{
		accurate:     reg.Counter(MetricLearnerAccurate, "issued prefetches consumed in the useful window"),
		late:         reg.Counter(MetricLearnerLate, "issued prefetches consumed past the useful window"),
		evicted:      reg.Counter(MetricLearnerEvicted, "issued prefetches displaced from the queue unconsumed"),
		explores:     reg.Counter(MetricLearnerExplores, "policy exploration trainings"),
		exploits:     reg.Counter(MetricLearnerExploits, "best-link exploitation dispatch attempts"),
		suppressed:   reg.Counter(MetricLearnerSuppressed, "prediction rounds suppressed under the score threshold"),
		posRewards:   reg.Counter(MetricLearnerPosRewards, "queue-hit rewards with positive sign"),
		negRewards:   reg.Counter(MetricLearnerNegRewards, "queue-hit rewards with negative sign"),
		zeroRew:      reg.Counter(MetricLearnerZeroRewards, "queue-hit rewards with zero value"),
		insertions:   reg.Counter(MetricLearnerInsertions, "CST candidate link insertions"),
		replacements: reg.Counter(MetricLearnerReplacements, "CST candidate link replacements"),
		rejects:      reg.Counter(MetricLearnerRejects, "CST candidate inserts rejected by protected victims"),
		epsilon:      reg.Gauge(GaugeLearnerEpsilon, "exploration rate of the most recently sampled run"),
		accuracy:     reg.Gauge(GaugeLearnerAccuracy, "policy accuracy estimate of the most recently sampled run"),
		useless:      reg.Gauge(GaugeLearnerUseless, "issued prefetches still pending in the queue"),
		cstEntries:   reg.Gauge(GaugeLearnerCSTEntries, "occupied CST entries"),
		cstLinks:     reg.Gauge(GaugeLearnerCSTLinks, "resident CST links"),
		cstPositive:  reg.Gauge(GaugeLearnerCSTPositive, "CST links with positive accumulated reward"),
		cstSaturated: reg.Gauge(GaugeLearnerCSTSaturated, "CST links pinned at the score ceiling"),
		meanSco:      reg.Gauge(GaugeLearnerMeanScore, "mean CST link score"),
		hitRate:      reg.Histogram(HistLearnerQueueHitRate, "per-interval queue-hit rate", hitRateBuckets),
	}
}

// Update publishes one interval sample: counters advance by the sample's
// interval deltas, gauges take the point-in-time values, and the hit-rate
// histogram observes the interval's rate.
func (lm *LearnerMetrics) Update(s *Sample) {
	if lm == nil {
		return
	}
	lm.accurate.Add(s.Accurate)
	lm.late.Add(s.Late)
	lm.evicted.Add(s.Evicted)
	lm.explores.Add(s.Explores)
	lm.exploits.Add(s.Exploits)
	lm.suppressed.Add(s.Suppressed)
	lm.posRewards.Add(s.PosRewards)
	lm.negRewards.Add(s.NegRewards)
	lm.zeroRew.Add(s.ZeroRewards)
	lm.insertions.Add(s.CSTInsertions)
	lm.replacements.Add(s.CSTReplacements)
	lm.rejects.Add(s.CSTRejects)
	lm.epsilon.Set(s.Epsilon)
	lm.accuracy.Set(s.Accuracy)
	lm.useless.Set(float64(s.Useless))
	lm.cstEntries.Set(float64(s.CSTEntries))
	lm.cstLinks.Set(float64(s.CSTLinks))
	lm.cstPositive.Set(float64(s.CSTPositiveLinks))
	lm.cstSaturated.Set(float64(s.CSTSaturatedLinks))
	lm.meanSco.Set(s.CSTMeanScore)
	lm.hitRate.Observe(s.QueueHitRate)
}
