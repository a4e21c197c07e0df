// Package core implements the paper's contribution: the context-based
// memory prefetcher, which approximates semantic locality with a
// contextual-bandits reinforcement-learning loop (§4–§5).
//
// Three units operate on every demand access, mirroring Figure 6:
//
//   - The collection unit pushes the current context into a history queue
//     and associates sampled older contexts with the current address,
//     expanding the exploration space of the bandit.
//   - The prediction unit hashes the current context through the Reducer
//     (online feature selection) into the Context-States Table (CST),
//     and issues the highest-scoring candidate deltas as prefetches —
//     or, with probability ε, explores a random candidate as a shadow
//     prefetch.
//   - The feedback unit matches demand accesses against the prefetch
//     queue and applies the bell-shaped reward of Figure 5 to the
//     context→address association that made each prediction, closing the
//     reinforcement-learning loop. Expired predictions earn negative
//     rewards.
package core

import (
	"errors"
	"fmt"
)

// ErrBadConfig tags every configuration validation failure, so callers and
// the harness panic guard can classify MustNew panics with errors.Is.
var ErrBadConfig = errors.New("invalid prefetcher configuration")

// Config parameterizes the context prefetcher. The defaults reproduce the
// Table 2 budget (~31 kB of state).
type Config struct {
	// CSTEntries is the number of context-states-table entries (Table 2: 2K).
	CSTEntries int
	// CSTLinks is the number of (delta, score) pairs per CST entry (4).
	CSTLinks int
	// ReducerEntries sizes the feature-selection table (Table 2: 16K,
	// kept at 8x the CST size in the Figure 13 sweep).
	ReducerEntries int
	// HistoryDepth is the context history queue length (Table 2: 50).
	HistoryDepth int
	// QueueDepth is the prefetch queue length (Table 2: 128).
	QueueDepth int
	// SampleDepths are the history depths at which the collection unit
	// associates old contexts with the current address (depth d pairs the
	// context observed d+1 accesses ago with the current address). The
	// paper samples a subset of pairs instead of the full queue (§5); one
	// random depth is drawn per access. Depths must cover every residue of
	// small loop-body lengths — otherwise workloads whose loops issue k
	// memory accesses per iteration would only ever pair contexts across
	// streams — so the default is the dense range 1..48, spanning the
	// positive reward window.
	SampleDepths []int
	// Reward shapes the feedback function (Figure 5).
	Reward RewardConfig
	// Epsilon is the exploration rate of the ε-greedy policy.
	Epsilon float64
	// AdaptiveEpsilon scales exploration down as accuracy converges
	// (Tokic-style adaptation, §4.1).
	AdaptiveEpsilon bool
	// MaxDegree bounds the number of prefetches issued per access; the
	// effective degree is throttled by prediction accuracy (§5).
	MaxDegree int
	// MSHRReserve converts prefetches into shadow operations when fewer
	// than this many prefetch-request slots are free (§4.2's MSHR-pressure
	// throttle, applied to the resource prefetches actually occupy here).
	MSHRReserve int
	// ScoreThreshold is the minimum link score dispatched as a real
	// prefetch; lower-scoring candidates train as shadows.
	ScoreThreshold int8
	// BlockShift is log2 of the prefetcher's address granularity in bytes.
	// The paper operates on aligned blocks rather than words to avoid
	// thrashing its tables (§7.3); 6 matches the 64 B cache line.
	BlockShift uint
	// Policy selects the exploration strategy: the paper's ε-greedy
	// (default), or the softmax / UCB extensions (§8 future work).
	Policy PolicyKind
	// DisableReducer fixes the full attribute set (no feature selection);
	// ablation knob for the Reducer.
	DisableReducer bool
	// DisableShadow suppresses shadow prefetches; ablation knob.
	DisableShadow bool
	// Seed makes exploration deterministic.
	Seed uint64
}

func defaultSampleDepths() []int {
	out := make([]int, 0, 32)
	for d := 1; d <= 48; d++ {
		out = append(out, d)
	}
	return out
}

// DefaultConfig returns the configuration evaluated in the paper.
func DefaultConfig() Config {
	return Config{
		CSTEntries:      2048,
		CSTLinks:        4,
		ReducerEntries:  16384,
		HistoryDepth:    50,
		QueueDepth:      128,
		SampleDepths:    defaultSampleDepths(),
		Reward:          DefaultRewardConfig(),
		Epsilon:         0.05,
		AdaptiveEpsilon: true,
		MaxDegree:       8,
		MSHRReserve:     1,
		ScoreThreshold:  1,
		BlockShift:      6,
		Seed:            1,
	}
}

// Ceilings on the sizes New allocates and loops by: the CST, the reducer,
// the history and prefetch queues, and the reward table, which
// Reward.High sizes. They sit well above every configuration in use
// (Figure 13 stops at 2^15 CST entries, and cmd/sweep sizes the reducer at
// 8x the CST), so that a learner state restored from a snapshot cannot ask
// for unbounded memory or time.
const (
	maxCSTEntries     = 1 << 20
	maxReducerEntries = 1 << 23
	maxQueueDepth     = 1 << 16 // history and prefetch queues alike
	maxRewardHigh     = 1 << 16
)

// Validate reports configuration errors; every failure wraps ErrBadConfig.
func (c Config) Validate() error {
	if c.CSTEntries <= 0 || c.CSTEntries > maxCSTEntries || c.CSTEntries&(c.CSTEntries-1) != 0 {
		return fmt.Errorf("core: CSTEntries must be a power of two in 1..%d, got %d: %w", maxCSTEntries, c.CSTEntries, ErrBadConfig)
	}
	if c.CSTLinks <= 0 || c.CSTLinks > 8 {
		return fmt.Errorf("core: CSTLinks must be in 1..8, got %d: %w", c.CSTLinks, ErrBadConfig)
	}
	if c.ReducerEntries <= 0 || c.ReducerEntries > maxReducerEntries || c.ReducerEntries&(c.ReducerEntries-1) != 0 {
		return fmt.Errorf("core: ReducerEntries must be a power of two in 1..%d, got %d: %w", maxReducerEntries, c.ReducerEntries, ErrBadConfig)
	}
	if c.HistoryDepth <= 0 || c.HistoryDepth > maxQueueDepth {
		return fmt.Errorf("core: HistoryDepth must be in 1..%d, got %d: %w", maxQueueDepth, c.HistoryDepth, ErrBadConfig)
	}
	if c.QueueDepth <= 0 || c.QueueDepth > maxQueueDepth {
		return fmt.Errorf("core: QueueDepth must be in 1..%d, got %d: %w", maxQueueDepth, c.QueueDepth, ErrBadConfig)
	}
	for _, d := range c.SampleDepths {
		if d < 0 || d >= c.HistoryDepth {
			return fmt.Errorf("core: sample depth %d outside history depth %d: %w", d, c.HistoryDepth, ErrBadConfig)
		}
	}
	if len(c.SampleDepths) == 0 {
		return fmt.Errorf("core: at least one sample depth required: %w", ErrBadConfig)
	}
	if c.Epsilon < 0 || c.Epsilon > 1 {
		return fmt.Errorf("core: epsilon must be in [0,1], got %v: %w", c.Epsilon, ErrBadConfig)
	}
	if c.MaxDegree <= 0 {
		return fmt.Errorf("core: MaxDegree must be positive: %w", ErrBadConfig)
	}
	if c.BlockShift < 2 || c.BlockShift > 12 {
		return fmt.Errorf("core: BlockShift must be in 2..12, got %d: %w", c.BlockShift, ErrBadConfig)
	}
	if c.Policy >= policyKindCount {
		return fmt.Errorf("core: unknown policy %d: %w", c.Policy, ErrBadConfig)
	}
	if err := c.Reward.Validate(); err != nil {
		return fmt.Errorf("%w: %w", err, ErrBadConfig)
	}
	if c.Reward.High > maxRewardHigh {
		return fmt.Errorf("core: reward window high edge must be at most %d, got %d: %w", maxRewardHigh, c.Reward.High, ErrBadConfig)
	}
	return nil
}

// StorageBytes estimates the hardware budget of the configuration, using
// the paper's accounting (CST entry: 1 B tag + links x (1 B delta + 1 B
// score); reducer entry: 2 B tag+bitmap; history: 19-bit contexts; queue:
// address/context pairs).
func (c Config) StorageBytes() int {
	cst := c.CSTEntries * (1 + 2*c.CSTLinks)
	// Reducer entry: 2-bit tag + 4-bit bitmap over the activatable
	// attributes = 6 bits, the paper's 12 kB at 16K entries.
	reducer := c.ReducerEntries * 6 / 8
	history := c.HistoryDepth * (19 + 64) / 8
	queue := c.QueueDepth * (64 + 19 + 8) / 8
	return cst + reducer + history + queue
}
