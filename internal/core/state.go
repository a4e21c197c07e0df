package core

import (
	"fmt"
)

// Learner-state serialization. LearnerState is the complete mutable state
// of a context prefetcher — configuration, learned tables (Reducer, CST),
// the collection/feedback queues, the policy and machine registers, and
// the counters — in a JSON-friendly shape. It exists so a serving daemon
// can snapshot a live learner and warm-start an identical one after a
// restart: a prefetcher restored from a state behaves bit-identically to
// the one that saved it (the chaos tests in internal/serve and the
// property tests here rely on that).
//
// Determinism contract: the encoding uses only slices ordered by table
// index (never maps), so marshaling is deterministic and
// save → marshal → unmarshal → restore → save → marshal yields
// byte-identical output. Tables are stored sparsely (valid entries only,
// each tagged with its index); the ring buffers (history, prefetch queue)
// are stored densely because slot positions are state.

// StateSchema versions the LearnerState encoding.
const StateSchema = 1

// LearnerState is the serializable snapshot of a Prefetcher.
type LearnerState struct {
	Schema int    `json:"schema"`
	Config Config `json:"config"`
	// Index is the demand-access counter.
	Index uint64 `json:"index"`
	// Metrics carries the counters, including the hit-depth histogram.
	Metrics Metrics `json:"metrics"`
	// Policy is the bandit state.
	Policy PolicyState `json:"policy"`
	// Machine holds the hardware attribute registers.
	Machine MachineRegs `json:"machine"`
	// Reducer and CST are the learned tables, sparse by ascending index.
	Reducer []ReducerEntryState `json:"reducer"`
	CST     []CSTEntryState     `json:"cst"`
	// History and Queue are the collection/feedback rings, dense.
	History HistoryState `json:"history"`
	Queue   QueueState   `json:"queue"`
}

// PolicyState serializes the bandit.
type PolicyState struct {
	Epsilon  float64 `json:"epsilon"`
	Base     float64 `json:"base"`
	Accuracy float64 `json:"accuracy"`
	RNG      uint64  `json:"rng"`
}

// MachineRegs serializes the machineState attribute registers.
type MachineRegs struct {
	LastLines [2]uint64 `json:"last_lines"`
	LastValue uint64    `json:"last_value"`
}

// ReducerEntryState is one valid reducer entry.
type ReducerEntryState struct {
	Idx        int   `json:"idx"`
	Tag        uint8 `json:"tag"`
	Active     uint8 `json:"active"`
	ColdStreak uint8 `json:"cold_streak"`
}

// CSTEntryState is one valid CST entry; Links is always CSTLinks long so
// link positions (which candidate indexing depends on) survive the trip.
type CSTEntryState struct {
	Idx    int         `json:"idx"`
	Tag    uint8       `json:"tag"`
	Trials uint16      `json:"trials"`
	Churn  uint8       `json:"churn"`
	Links  []LinkState `json:"links"`
}

// LinkState is one (delta, score) link slot.
type LinkState struct {
	Delta int8 `json:"delta"`
	Score int8 `json:"score"`
	Used  bool `json:"used"`
}

// HistoryState is the dense history ring.
type HistoryState struct {
	Head    int                 `json:"head"`
	Size    int                 `json:"size"`
	Entries []HistoryEntryState `json:"entries"`
}

// HistoryEntryState is one history slot.
type HistoryEntryState struct {
	KeyIdx int   `json:"key_idx"`
	KeyTag uint8 `json:"key_tag"`
	Block  int64 `json:"block"`
	Live   bool  `json:"live"`
}

// QueueState is the dense prefetch-queue ring; bucket chains are an index
// over this state and are rebuilt on restore.
type QueueState struct {
	Head    int            `json:"head"`
	Size    int            `json:"size"`
	Entries []PFEntryState `json:"entries"`
}

// PFEntryState is one prefetch-queue slot.
type PFEntryState struct {
	Block  int64  `json:"block"`
	KeyIdx int    `json:"key_idx"`
	KeyTag uint8  `json:"key_tag"`
	Delta  int8   `json:"delta"`
	Slot   uint8  `json:"slot,omitempty"`
	Index  uint64 `json:"index"`
	Issued bool   `json:"issued"`
	Hit    bool   `json:"hit"`
	Live   bool   `json:"live"`
}

// SaveState captures the complete mutable state of the prefetcher. The
// caller must ensure no concurrent OnAccess (the prefetcher itself is not
// goroutine-safe, so any serializing caller already does).
func (p *Prefetcher) SaveState() *LearnerState {
	metrics := p.metrics
	if metrics.HitDepths != nil {
		metrics.HitDepths = metrics.HitDepths.Clone()
	}
	st := &LearnerState{
		Schema:  StateSchema,
		Config:  p.cfg,
		Index:   p.index,
		Metrics: metrics,
		Policy: PolicyState{
			Epsilon:  p.policy.epsilon,
			Base:     p.policy.base,
			Accuracy: p.policy.accuracy,
			RNG:      p.policy.rng,
		},
		Machine: MachineRegs{
			LastLines: p.machine.lastLines,
			LastValue: p.machine.lastValue,
		},
	}
	for i := range p.reducer.entries {
		e := &p.reducer.entries[i]
		if !e.valid {
			continue
		}
		st.Reducer = append(st.Reducer, ReducerEntryState{
			Idx: i, Tag: e.tag, Active: uint8(e.active), ColdStreak: e.coldStreak,
		})
	}
	for i := range p.table.entries {
		e := &p.table.entries[i]
		if !e.valid {
			continue
		}
		es := CSTEntryState{Idx: i, Tag: e.tag, Trials: e.trials, Churn: e.churn,
			Links: make([]LinkState, int(e.links))}
		for li := 0; li < int(e.links); li++ {
			es.Links[li] = LinkState{Delta: e.deltas[li], Score: e.scores[li], Used: e.isUsed(li)}
		}
		st.CST = append(st.CST, es)
	}
	st.History = HistoryState{
		Head: p.history.head, Size: p.history.size,
		Entries: make([]HistoryEntryState, len(p.history.entries)),
	}
	for i, e := range p.history.entries {
		st.History.Entries[i] = HistoryEntryState{
			KeyIdx: int(e.key.idx), KeyTag: e.key.tag, Block: e.block, Live: e.live,
		}
	}
	st.Queue = QueueState{
		Head: p.queue.head, Size: p.queue.size,
		Entries: make([]PFEntryState, len(p.queue.entries)),
	}
	for i, e := range p.queue.entries {
		st.Queue.Entries[i] = PFEntryState{
			Block: e.block, KeyIdx: int(e.key.idx), KeyTag: e.key.tag, Delta: e.delta, Slot: e.slot,
			Index: e.index, Issued: e.issued, Hit: e.hit, Live: e.live,
		}
	}
	return st
}

// Validate checks the structural invariants a state must satisfy before it
// can be restored. Every failure wraps ErrBadConfig so callers can
// distinguish corrupt state from I/O errors.
func (st *LearnerState) Validate() error {
	if st == nil {
		return fmt.Errorf("core: nil learner state: %w", ErrBadConfig)
	}
	if st.Schema != StateSchema {
		return fmt.Errorf("core: learner state schema %d, want %d: %w", st.Schema, StateSchema, ErrBadConfig)
	}
	if err := st.Config.Validate(); err != nil {
		return err
	}
	prev := -1
	for _, e := range st.Reducer {
		if e.Idx <= prev || e.Idx >= st.Config.ReducerEntries {
			return fmt.Errorf("core: reducer state index %d out of order or range: %w", e.Idx, ErrBadConfig)
		}
		prev = e.Idx
	}
	prev = -1
	for _, e := range st.CST {
		if e.Idx <= prev || e.Idx >= st.Config.CSTEntries {
			return fmt.Errorf("core: CST state index %d out of order or range: %w", e.Idx, ErrBadConfig)
		}
		prev = e.Idx
		if len(e.Links) != st.Config.CSTLinks {
			return fmt.Errorf("core: CST state entry %d has %d links, want %d: %w",
				e.Idx, len(e.Links), st.Config.CSTLinks, ErrBadConfig)
		}
	}
	if len(st.History.Entries) != st.Config.HistoryDepth ||
		st.History.Head < 0 || st.History.Head >= st.Config.HistoryDepth ||
		st.History.Size < 0 || st.History.Size > st.Config.HistoryDepth {
		return fmt.Errorf("core: history state inconsistent with depth %d: %w", st.Config.HistoryDepth, ErrBadConfig)
	}
	for _, e := range st.History.Entries {
		if e.KeyIdx < 0 || e.KeyIdx >= st.Config.CSTEntries {
			return fmt.Errorf("core: history state key index %d out of range: %w", e.KeyIdx, ErrBadConfig)
		}
	}
	if len(st.Queue.Entries) != st.Config.QueueDepth ||
		st.Queue.Head < 0 || st.Queue.Head >= st.Config.QueueDepth ||
		st.Queue.Size < 0 || st.Queue.Size > st.Config.QueueDepth {
		return fmt.Errorf("core: queue state inconsistent with depth %d: %w", st.Config.QueueDepth, ErrBadConfig)
	}
	for _, e := range st.Queue.Entries {
		if e.KeyIdx < 0 || e.KeyIdx >= st.Config.CSTEntries {
			return fmt.Errorf("core: queue state key index %d out of range: %w", e.KeyIdx, ErrBadConfig)
		}
	}
	if st.Metrics.HitDepths == nil {
		return fmt.Errorf("core: learner state missing hit-depth histogram: %w", ErrBadConfig)
	}
	return nil
}

// NewFromState reconstructs a prefetcher from a saved state. The result is
// behaviourally identical to the prefetcher that produced the state: the
// same future access stream yields the same predictions, metrics and
// further saved states.
func NewFromState(st *LearnerState) (*Prefetcher, error) {
	if err := st.Validate(); err != nil {
		return nil, err
	}
	p, err := New(st.Config)
	if err != nil {
		return nil, err
	}
	p.index = st.Index
	p.metrics = st.Metrics
	p.metrics.HitDepths = st.Metrics.HitDepths.Clone()
	// OutcomeUseless is snapshot-only (see Metrics): the live struct keeps
	// it zero and the accessor fills it from the recomputed pending count.
	p.metrics.OutcomeUseless = 0
	p.policy.epsilon = st.Policy.Epsilon
	p.policy.base = st.Policy.Base
	p.policy.accuracy = st.Policy.Accuracy
	p.policy.rng = st.Policy.RNG
	p.machine.lastLines = st.Machine.LastLines
	p.machine.lastValue = st.Machine.LastValue
	for _, e := range st.Reducer {
		p.reducer.entries[e.Idx] = reducerEntry{
			tag: e.Tag, active: AttrSet(e.Active), coldStreak: e.ColdStreak, valid: true,
		}
	}
	for _, e := range st.CST {
		dst := &p.table.entries[e.Idx]
		dst.tag = e.Tag
		dst.valid = true
		dst.trials = e.Trials
		dst.churn = e.Churn
		for li, l := range e.Links {
			dst.deltas[li] = l.Delta
			dst.scores[li] = l.Score
			if l.Used {
				dst.used |= 1 << uint(li)
			}
		}
		dst.rebuildOrder()
	}
	p.history.head = st.History.Head
	p.history.size = st.History.Size
	for i, e := range st.History.Entries {
		p.history.entries[i] = historyEntry{
			key: cstKey{idx: int32(e.KeyIdx), tag: e.KeyTag}, block: e.Block, live: e.Live,
		}
	}
	p.queue.head = st.Queue.Head
	p.queue.size = st.Queue.Size
	for i, e := range st.Queue.Entries {
		p.queue.entries[i] = pfEntry{
			block: e.Block, key: cstKey{idx: int32(e.KeyIdx), tag: e.KeyTag}, delta: e.Delta,
			slot: e.Slot, index: e.Index, issued: e.Issued, hit: e.Hit, live: e.Live, next: nilIdx,
		}
	}
	// Rebuild the block→entry bucket index: link live, unhit slots in
	// ascending slot order, reproducing the chains the saving queue held.
	// The pending-issued count (which the Metrics accessor reports as
	// OutcomeUseless) is derived from the same population, so recompute it
	// here rather than serializing it: a restored prefetcher's taxonomy
	// books balance exactly like the saver's did.
	p.pendingIssued = 0
	for i := range p.queue.entries {
		if p.queue.entries[i].live && !p.queue.entries[i].hit {
			p.queue.link(p.queue.bucket(p.queue.entries[i].block), int32(i))
			if p.queue.entries[i].issued {
				p.pendingIssued++
			}
		}
	}
	return p, nil
}
