package serve

import (
	"semloc/internal/cache"
	"semloc/internal/core"
	"semloc/internal/memmodel"
	"semloc/internal/prefetch"
	"semloc/internal/trace"
)

// Learner wraps one session's context prefetcher behind a deterministic
// serving issuer: Decide feeds an access frame through core.OnAccess and
// collects the issued/shadow prefetch addresses into a decision frame.
//
// Serving has no simulated memory system, so the issuer is a fixed point:
// prefetch slots are always free and every real prefetch dispatches. That
// makes a daemon-side learner a pure function of (initial state, access
// stream) — which is what lets prefetchsim -remote cross-check daemon
// decisions against an in-process learner, and the chaos tests compare a
// killed-and-restored daemon against a never-killed reference.
//
// Learner is not goroutine-safe; the session worker serializes access.
type Learner struct {
	pf  *core.Prefetcher
	iss collectIssuer
	// seen counts accesses applied (the learner-side access index).
	seen uint64
}

// NewLearner builds a serving learner. A zero cfg means core defaults.
func NewLearner(cfg core.Config) (*Learner, error) {
	if cfg.CSTEntries == 0 {
		cfg = core.DefaultConfig()
	}
	pf, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	return &Learner{pf: pf}, nil
}

// RestoreLearner warm-starts a learner from saved state.
func RestoreLearner(st *core.LearnerState) (*Learner, error) {
	pf, err := core.NewFromState(st)
	if err != nil {
		return nil, err
	}
	l := &Learner{pf: pf}
	l.seen = pf.Metrics().Accesses
	return l, nil
}

// Save captures the learner's state for a snapshot.
func (l *Learner) Save() *core.LearnerState { return l.pf.SaveState() }

// Accesses returns how many accesses this learner has applied.
func (l *Learner) Accesses() uint64 { return l.pf.Metrics().Accesses }

// Health snapshots the learner's RL health (outcome taxonomy,
// explore/exploit split, reward-sign mix, CST occupancy and churn).
func (l *Learner) Health() core.LearnerHealth { return l.pf.LearnerHealth() }

// Explain returns the learner's top-K hottest contexts with their
// candidate score tables (see core.ExplainTopContexts).
func (l *Learner) Explain(topK int) []core.ContextExplain {
	return l.pf.ExplainTopContexts(topK)
}

// Decide applies one access frame and returns the decision frame (without
// Seq, which the session fills in).
func (l *Learner) Decide(fr *Frame) *Frame {
	pf, sh := l.apply(fr.PC, fr.Addr, fr.Value, fr.Reg, fr.BranchHist, fr.Store, fr.Hints)
	dec := &Frame{Type: FrameDecision}
	if len(pf) > 0 {
		dec.Prefetch = append([]uint64(nil), pf...)
	}
	if len(sh) > 0 {
		dec.Shadow = append([]uint64(nil), sh...)
	}
	return dec
}

// DecideAccess applies one batch item and returns the issued and shadow
// addresses. The returned slices are owned by the learner's issuer and
// valid only until the next Decide/DecideAccess call — callers copy what
// they keep. Batch serving uses this to avoid one slice allocation pair
// per access.
func (l *Learner) DecideAccess(a *BatchAccess) (prefetch, shadow []uint64) {
	return l.apply(a.PC, a.Addr, a.Value, a.Reg, a.BranchHist, a.Store, a.Hints)
}

// apply feeds one access through the prefetcher and returns the
// issuer-owned result slices.
func (l *Learner) apply(pc, addr, value, reg uint64, branchHist uint16, store bool, hints *Hints) ([]uint64, []uint64) {
	a := prefetch.Access{
		PC:         pc,
		Addr:       memmodel.Addr(addr),
		Line:       memmodel.Line(addr >> 6),
		Now:        cache.Cycle(l.seen),
		Index:      l.seen,
		IsStore:    store,
		Value:      value,
		Reg:        reg,
		BranchHist: branchHist,
	}
	if hints != nil {
		a.Hints = trace.SWHints{
			Valid:      hints.Valid,
			TypeID:     hints.TypeID,
			LinkOffset: hints.LinkOffset,
			RefForm:    trace.RefForm(hints.RefForm),
		}
	}
	l.iss.reset()
	l.pf.OnAccess(&a, &l.iss)
	l.seen++
	return l.iss.prefetches, l.iss.shadows
}

// collectIssuer is the serving-side prefetch.Issuer: it records addresses
// instead of driving a cache hierarchy. Slots never run out — backpressure
// is handled at the session layer, not by silently demoting predictions,
// so decisions stay a deterministic function of the access stream.
type collectIssuer struct {
	prefetches []uint64
	shadows    []uint64
}

func (c *collectIssuer) reset() {
	c.prefetches = c.prefetches[:0]
	c.shadows = c.shadows[:0]
}

// Prefetch implements prefetch.Issuer.
func (c *collectIssuer) Prefetch(addr memmodel.Addr, now cache.Cycle) bool {
	c.prefetches = append(c.prefetches, uint64(addr))
	return true
}

// Shadow implements prefetch.Issuer.
func (c *collectIssuer) Shadow(addr memmodel.Addr) {
	c.shadows = append(c.shadows, uint64(addr))
}

// FreePrefetchSlots implements prefetch.Issuer.
func (c *collectIssuer) FreePrefetchSlots(now cache.Cycle) int { return 1 << 20 }

// FallbackDecision is the degradation-ladder bottom rung: a next-line
// stride guess computed without touching any learner state, served
// immediately from the connection reader when a session's inbox is full.
// Cheap, stateless, safe to produce concurrently with the session worker.
func FallbackDecision(fr *Frame, blockShift uint) *Frame {
	blockBytes := uint64(1) << blockShift
	next := (fr.Addr &^ (blockBytes - 1)) + blockBytes
	return &Frame{
		Type:     FrameDecision,
		Seq:      fr.Seq,
		Prefetch: []uint64{next},
		Degraded: true,
	}
}

// FallbackBatchDecision is FallbackDecision for a whole batch: one
// next-line guess per access, produced without learner state when the
// session's inbox is full.
func FallbackBatchDecision(accs []BatchAccess, blockShift uint) *Frame {
	blockBytes := uint64(1) << blockShift
	out := &Frame{Type: FrameBatch, Results: make([]BatchDecision, len(accs))}
	for i := range accs {
		next := (accs[i].Addr &^ (blockBytes - 1)) + blockBytes
		out.Results[i] = BatchDecision{
			Seq:      accs[i].Seq,
			Prefetch: []uint64{next},
			Degraded: true,
		}
	}
	return out
}

// AccessFrames converts a trace's memory records into the access frames a
// client streams to the daemon, carrying the attributes the simulator
// hands its prefetcher (the branch history is the trace cursor's). Seq
// numbering starts at 1. The frames take one allocation and their hints
// one more, whatever the trace's length.
func AccessFrames(tr *trace.Trace) []Frame {
	out := make([]Frame, 0, tr.Accesses())
	var hints []Hints
	c := tr.Cursor()
	for c.Next() {
		r := c.Record()
		if !r.IsMem() {
			continue
		}
		out = append(out, Frame{
			Type:       FrameAccess,
			Seq:        uint64(len(out)) + 1,
			PC:         r.PC,
			Addr:       uint64(r.Addr),
			Value:      r.Value,
			Reg:        r.Reg,
			BranchHist: r.BranchHist,
			Store:      r.Kind == trace.KindStore,
		})
		if r.Hints.Valid {
			if hints == nil {
				// Sized for every access left, so appends never move
				// the hints earlier frames point to.
				hints = make([]Hints, 0, cap(out)-len(out)+1)
			}
			hints = append(hints, Hints{
				Valid:      true,
				TypeID:     r.Hints.TypeID,
				LinkOffset: r.Hints.LinkOffset,
				RefForm:    uint8(r.Hints.RefForm),
			})
			out[len(out)-1].Hints = &hints[len(hints)-1]
		}
	}
	return out
}

// SameDecision reports whether two decision frames carry the same
// prediction payload (ignoring transport markers like Replayed).
func SameDecision(a, b *Frame) bool {
	return equalU64(a.Prefetch, b.Prefetch) && equalU64(a.Shadow, b.Shadow)
}

func equalU64(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
