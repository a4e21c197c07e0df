package serve

import (
	"semloc/internal/cache"
	"semloc/internal/core"
	"semloc/internal/memmodel"
	"semloc/internal/prefetch"
	"semloc/internal/trace"
)

// Learner wraps one session's context prefetcher behind a deterministic
// serving issuer: DecideAccess feeds one access through core.OnAccess and
// collects the issued/shadow prefetch addresses.
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

// DecideAccess applies one access and returns the issued and shadow
// addresses. The returned slices are owned by the learner's issuer and
// valid only until the next DecideAccess call — callers copy what they
// keep.
func (l *Learner) DecideAccess(b *BatchAccess) (issued, shadow []uint64) {
	a := prefetch.Access{
		PC:         b.PC,
		Addr:       memmodel.Addr(b.Addr),
		Line:       memmodel.Line(b.Addr >> 6),
		Now:        cache.Cycle(l.seen),
		Index:      l.seen,
		IsStore:    b.Store,
		Value:      b.Value,
		Reg:        b.Reg,
		BranchHist: b.BranchHist,
	}
	if h := b.Hints; h != nil {
		a.Hints = trace.SWHints{
			Valid:      h.Valid,
			TypeID:     h.TypeID,
			LinkOffset: h.LinkOffset,
			RefForm:    trace.RefForm(h.RefForm),
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

// fallback fills the scratch with the degradation-ladder bottom rung:
// one next-line stride guess per access, computed without touching any
// learner state, served immediately from the connection reader when a
// session's inbox is full. Cheap, stateless, safe to produce concurrently
// with the session worker.
func (sc *replyScratch) fallback(accs []BatchAccess, blockShift uint) {
	blockBytes := uint64(1) << blockShift
	sc.reset()
	for i := range accs {
		next := (accs[i].Addr &^ (blockBytes - 1)) + blockBytes
		sc.res = append(sc.res, BatchDecision{Seq: accs[i].Seq, Prefetch: sc.addrs.keep(next), Degraded: true})
	}
}

// AccessFrames converts a trace's memory records into the access frames a
// client streams to the daemon, carrying the attributes the simulator
// hands its prefetcher (the branch history is the trace cursor's). Seq
// numbering starts at 1. The frames take one allocation and their hints
// one more, whatever the trace's length.
func AccessFrames(tr *trace.Trace) []Frame {
	// Each frame is written in place: appending a Frame literal copies
	// the whole frame for every access.
	out := make([]Frame, tr.Accesses())
	n := 0
	var hints []Hints
	c := tr.Cursor()
	for c.Next() {
		r := c.Record()
		if !r.IsMem() {
			continue
		}
		f := &out[n]
		n++
		f.Type, f.Seq = FrameAccess, uint64(n)
		f.PC, f.Addr, f.Value, f.Reg = r.PC, uint64(r.Addr), r.Value, r.Reg
		f.BranchHist, f.Store = r.BranchHist, r.Kind == trace.KindStore
		if r.Hints.Valid {
			if hints == nil {
				// Sized for every access left, so appends never move
				// the hints earlier frames point to.
				hints = make([]Hints, 0, len(out)-n+1)
			}
			hints = append(hints, Hints{
				Valid:      true,
				TypeID:     r.Hints.TypeID,
				LinkOffset: r.Hints.LinkOffset,
				RefForm:    uint8(r.Hints.RefForm),
			})
			f.Hints = &hints[len(hints)-1]
		}
	}
	return out[:n]
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
