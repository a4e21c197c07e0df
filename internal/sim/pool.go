package sim

import (
	"sync"

	"semloc/internal/cache"
)

// RunPool recycles the allocation-heavy per-run scratch of a simulation —
// the cache hierarchy and the prediction log — across runs, so N
// concurrent simulations sharing one pool reach a steady state where
// per-run allocations stop scaling with the run count. It is safe for
// concurrent use (each Get hands out a distinct scratch) and a nil
// *RunPool disables recycling entirely: every run then allocates fresh
// state, exactly as before pooling existed.
//
// Correctness contract (enforced by TestPooledRunsBitIdentical): a run on
// recycled scratch must be bit-identical to a run on fresh allocations.
// Scratch is reset on Get, never trusted from Put, so a run abandoned
// mid-flight (cancellation, recovered panic) can still return its scratch
// without poisoning the next user.
type RunPool struct {
	p sync.Pool
}

// NewRunPool builds an empty pool.
func NewRunPool() *RunPool { return &RunPool{} }

// scratch is the recyclable per-run state. Everything in it stays inside
// RunContext: nothing a scratch holds may be referenced by the returned
// Result (Result's histogram and statistics are separate copies), which is
// what makes returning it to the pool at end of run safe.
type scratch struct {
	cacheCfg cache.Config
	hier     *cache.Hierarchy
	plog     *predictionLog
}

// get returns a scratch ready for a run under the given cache
// configuration: the hierarchy is reset (or rebuilt when the cached one
// was built for a different configuration), the prediction log cleared.
// A nil receiver allocates fresh state.
func (rp *RunPool) get(cc cache.Config) (*scratch, error) {
	var s *scratch
	if rp != nil {
		s, _ = rp.p.Get().(*scratch)
	}
	if s == nil {
		s = &scratch{}
	}
	if s.hier == nil || s.cacheCfg != cc {
		h, err := cache.New(cc)
		if err != nil {
			return nil, err
		}
		s.hier, s.cacheCfg = h, cc
	} else {
		s.hier.Reset()
	}
	if s.plog == nil {
		s.plog = newPredictionLog(512)
	} else {
		s.plog.reset()
	}
	return s, nil
}

// put returns scratch to the pool for the next run. Nil-safe on both
// sides; with a nil pool the scratch is simply dropped for the GC.
func (rp *RunPool) put(s *scratch) {
	if rp == nil || s == nil {
		return
	}
	rp.p.Put(s)
}
