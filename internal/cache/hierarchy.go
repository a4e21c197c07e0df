package cache

import (
	"semloc/internal/memmodel"
)

// Outcome describes where a demand access was satisfied.
type Outcome uint8

// Demand access outcomes.
const (
	// OutcomeL1Hit: data present in L1 when the access issued.
	OutcomeL1Hit Outcome = iota
	// OutcomeL1InFlight: the line was already being filled into L1 (by a
	// prefetch or an earlier miss); the access waits for the fill.
	OutcomeL1InFlight
	// OutcomeL2Hit: missed L1, hit L2.
	OutcomeL2Hit
	// OutcomeL2InFlight: missed L1, merged with an outstanding L2 fill.
	OutcomeL2InFlight
	// OutcomeMemory: missed both levels; fetched from DRAM.
	OutcomeMemory
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case OutcomeL1Hit:
		return "l1-hit"
	case OutcomeL1InFlight:
		return "l1-inflight"
	case OutcomeL2Hit:
		return "l2-hit"
	case OutcomeL2InFlight:
		return "l2-inflight"
	case OutcomeMemory:
		return "memory"
	default:
		return "outcome(?)"
	}
}

// Result describes one demand access.
type Result struct {
	// Done is the cycle at which the data is available to the core.
	Done Cycle
	// Outcome is where the access was satisfied.
	Outcome Outcome
	// PrefetchedLine reports that the satisfying L1 line was brought in by a
	// prefetch and this is its first demand touch ("hit prefetched line" /
	// "shorter wait time" in Figure 9, depending on Outcome).
	PrefetchedLine bool
}

// Hierarchy is the two-level cache system.
type Hierarchy struct {
	cfg      Config
	l1       *level
	l2       *level
	pfQue    mshrFile // outstanding-prefetch limiter (request queue)
	dram     mshrFile // DRAM channel occupancy (bandwidth model)
	dramBusy Cycle
}

// New builds a hierarchy; the configuration must be valid.
func New(cfg Config) (*Hierarchy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pq := cfg.PrefetchQueue
	if pq <= 0 {
		pq = 8
	}
	ch := cfg.DRAMChannels
	if ch <= 0 {
		ch = 4
	}
	busy := cfg.DRAMBusyCycles
	if busy == 0 {
		busy = 16
	}
	return &Hierarchy{
		cfg: cfg, l1: newLevel(cfg.L1), l2: newLevel(cfg.L2),
		pfQue: newMSHRFile(pq), dram: newMSHRFile(ch), dramBusy: busy,
	}, nil
}

// MustNew builds a hierarchy and panics on configuration errors (the panic
// value is an error wrapping ErrBadConfig, which the simulation harness
// recovers into a typed run failure); intended for tests and defaults
// known to be valid.
func MustNew(cfg Config) *Hierarchy {
	h, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return h
}

// Config returns the hierarchy's configuration.
func (h *Hierarchy) Config() Config { return h.cfg }

// Reset returns the hierarchy to its just-constructed state in place —
// every line invalid, all MSHRs and DRAM channels free, statistics zeroed —
// without reallocating the way arrays. A reset hierarchy must behave
// bit-identically to a freshly built one; the run-scratch pool
// (sim.RunPool) relies on this to recycle hierarchies across runs.
func (h *Hierarchy) Reset() {
	h.l1.reset()
	h.l2.reset()
	h.pfQue.reset()
	h.dram.reset()
}

// Access performs a demand load to the line containing addr at cycle now
// and returns when and where it was satisfied.
func (h *Hierarchy) Access(addr memmodel.Addr, now Cycle) Result {
	return h.access(addr, now, false)
}

// AccessWrite performs a demand store (write-allocate, write-back): the
// line is fetched like a load but marked dirty, so its eventual eviction
// generates write-back traffic.
func (h *Hierarchy) AccessWrite(addr memmodel.Addr, now Cycle) Result {
	return h.access(addr, now, true)
}

func (h *Hierarchy) access(addr memmodel.Addr, now Cycle, store bool) Result {
	line := memmodel.LineOf(addr)
	h.l1.stats.Accesses++

	if wi := h.l1.lookup(line); wi >= 0 {
		h.l1.touch(wi)
		m := &h.l1.meta[wi]
		if store {
			m.dirty = true
		}
		firstPrefetchTouch := m.prefetched && !m.everUsed
		if firstPrefetchTouch {
			m.everUsed = true
		}
		if ft := h.l1.fill[wi]; ft > now {
			// Line still in flight: wait for the fill.
			h.l1.stats.Misses++
			h.l1.stats.InFlightHits++
			return Result{Done: maxCycle(ft, now+h.cfg.L1.Latency), Outcome: OutcomeL1InFlight, PrefetchedLine: firstPrefetchTouch}
		}
		// Plain L1 hit.
		return Result{Done: now + h.cfg.L1.Latency, Outcome: OutcomeL1Hit, PrefetchedLine: firstPrefetchTouch}
	}

	// L1 miss.
	h.l1.stats.Misses++
	start, idx := h.l1.mshr.acquire(now)
	fill, outcome := h.accessL2(line, start+h.cfg.L1.Latency, false)
	h.l1.mshr.hold(idx, fill)
	wi, dirtyEvict := h.l1.install(line, now, fill, false, false)
	if store {
		h.l1.meta[wi].dirty = true
	}
	if dirtyEvict {
		// L1 write-back drains into the L2 (marking it dirty there);
		// no DRAM traffic yet.
		h.markL2Dirty(line)
	}
	return Result{Done: fill, Outcome: outcome}
}

// markL2Dirty propagates an L1 write-back into the L2 copy when present.
func (h *Hierarchy) markL2Dirty(line memmodel.Line) {
	// The evicted line's L2 copy is usually resident (it was filled on the
	// original miss); if it has since been evicted, the write-back would
	// allocate, which this model folds into the general DRAM traffic.
	if wi := h.l2.lookup(line); wi >= 0 {
		h.l2.meta[wi].dirty = true
	}
}

// accessL2 handles an L1 miss (demand or prefetch) arriving at the L2 at
// cycle t. It returns the fill-completion time and the outcome
// classification.
func (h *Hierarchy) accessL2(line memmodel.Line, t Cycle, prefetch bool) (Cycle, Outcome) {
	if !prefetch {
		h.l2.stats.Accesses++
	}
	if wi := h.l2.lookup(line); wi >= 0 {
		h.l2.touch(wi)
		m := &h.l2.meta[wi]
		if m.prefetched && !m.everUsed && !prefetch {
			m.everUsed = true
		}
		ft := h.l2.fill[wi]
		if ft <= t {
			return t + h.cfg.L2.Latency, OutcomeL2Hit
		}
		if !prefetch {
			h.l2.stats.Misses++
			h.l2.stats.InFlightHits++
		}
		return maxCycle(ft, t+h.cfg.L2.Latency), OutcomeL2InFlight
	}
	if !prefetch {
		h.l2.stats.Misses++
	}
	start, idx := h.l2.mshr.acquire(t)
	// DRAM bandwidth: the request must also win a channel, which stays
	// busy for dramBusy cycles after the transfer begins.
	chStart, ch := h.dram.acquire(start)
	h.dram.hold(ch, chStart+h.dramBusy)
	fill := chStart + h.cfg.L2.Latency + h.cfg.DRAMLatency
	h.l2.mshr.hold(idx, fill)
	// Prefetch fills install at LRU position (prefetch-conscious
	// insertion): inaccurate prefetches are evicted first and cannot
	// thrash an L2-resident working set.
	if _, dirtyEvict := h.l2.install(line, t, fill, prefetch, prefetch); dirtyEvict {
		// Evicting a dirty L2 line writes it back to DRAM, consuming a
		// channel slot (the fill itself is unaffected: eviction buffers
		// decouple the two transfers).
		wbStart, wb := h.dram.acquire(fill)
		h.dram.hold(wb, wbStart+h.dramBusy)
	}
	return fill, OutcomeMemory
}

// Prefetch requests that the line containing addr be brought into the L1 at
// cycle now. It returns false if the prefetch was dropped because the line
// is already present or in flight at L1 (no new traffic generated).
//
// Prefetch fills allocate into both levels, mirroring a demand fill path,
// but travel through the prefetcher's own request queue between the L1 and
// the L2 rather than occupying the small demand MSHR file — the standard
// arrangement for an L1 prefetcher, and what keeps prefetching from
// stealing the demand stream's miss bandwidth. The L2's MSHRs still bound
// total outstanding traffic.
func (h *Hierarchy) Prefetch(addr memmodel.Addr, now Cycle) bool {
	line := memmodel.LineOf(addr)
	if h.l1.lookup(line) >= 0 {
		h.l1.stats.PrefetchDrops++
		return false
	}
	h.l1.stats.Prefetches++
	start, idx := h.pfQue.acquire(now)
	fill, _ := h.accessL2(line, start+h.cfg.L1.Latency, true)
	h.pfQue.hold(idx, fill)
	if _, dirtyEvict := h.l1.install(line, now, fill, true, false); dirtyEvict {
		h.markL2Dirty(line)
	}
	return true
}

// FreePrefetchSlots returns the number of free prefetch-request-queue
// slots at cycle now. The context prefetcher consults this to convert
// prefetches into shadow operations when the memory system is stressed
// (§4.2; the paper checks MSHR availability — in this model prefetches
// travel through their own request queue, so that queue is the stressed
// resource).
func (h *Hierarchy) FreePrefetchSlots(now Cycle) int { return h.pfQue.free(now) }

// Stats returns per-level statistics. FinishStats must be called first for
// useless-prefetch counts to include still-resident lines.
func (h *Hierarchy) Stats() (l1, l2 LevelStats) { return h.l1.stats, h.l2.stats }

// FinishStats folds still-resident never-used prefetched lines into the
// useless-prefetch counters. Call once at end of simulation.
func (h *Hierarchy) FinishStats() {
	h.l1.flushNeverUsed()
	h.l2.flushNeverUsed()
}

// ResetStats clears statistics counters (used at the warm-up boundary) while
// preserving cache contents.
func (h *Hierarchy) ResetStats() {
	h.l1.stats = LevelStats{Name: h.l1.cfg.Name}
	h.l2.stats = LevelStats{Name: h.l2.cfg.Name}
}

func maxCycle(a, b Cycle) Cycle {
	if a > b {
		return a
	}
	return b
}
