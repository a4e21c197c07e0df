// Package sim wires a workload trace, the out-of-order core model, the
// cache hierarchy and a prefetcher into one simulation run, and collects
// the metrics the paper's evaluation reports: IPC/CPI (Figure 12/14),
// per-level MPKI (Figures 10/11), the access-category breakdown
// (Figure 9) and the prediction hit-depth distribution (Figure 8).
package sim

import (
	"context"
	"fmt"
	"sync/atomic"

	"semloc/internal/cache"
	"semloc/internal/cpu"
	"semloc/internal/memmodel"
	"semloc/internal/obs"
	"semloc/internal/prefetch"
	"semloc/internal/stats"
	"semloc/internal/trace"
)

// Config combines the machine parameters.
type Config struct {
	CPU   cpu.Config
	Cache cache.Config
	// Obs enables telemetry for the run (interval time-series sampling and
	// the sampled decision trace). The zero value disables it entirely:
	// the simulation then runs the exact pre-telemetry hot path (one
	// branch-on-nil per access) and produces bit-identical results.
	Obs obs.Config
	// Pool, when non-nil, recycles per-run scratch (cache hierarchy,
	// prediction log) across runs sharing the pool.
	// Pooled and unpooled runs are bit-identical; nil keeps the historic
	// allocate-per-run behaviour.
	Pool *RunPool `json:"-"`
}

// DefaultConfig returns the Table 2 machine.
func DefaultConfig() Config {
	return Config{CPU: cpu.DefaultConfig(), Cache: cache.DefaultConfig()}
}

// Categories is the Figure 9 access breakdown. All counters are demand
// accesses except PrefetchNeverHit, which counts wasted prefetches and is
// reported on top of the demand accesses (the paper's bars pass 100% for
// the same reason).
type Categories struct {
	// HitPrefetched: demand hit a line a prefetch brought in on time.
	HitPrefetched uint64
	// ShorterWait: demand missed but merged with an in-flight prefetch.
	ShorterWait uint64
	// NonTimely: the prefetcher predicted the address but no request was
	// issued to memory before the demand access.
	NonTimely uint64
	// MissNotPrefetched: demand missed with no prediction at all.
	MissNotPrefetched uint64
	// HitOlderDemand: demand hit with no prefetch needed.
	HitOlderDemand uint64
	// PrefetchNeverHit: prefetched lines evicted (or left) untouched.
	PrefetchNeverHit uint64
	// Demand is the total number of demand accesses.
	Demand uint64
}

// Result is the outcome of one simulation run.
type Result struct {
	// Workload and Prefetcher identify the run.
	Workload, Prefetcher string
	// CPU holds timing results (post-warm-up).
	CPU cpu.Result
	// L1 and L2 hold cache statistics (post-warm-up).
	L1, L2 cache.LevelStats
	// Categories is the Figure 9 breakdown (post-warm-up).
	Categories Categories
	// HitDepths is the distribution of accesses between a prediction and
	// the demand that consumed it (Figure 8), over real and shadow
	// predictions alike.
	HitDepths *stats.Histogram
	// Series is the telemetry time series (nil unless Config.Obs enabled
	// interval sampling).
	Series *obs.Series `json:",omitempty"`
}

// L1MPKI returns L1 demand misses per kilo-instruction.
func (r *Result) L1MPKI() float64 {
	if r.CPU.Instructions == 0 {
		return 0
	}
	return float64(r.L1.Misses) / float64(r.CPU.Instructions) * 1000
}

// L2MPKI returns L2 demand misses per kilo-instruction.
func (r *Result) L2MPKI() float64 {
	if r.CPU.Instructions == 0 {
		return 0
	}
	return float64(r.L2.Misses) / float64(r.CPU.Instructions) * 1000
}

// IPC returns the run's instructions per cycle.
func (r *Result) IPC() float64 { return r.CPU.IPC() }

// metricsResetter lets prefetchers with internal statistics participate in
// the warm-up boundary (implemented by core.Prefetcher).
type metricsResetter interface{ ResetMetrics() }

// Run simulates the trace with the given prefetcher. It is RunContext
// with a background context.
func Run(tr *trace.Trace, pf prefetch.Prefetcher, cfg Config) (*Result, error) {
	return RunContext(context.Background(), tr, pf, cfg)
}

// RunContext simulates the trace with the given prefetcher under ctx:
// cancelling the context stops the simulation loop promptly with an error
// wrapping the cancellation cause. Callers that need watchdog supervision
// and panic containment on top should run through the harness package.
func RunContext(ctx context.Context, tr *trace.Trace, pf prefetch.Prefetcher, cfg Config) (*Result, error) {
	sc, err := cfg.Pool.get(cfg.Cache)
	if err != nil {
		return nil, err
	}
	// Returned unconditionally (error, cancellation, even panic unwind to
	// the harness recover): get resets scratch before reuse, so a partially
	// used scratch cannot poison a later run.
	defer cfg.Pool.put(sc)
	ad := &adapter{
		hier:      sc.hier,
		pf:        pf,
		hitDepths: stats.NewHistogram(192),
		predLog:   sc.plog,
	}
	cpuCfg := cfg.CPU
	obsCfg := cfg.Obs
	src, learns := pf.(obs.CoreSource)
	if !learns {
		// The learner gauges hold the last run that had a learner; a run
		// without one has nothing to publish over them.
		obsCfg.Learner = nil
	}
	col := obs.NewCollector(obsCfg) // nil when telemetry is disabled
	if col != nil {
		ad.col = col
		ad.coreSrc = src
		if att, ok := pf.(obs.Attachable); ok {
			att.AttachTelemetry(col)
		}
		// The sampler reads retired instructions from the core model's
		// progress counter (the watchdog shares it when supervision is on).
		if cpuCfg.Progress == nil {
			cpuCfg.Progress = new(atomic.Uint64)
		}
		ad.progress = cpuCfg.Progress
	}
	// Chain rather than replace a caller-provided warm-up hook: the
	// experiment engine uses it to timestamp the warmup/measured phase
	// boundary for span tracing.
	callerWarmup := cpuCfg.OnWarmupEnd
	cpuCfg.OnWarmupEnd = func(now cache.Cycle) {
		ad.hier.ResetStats()
		ad.cats = Categories{}
		ad.hitDepths.Reset()
		if r, ok := pf.(metricsResetter); ok {
			r.ResetMetrics()
		}
		col.NoteWarmupEnd(ad.accessIdx)
		if callerWarmup != nil {
			callerWarmup(now)
		}
	}
	cpuRes, err := cpu.RunContext(ctx, tr, ad, cpuCfg)
	if err != nil {
		return nil, err
	}
	ad.hier.FinishStats()
	l1, l2 := ad.hier.Stats()
	ad.cats.PrefetchNeverHit = l1.UselessEvicts
	ad.cats.Demand = l1.Accesses
	res := &Result{
		Workload:   tr.Name,
		Prefetcher: pf.Name(),
		CPU:        cpuRes,
		L1:         l1,
		L2:         l2,
		Categories: ad.cats,
		HitDepths:  ad.hitDepths,
	}
	if col != nil {
		// Close the series with an end-of-run sample (so even a run shorter
		// than one interval exports a non-empty curve), then surface any
		// decision-sink failure: telemetry loss is loud, not silent.
		if col.SamplingEnabled() && col.LastIndex() < ad.accessIdx {
			ad.sample(ad.lastNow)
		}
		res.Series = col.Series()
		if err := col.Flush(); err != nil {
			return nil, fmt.Errorf("sim: %s/%s telemetry: %w", tr.Name, pf.Name(), err)
		}
	}
	return res, nil
}

// adapter implements cpu.Memory: it performs the demand access, classifies
// it (Figure 9), and drives the prefetcher.
type adapter struct {
	hier      *cache.Hierarchy
	pf        prefetch.Prefetcher
	accessIdx uint64
	cats      Categories
	hitDepths *stats.Histogram
	predLog   *predictionLog
	// col/coreSrc/progress drive telemetry (all nil when disabled; the
	// per-access cost of the disabled path is one branch).
	col      *obs.Collector
	coreSrc  obs.CoreSource
	progress *atomic.Uint64
	lastNow  cache.Cycle
	// acc is the Access scratch passed to the prefetcher each call; a local
	// would escape through the interface call and allocate per access.
	// Prefetchers must not retain the pointer past OnAccess.
	acc prefetch.Access
}

var _ cpu.Memory = (*adapter)(nil)

// Access implements cpu.Memory.
func (m *adapter) Access(rec *trace.Record, now cache.Cycle) cache.Cycle {
	var res cache.Result
	if rec.Kind == trace.KindStore {
		res = m.hier.AccessWrite(rec.Addr, now)
	} else {
		res = m.hier.Access(rec.Addr, now)
	}
	line := memmodel.LineOf(rec.Addr)

	// Figure 9 classification.
	predicted, issued, depth := m.predLog.consume(line, m.accessIdx)
	if predicted {
		m.hitDepths.Add(depth)
	}
	switch {
	case res.Outcome == cache.OutcomeL1Hit && res.PrefetchedLine:
		m.cats.HitPrefetched++
	case res.Outcome == cache.OutcomeL1Hit:
		m.cats.HitOlderDemand++
	case res.Outcome == cache.OutcomeL1InFlight && res.PrefetchedLine:
		m.cats.ShorterWait++
	case predicted && !issued:
		m.cats.NonTimely++
	default:
		m.cats.MissNotPrefetched++
	}

	// Drive the prefetcher.
	m.acc = prefetch.Access{
		PC:         rec.PC,
		Addr:       rec.Addr,
		Line:       line,
		Now:        now,
		Index:      m.accessIdx,
		IsStore:    rec.Kind == trace.KindStore,
		MissedL1:   res.Outcome != cache.OutcomeL1Hit,
		Value:      rec.Value,
		Reg:        rec.Reg,
		BranchHist: rec.BranchHist,
		Hints:      rec.Hints,
	}
	m.pf.OnAccess(&m.acc, m)
	m.accessIdx++
	if m.col != nil {
		m.lastNow = now
		if m.col.Due(m.accessIdx) {
			m.sample(now)
		}
	}
	// Stores also return their fill time: the core uses it only for store
	// buffer occupancy and (rare) store-to-load value dependencies, never
	// for retirement.
	return res.Done
}

// sample snapshots the machine and prefetcher state into the telemetry
// series. It runs once per interval boundary (and once at end of run),
// never on the per-access fast path.
func (m *adapter) sample(now cache.Cycle) {
	l1, l2 := m.hier.Stats()
	var instr uint64
	if m.progress != nil {
		// Updated by the core model at its periodic checkpoints, so it may
		// trail the access index by a few thousand records.
		instr = m.progress.Load()
	}
	var cs obs.CoreSnapshot
	if m.coreSrc != nil {
		cs = m.coreSrc.TelemetrySnapshot()
	}
	m.col.Record(m.accessIdx, obs.MachineSnapshot{
		Cycles:       uint64(now),
		Instructions: instr,
		L1Misses:     l1.Misses,
		L2Misses:     l2.Misses,
	}, cs)
}

// Prefetch implements prefetch.Issuer.
func (m *adapter) Prefetch(addr memmodel.Addr, now cache.Cycle) bool {
	ok := m.hier.Prefetch(addr, now)
	m.predLog.add(memmodel.LineOf(addr), m.accessIdx, ok)
	return ok
}

// Shadow implements prefetch.Issuer.
func (m *adapter) Shadow(addr memmodel.Addr) {
	m.predLog.add(memmodel.LineOf(addr), m.accessIdx, false)
}

// FreePrefetchSlots implements prefetch.Issuer.
func (m *adapter) FreePrefetchSlots(now cache.Cycle) int { return m.hier.FreePrefetchSlots(now) }

// predictionLog is a bounded record of recent predictions, used for the
// Figure 8 hit-depth CDF and the non-timely classification. It is the
// simulator-side analogue of the context prefetcher's own prefetch queue,
// kept separate so every prefetcher is measured identically.
//
// The line→slot index is an open-addressed table rather than a Go map:
// every demand access of every cell pays one consume() and every
// prediction one add(), and runtime map operations (hashing through the
// interface machinery, bucket chasing, write barriers on delete) showed up
// as a measurable slice of the context cells' per-access cost. Linear
// probing over one flat array of (line, slot) pairs keeps a probe step to
// a single cache line, and backward-shift deletion keeps probe chains
// valid with no tombstone accumulation. At most len(ring) lines are
// indexed at once and the table is sized 4× that, so probes stay short.
type predictionLog struct {
	ring []predEntry
	head int
	// idx is the open-addressed index: idx[i].slot is the ring slot of the
	// newest live prediction of idx[i].line, or predNoSlot when i is empty.
	idx  []predSlot
	mask uint64
}

// predSlot is one index position; line and slot share a struct so a probe
// touches one cache line, not one per array.
type predSlot struct {
	line memmodel.Line
	slot int32
}

type predEntry struct {
	line   memmodel.Line
	index  uint64
	issued bool
	live   bool
}

const predNoSlot int32 = -1

func newPredictionLog(capacity int) *predictionLog {
	n := 1
	for n < 4*capacity {
		n <<= 1
	}
	p := &predictionLog{
		ring: make([]predEntry, capacity),
		idx:  make([]predSlot, n),
		mask: uint64(n - 1),
	}
	for i := range p.idx {
		p.idx[i].slot = predNoSlot
	}
	return p
}

// reset clears the log in place for reuse by a pooled run.
func (p *predictionLog) reset() {
	clear(p.ring)
	p.head = 0
	for i := range p.idx {
		p.idx[i] = predSlot{slot: predNoSlot}
	}
}

// home returns line's preferred index position.
func (p *predictionLog) home(line memmodel.Line) uint64 {
	h := uint64(line) * 0x9e3779b97f4a7c15
	return (h ^ (h >> 32)) & p.mask
}

// lookup returns the ring slot indexed for line, or predNoSlot.
func (p *predictionLog) lookup(line memmodel.Line) int32 {
	for i := p.home(line); ; i = (i + 1) & p.mask {
		e := &p.idx[i]
		if e.slot == predNoSlot {
			return predNoSlot
		}
		if e.line == line {
			return e.slot
		}
	}
}

// store indexes line at the given ring slot, overwriting any prior entry.
func (p *predictionLog) store(line memmodel.Line, slot int32) {
	for i := p.home(line); ; i = (i + 1) & p.mask {
		e := &p.idx[i]
		if e.slot == predNoSlot || e.line == line {
			e.line = line
			e.slot = slot
			return
		}
	}
}

// remove drops line from the index, backward-shifting the tail of its
// probe chain so later lookups never cross a hole.
func (p *predictionLog) remove(line memmodel.Line) {
	i := p.home(line)
	for {
		e := &p.idx[i]
		if e.slot == predNoSlot {
			return
		}
		if e.line == line {
			break
		}
		i = (i + 1) & p.mask
	}
	p.shiftHole(i)
}

// removeIfSlot drops line from the index only if it currently indexes the
// given ring slot — the single probe add() needs to retire the head's
// stale mapping, fused so eviction does not walk the chain twice.
func (p *predictionLog) removeIfSlot(line memmodel.Line, slot int32) {
	i := p.home(line)
	for {
		e := &p.idx[i]
		if e.slot == predNoSlot {
			return
		}
		if e.line == line {
			if e.slot != slot {
				return
			}
			break
		}
		i = (i + 1) & p.mask
	}
	p.shiftHole(i)
}

// shiftHole closes the hole at index position i by backward-shifting the
// tail of the probe chain.
func (p *predictionLog) shiftHole(i uint64) {
	j := i
	for {
		j = (j + 1) & p.mask
		if p.idx[j].slot == predNoSlot {
			break
		}
		// The entry at j may fill the hole at i only if its home does not
		// lie in the cyclic range (i, j] — otherwise moving it would put it
		// before its own probe start.
		h := p.home(p.idx[j].line)
		if (j-h)&p.mask >= (j-i)&p.mask {
			p.idx[i] = p.idx[j]
			i = j
		}
	}
	p.idx[i].slot = predNoSlot
}

// add records a prediction of line at access index idx.
func (p *predictionLog) add(line memmodel.Line, idx uint64, issued bool) {
	old := &p.ring[p.head]
	if old.live {
		p.removeIfSlot(old.line, int32(p.head))
	}
	p.ring[p.head] = predEntry{line: line, index: idx, issued: issued, live: true}
	p.store(line, int32(p.head))
	p.head++
	if p.head == len(p.ring) {
		p.head = 0
	}
}

// consume looks up and removes the newest prediction of line, returning
// whether one existed, whether it was issued, and its depth in accesses.
func (p *predictionLog) consume(line memmodel.Line, nowIdx uint64) (predicted, issued bool, depth int) {
	slot := p.lookup(line)
	if slot == predNoSlot {
		return false, false, 0
	}
	e := &p.ring[slot]
	if !e.live || e.line != line {
		p.remove(line)
		return false, false, 0
	}
	e.live = false
	p.remove(line)
	return true, e.issued, int(nowIdx - e.index)
}
