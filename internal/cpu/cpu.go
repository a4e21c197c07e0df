// Package cpu implements the trace-driven, approximate out-of-order core
// timing model that substitutes for the paper's gem5 x86 configuration
// (Table 2: 4-wide fetch, 192 ROB, 32 LQ/SQ).
//
// The model is a first-order interval simulation. It preserves the three
// phenomena that decide prefetcher benefit:
//
//  1. Independent load misses overlap (memory-level parallelism), bounded
//     by the reorder-buffer window, the load queue, and the cache MSHRs.
//  2. Dependent loads (pointer chasing, Record.Dep) serialize: a load
//     cannot issue before the load that produced its address completes.
//  3. Non-memory instructions stream through a fixed-width frontend, so
//     compute-heavy phases hide memory latency.
//
// Branches run through a small gshare predictor; mispredictions charge a
// fixed refill penalty. Absolute cycle counts are not gem5's, but relative
// effects — which is what every figure in the paper reports — survive.
package cpu

import (
	"context"
	"fmt"
	"math/bits"
	"sync/atomic"

	"semloc/internal/cache"
	"semloc/internal/trace"
)

// Memory is the interface the core uses for data accesses. The simulation
// driver implements it by combining the cache hierarchy with a prefetcher.
type Memory interface {
	// Access performs the access of rec (a load or store) issued at cycle
	// now and returns the cycle at which its data is available.
	Access(rec *trace.Record, now cache.Cycle) cache.Cycle
}

// Config parameterizes the core.
type Config struct {
	// Width is the dispatch width in instructions per cycle.
	Width int
	// ROB is the reorder-buffer size in instructions.
	ROB int
	// LQ and SQ are the load/store queue sizes.
	LQ, SQ int
	// MispredictPenalty is the frontend refill penalty for a mispredicted
	// branch, in cycles. Zero disables branch modelling.
	MispredictPenalty cache.Cycle
	// OnWarmupEnd, if set, is invoked when the trace's warm-up marker
	// retires, with the current cycle. The driver uses it to reset cache
	// and prefetcher statistics.
	OnWarmupEnd func(now cache.Cycle)
	// Progress, if set, receives the retired-instruction count at the
	// simulation loop's periodic checkpoints (every few thousand records).
	// External watchdogs sample it to detect a run that has stopped making
	// forward progress.
	Progress *atomic.Uint64
}

// DefaultConfig returns the Table 2 core: out-of-order, 4-wide fetch,
// 192-entry ROB, 32-entry load and store queues.
func DefaultConfig() Config {
	return Config{Width: 4, ROB: 192, LQ: 32, SQ: 32, MispredictPenalty: 12}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Width <= 0 {
		return fmt.Errorf("cpu: width must be positive")
	}
	if c.ROB <= 0 || c.LQ <= 0 || c.SQ <= 0 {
		return fmt.Errorf("cpu: ROB/LQ/SQ must be positive")
	}
	return nil
}

// Result summarizes a run. If the trace contains a warm-up marker, the
// counters cover only the post-warm-up region.
type Result struct {
	// Cycles is the simulated execution time.
	Cycles uint64
	// Instructions is the number of retired instructions.
	Instructions uint64
	// Loads and Stores count memory operations.
	Loads, Stores uint64
	// Branches and Mispredicts count control flow.
	Branches, Mispredicts uint64
}

// IPC returns retired instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}

// CPI returns cycles per instruction.
func (r Result) CPI() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return float64(r.Cycles) / float64(r.Instructions)
}

type robEntry struct {
	idx    uint64 // instruction index at dispatch
	retire cache.Cycle
}

// Run executes the trace against mem and returns timing results. It is
// RunContext with a background context.
func Run(tr *trace.Trace, mem Memory, cfg Config) (Result, error) {
	return RunContext(context.Background(), tr, mem, cfg)
}

// checkEvery is the record interval between cancellation checks and
// progress-counter publications; a power of two so the check is a mask.
const checkEvery = 8192

// RunContext executes the trace against mem and returns timing results.
// The simulation loop checks ctx every few thousand records, so a
// cancelled context (user interrupt, watchdog abort) stops the run
// promptly with an error wrapping the cancellation cause.
func RunContext(ctx context.Context, tr *trace.Trace, mem Memory, cfg Config) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	// done[i&mask] is record i's completion cycle (0 for a non-memory
	// record). No dependency reaches further back than tr.DepReach()
	// records and the ring is longer than that, so a producer's slot is
	// still its own when a dependent reads it.
	done := make([]cache.Cycle, 1<<bits.Len(uint(tr.DepReach())))
	mask := len(done) - 1
	var (
		res       Result
		slots     uint64 // frontend progress in 1/Width-cycle slots
		width     = uint64(cfg.Width)
		instrs    uint64 // instructions dispatched
		lastRet   cache.Cycle
		rob       = newRing(cfg.ROB)
		lqRing    = make([]cache.Cycle, cfg.LQ)
		sqRing    = make([]cache.Cycle, cfg.SQ)
		lqHead    int
		sqHead    int
		predictor = newGshare()
		warmup    warmSnapshot
		warmDone  bool
		c         = tr.Cursor()
		// memRec is the copy of each load or store that mem sees: the
		// cursor's own view passed through the interface call would move
		// the whole cursor, with its per-op state, to the heap.
		memRec = new(trace.Record)
	)

	for c.Next() {
		i, rec := c.Index(), c.Record()
		if i&(checkEvery-1) == 0 {
			if cfg.Progress != nil {
				cfg.Progress.Store(instrs)
			}
			select {
			case <-ctx.Done():
				return Result{}, fmt.Errorf("cpu: %s cancelled at record %d/%d: %w",
					tr.Name, i, tr.Len(), context.Cause(ctx))
			default:
			}
		}
		done[i&mask] = 0
		var depDone cache.Cycle // the producer's completion, 0 without one
		if rec.Dep != trace.NoDep && rec.IsMem() {
			dep := int(rec.Dep)
			if dep < 0 || dep >= i {
				return Result{}, fmt.Errorf("cpu: trace %q record %d: dependency %d is not an earlier record",
					tr.Name, i, rec.Dep)
			}
			depDone = done[dep&mask]
		}

		switch rec.Kind {
		case trace.KindWarmupEnd:
			if !warmDone {
				warmDone = true
				warmup = warmSnapshot{
					cycles: lastRet, instrs: instrs,
					loads: res.Loads, stores: res.Stores,
					branches: res.Branches, mispredicts: res.Mispredicts,
				}
				if cfg.OnWarmupEnd != nil {
					cfg.OnWarmupEnd(lastRet)
				}
			}
			continue

		case trace.KindCompute:
			n := uint64(rec.Count)
			// ROB pressure from a long compute block is bounded: drain
			// entries that would fall out of the window.
			slots = drainROB(rob, slots, instrs+n, uint64(cfg.ROB), width)
			slots += n
			instrs += n
			d := cache.Cycle(slots / width)
			if d+1 > lastRet {
				lastRet = d + 1
			}

		case trace.KindBranch:
			slots = drainROB(rob, slots, instrs+1, uint64(cfg.ROB), width)
			d := cache.Cycle(slots / width)
			slots++
			instrs++
			res.Branches++
			if cfg.MispredictPenalty > 0 && !predictor.predict(rec.PC, rec.Taken) {
				res.Mispredicts++
				redirect := (uint64(d) + 1 + uint64(cfg.MispredictPenalty)) * width
				if redirect > slots {
					slots = redirect
				}
			}
			if d+1 > lastRet {
				lastRet = d + 1
			}

		case trace.KindLoad:
			slots = drainROB(rob, slots, instrs+1, uint64(cfg.ROB), width)
			d := cache.Cycle(slots / width)
			slots++
			instrs++
			res.Loads++
			issue := max(d, depDone)
			// Load queue: cannot issue before the LQ-oldest load completed.
			if old := lqRing[lqHead]; old > issue {
				issue = old
			}
			*memRec = *rec
			dn := mem.Access(memRec, issue)
			done[i&mask] = dn
			lqRing[lqHead] = dn
			lqHead = (lqHead + 1) % cfg.LQ
			ret := dn
			if lastRet > ret {
				ret = lastRet
			}
			lastRet = ret
			rob.push(robEntry{idx: instrs, retire: ret})

		case trace.KindStore:
			slots = drainROB(rob, slots, instrs+1, uint64(cfg.ROB), width)
			d := cache.Cycle(slots / width)
			slots++
			instrs++
			res.Stores++
			issue := max(d, depDone)
			// Store buffer: if the SQ-oldest store has not yet written back,
			// dispatch stalls until it has.
			if old := sqRing[sqHead]; old > d {
				stallSlots := uint64(old) * width
				if stallSlots > slots {
					slots = stallSlots
				}
			}
			*memRec = *rec
			dn := mem.Access(memRec, issue)
			done[i&mask] = dn // dependents (rare) wait for the written value
			sqRing[sqHead] = dn
			sqHead = (sqHead + 1) % cfg.SQ
			// Stores retire without waiting for completion.
			if d+1 > lastRet {
				lastRet = d + 1
			}
			rob.push(robEntry{idx: instrs, retire: d + 1})

		default:
			return Result{}, fmt.Errorf("cpu: trace %q record %d: unknown kind %d", tr.Name, i, rec.Kind)
		}
	}

	res.Cycles = uint64(lastRet)
	res.Instructions = instrs
	if warmDone {
		res.Cycles -= uint64(warmup.cycles)
		res.Instructions -= warmup.instrs
		res.Loads -= warmup.loads
		res.Stores -= warmup.stores
		res.Branches -= warmup.branches
		res.Mispredicts -= warmup.mispredicts
	}
	return res, nil
}

type warmSnapshot struct {
	cycles                cache.Cycle
	instrs                uint64
	loads, stores         uint64
	branches, mispredicts uint64
}

// drainROB enforces the reorder-buffer window: before dispatching up to
// instruction index nextIdx, any queued memory op whose distance from
// nextIdx is >= robSize must retire first, stalling the frontend to its
// retire time. Entries that have already retired are dropped eagerly.
func drainROB(rob *ring, slots, nextIdx, robSize, width uint64) uint64 {
	for rob.len > 0 {
		head := rob.peek()
		if nextIdx-head.idx >= robSize {
			stall := uint64(head.retire) * width
			if stall > slots {
				slots = stall
			}
			rob.pop()
			continue
		}
		if uint64(head.retire)*width <= slots {
			rob.pop()
			continue
		}
		break
	}
	return slots
}

// ring is a fixed-capacity FIFO of ROB entries.
type ring struct {
	buf        []robEntry
	head, tail int
	len        int
}

func newRing(capacity int) *ring {
	return &ring{buf: make([]robEntry, capacity+1)}
}

func (r *ring) push(e robEntry) {
	if r.len == len(r.buf) {
		// Overwrite oldest; the ROB window logic keeps this from mattering.
		r.pop()
	}
	r.buf[r.tail] = e
	r.tail = (r.tail + 1) % len(r.buf)
	r.len++
}

func (r *ring) pop() robEntry {
	e := r.buf[r.head]
	r.head = (r.head + 1) % len(r.buf)
	r.len--
	return e
}

func (r *ring) peek() robEntry { return r.buf[r.head] }

// gshare is a small global-history branch predictor (4K 2-bit counters,
// 12-bit history).
type gshare struct {
	table   [4096]uint8
	history uint32
}

func newGshare() *gshare {
	g := &gshare{}
	for i := range g.table {
		g.table[i] = 1 // weakly not-taken
	}
	return g
}

// predict returns whether the prediction matched outcome, updating state.
func (g *gshare) predict(pc uint64, taken bool) bool {
	idx := (uint32(pc>>2) ^ g.history) & 4095
	ctr := g.table[idx]
	predTaken := ctr >= 2
	if taken && ctr < 3 {
		g.table[idx] = ctr + 1
	} else if !taken && ctr > 0 {
		g.table[idx] = ctr - 1
	}
	g.history = ((g.history << 1) | b2u(taken)) & 4095
	return predTaken == taken
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}
