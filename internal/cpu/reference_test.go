package cpu

import (
	"fmt"
	"reflect"
	"testing"

	"semloc/internal/cache"
	"semloc/internal/memmodel"
	"semloc/internal/trace"
)

// This file keeps a naive reference of the core model's main loop, the
// shape it had before completion times moved into a ring sized by the
// trace's dependency reach: one completion-time slot per record, indexed
// by the producer's absolute record index. The lockstep test below runs it
// and RunContext over seeded random traces and requires the same memory
// requests, in the same order at the same cycles, and the same Result.
// The ROB, load/store queues and branch predictor are shared helpers.
func referenceRun(tr *trace.Trace, mem Memory, cfg Config) Result {
	var (
		res       Result
		slots     uint64
		width     = uint64(cfg.Width)
		instrs    uint64
		lastRet   cache.Cycle
		done      = make([]cache.Cycle, tr.Len())
		rob       = newRing(cfg.ROB)
		lqRing    = make([]cache.Cycle, cfg.LQ)
		sqRing    = make([]cache.Cycle, cfg.SQ)
		lqHead    int
		sqHead    int
		predictor = newGshare()
		warmup    warmSnapshot
		warmDone  bool
		c         = tr.Cursor()
	)
	for c.Next() {
		i, rec := c.Index(), c.Record()
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

		case trace.KindCompute:
			n := uint64(rec.Count)
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
			issue := d
			if rec.Dep != trace.NoDep {
				if dep := done[rec.Dep]; dep > issue {
					issue = dep
				}
			}
			if old := lqRing[lqHead]; old > issue {
				issue = old
			}
			dn := mem.Access(rec, issue)
			done[i] = dn
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
			issue := d
			if rec.Dep != trace.NoDep {
				if dep := done[rec.Dep]; dep > issue {
					issue = dep
				}
			}
			if old := sqRing[sqHead]; old > d {
				stallSlots := uint64(old) * width
				if stallSlots > slots {
					slots = stallSlots
				}
			}
			dn := mem.Access(rec, issue)
			done[i] = dn
			sqRing[sqHead] = dn
			sqHead = (sqHead + 1) % cfg.SQ
			if d+1 > lastRet {
				lastRet = d + 1
			}
			rob.push(robEntry{idx: instrs, retire: d + 1})
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
	return res
}

// request is one Memory.Access call: the record it was made for (the
// random traces carry their index in Value) and its issue cycle.
type request struct {
	record uint64
	issue  cache.Cycle
}

// randMem answers every access after a latency drawn from a seeded
// generator (an L1 hit, an L2 hit or a DRAM miss of varying length) and
// logs the requests it receives.
type randMem struct {
	rng  *memmodel.RNG
	reqs []request
}

func (m *randMem) Access(rec *trace.Record, now cache.Cycle) cache.Cycle {
	m.reqs = append(m.reqs, request{rec.Value, now})
	switch m.rng.Intn(4) {
	case 0, 1:
		return now + 4
	case 2:
		return now + 12
	default:
		return now + cache.Cycle(150+m.rng.Intn(300))
	}
}

// randomTrace builds an n-record trace whose loads and stores depend on
// earlier records at distances up to reach, at least once at exactly
// reach when reach > 0. Producers include compute blocks, branches and the
// warm-up marker, whose completion time is 0, and dependencies cross the
// marker. Half the memory records go through Append, half through the
// generator methods, so both reach trackers are exercised.
func randomTrace(seed uint64, n, reach int) *trace.Trace {
	rng := memmodel.NewRNG(seed)
	e := trace.NewEmitter(fmt.Sprintf("random-%d-reach-%d", seed, reach))
	warmAt := n / 3
	for e.Len() < n {
		i := e.Len()
		if i >= warmAt && warmAt >= 0 {
			e.EndWarmup()
			warmAt = -1
			continue
		}
		switch k := rng.Intn(16); {
		case k < 2:
			e.Compute(1 + rng.Intn(6))
		case k == 2:
			e.Compute(200 + rng.Intn(1800)) // long enough to drain the ROB
		case k < 5:
			e.Branch(0x200+uint64(rng.Intn(8))*4, rng.Intn(3) != 0)
		default:
			dep := -1
			if reach > 0 && i >= reach && rng.Intn(8) == 0 {
				dep = i - reach
			} else if reach > 0 && i > 0 && rng.Intn(2) == 0 {
				dep = i - 1 - rng.Intn(min(reach, i))
			}
			kind := trace.KindLoad
			if rng.Intn(4) == 0 {
				kind = trace.KindStore
			}
			addr := memmodel.Addr(rng.Intn(1<<20)) * 8
			if rng.Intn(2) == 0 {
				e.Append(trace.Record{Kind: kind, PC: 0x400, Addr: addr, Size: 8,
					Value: uint64(i), Dep: int32(dep)})
			} else {
				s := &trace.MemSpec{PC: 0x400, Addr: addr, Value: uint64(i), Dep: dep}
				if kind == trace.KindLoad {
					e.LoadSpec(s)
				} else {
					e.StoreSpec(s)
				}
			}
		}
	}
	return e.Finish()
}

// TestRingMatchesReference runs RunContext and the naive reference in
// lockstep over random traces whose reach sits at and around ring-size
// boundaries, under the default core and a narrow one.
func TestRingMatchesReference(t *testing.T) {
	narrow := Config{Width: 2, ROB: 16, LQ: 4, SQ: 4, MispredictPenalty: 12}
	for _, reach := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 63, 64, 65, 255, 256, 257} {
		for seed := uint64(1); seed <= 3; seed++ {
			tr := randomTrace(seed*1000+uint64(reach), 4000, reach)
			if got := tr.DepReach(); got != reach {
				t.Fatalf("%s: DepReach %d, want %d", tr.Name, got, reach)
			}
			for _, cfg := range []Config{DefaultConfig(), narrow} {
				var warmFast, warmRef cache.Cycle
				fastMem := &randMem{rng: memmodel.NewRNG(seed)}
				refMem := &randMem{rng: memmodel.NewRNG(seed)}
				fastCfg, refCfg := cfg, cfg
				fastCfg.OnWarmupEnd = func(now cache.Cycle) { warmFast = now }
				refCfg.OnWarmupEnd = func(now cache.Cycle) { warmRef = now }
				got, err := Run(tr, fastMem, fastCfg)
				if err != nil {
					t.Fatalf("%s: %v", tr.Name, err)
				}
				want := referenceRun(tr, refMem, refCfg)
				if len(fastMem.reqs) != len(refMem.reqs) {
					t.Fatalf("%s ROB %d: %d requests, reference %d", tr.Name, cfg.ROB, len(fastMem.reqs), len(refMem.reqs))
				}
				for j := range refMem.reqs {
					if fastMem.reqs[j] != refMem.reqs[j] {
						t.Fatalf("%s ROB %d: request %d is %+v, reference %+v",
							tr.Name, cfg.ROB, j, fastMem.reqs[j], refMem.reqs[j])
					}
				}
				if !reflect.DeepEqual(got, want) || warmFast != warmRef {
					t.Fatalf("%s ROB %d: result %+v (warm-up at %d), reference %+v (warm-up at %d)",
						tr.Name, cfg.ROB, got, warmFast, want, warmRef)
				}
			}
		}
	}
}
