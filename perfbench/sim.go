package main

import (
	"context"
	"fmt"
	"log/slog"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"semloc/internal/cache"
	"semloc/internal/core"
	"semloc/internal/exp"
	"semloc/internal/prefetch"
	"semloc/internal/sim"
	"semloc/internal/trace"
	"semloc/internal/workloads"
)

// simTraces are the sim workloads' traces: the paper's flagship linked
// structures, a sequential control, and a store-heavy trace.
var simTraces = []string{"list", "mcf", "graph500-list", "array", "suffixArray"}

// simCell is one (trace, prefetcher) cell of a sim workload.
type simCell struct {
	trace, pf string
	tr        *trace.Trace
	accesses  uint64
	instrs    uint64
	res       *sim.Result     // first timed pass; every later run must equal it
	best      time.Duration   // fastest timed pass
	passes    []time.Duration // every timed pass
}

// newSimPrefetcher builds a cell's prefetcher the way the experiment engine
// does, so its results match the engine's for the same seed.
func newSimPrefetcher(name, traceName string, seed uint64) (prefetch.Prefetcher, error) {
	if name == "context" {
		cfg := core.DefaultConfig()
		cfg.Seed = exp.DeriveSeed(seed, traceName, name, 0)
		return core.New(cfg)
	}
	return exp.NewPrefetcher(name)
}

// sameResult compares the simulated outcome of two runs of one cell.
func sameResult(a, b *sim.Result) bool {
	return a.CPU == b.CPU && a.L1 == b.L1 && a.L2 == b.L2 && a.Categories == b.Categories
}

func runSim(ctx context.Context, cfg config, logger *slog.Logger, prefetchers []string) (*outcome, error) {
	// Set-up: generate the traces once untimed, then setupReps timed
	// times; the last set is kept. One set allocates about 0.5 GiB at
	// scale 0.25 and keeps a fifth of it. The untimed round faults that
	// heap in (it takes 3-4 times as long as the rounds after it) and the
	// collector is paused while generating, so setup_s times the
	// generators rather than page faults or when a collection started.
	gcPercent := debug.SetGCPercent(-1)
	var traces []*trace.Trace
	setups := make([]float64, 0, cfg.setupReps)
	for rep := 0; rep <= cfg.setupReps; rep++ {
		runtime.GC()
		calib := calibrate(3)
		start := time.Now()
		traces = make([]*trace.Trace, 0, len(simTraces))
		for _, name := range simTraces {
			w, err := workloads.ByName(name)
			if err != nil {
				return nil, err
			}
			traces = append(traces, w.Generate(workloads.GenConfig{Scale: cfg.simScale, Seed: cfg.seed}))
		}
		if rep > 0 {
			setups = append(setups, atReference(time.Since(start), calib))
		}
	}

	// Return the generators' garbage to the OS and restart the RSS
	// high-water mark, so peak_rss_mb measures the simulator on its traces
	// rather than the generators' garbage.
	debug.SetGCPercent(gcPercent)
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	var cells []*simCell
	for _, tr := range traces {
		st := tr.ComputeStats()
		for _, pf := range prefetchers {
			cells = append(cells, &simCell{trace: tr.Name, pf: pf, tr: tr,
				accesses: st.Loads + st.Stores, instrs: st.Instructions})
		}
	}
	simCfg := sim.DefaultConfig()
	simCfg.Pool = sim.NewRunPool()
	runCell := func(c *simCell, wrap func(prefetch.Prefetcher) prefetch.Prefetcher) (*sim.Result, time.Duration, error) {
		start := time.Now()
		pf, err := newSimPrefetcher(c.pf, c.trace, cfg.seed)
		if err != nil {
			return nil, 0, err
		}
		if wrap != nil {
			pf = wrap(pf)
		}
		res, err := sim.RunContext(ctx, c.tr, pf, simCfg)
		if err != nil {
			return nil, 0, fmt.Errorf("%s/%s: %w", c.trace, c.pf, err)
		}
		return res, time.Since(start), nil
	}

	// Timed passes: each pass runs every cell once, sequentially; a cell's
	// time is its fastest pass.
	passes := 0
	measureStart := time.Now()
	for passes < cfg.minPasses || time.Since(measureStart) < cfg.measure {
		runtime.GC() // no garbage from set-up or the last pass is paid inside a cell
		for _, c := range cells {
			res, d, err := runCell(c, nil)
			if err != nil {
				return nil, err
			}
			if c.res == nil {
				c.res, c.best = res, d
			} else if !sameResult(res, c.res) {
				return nil, fmt.Errorf("%s/%s: pass %d result differs from pass 1 (IPC %v vs %v)",
					c.trace, c.pf, passes+1, res.IPC(), c.res.IPC())
			}
			c.best = min(c.best, d)
			c.passes = append(c.passes, d)
		}
		passes++
	}
	rss, err := peakRSSMB(os.Getpid())
	if err != nil {
		return nil, err
	}

	// A simulated access waits for its cell's result, so each access is a
	// latency sample of its cell's fastest pass; the tails take every
	// pass of every cell instead, and show interference.
	var accesses, instrs uint64
	var best time.Duration
	cellLat := make([]float64, 0, len(cells))
	cellAccesses := make([]float64, 0, len(cells))
	passLat := make([]float64, 0, passes*len(cells))
	for _, c := range cells {
		accesses += c.accesses
		instrs += c.instrs
		best += c.best
		cellLat = append(cellLat, float64(c.best.Nanoseconds())/1e3)
		cellAccesses = append(cellAccesses, float64(c.accesses))
		for _, d := range c.passes {
			passLat = append(passLat, float64(d.Nanoseconds())/1e3)
		}
	}
	speedup, err := speedupGeomean(ctx, cells, simCfg)
	if err != nil {
		return nil, err
	}
	out := &outcome{
		attempted: uint64(passes * len(cells)),
		metrics: map[string]float64{
			"peak_rss_mb":      rss,
			"speedup_geomean":  speedup,
			"setup_s":          quantile(setups, 0.5),
			"host_ns_per_op":   float64(best.Nanoseconds()) / float64(accesses),
			"throughput_per_s": float64(instrs) / best.Seconds(),
			"latency_p50_us":   weightedQuantile(cellLat, cellAccesses, 0.50),
			"latency_p90_us":   weightedQuantile(cellLat, cellAccesses, 0.90),
			"latency_p99_us":   quantile(passLat, 0.99),
			"latency_p9999_us": quantile(passLat, 0.9999),
			"latency_samples":  float64(len(passLat)),
		},
	}
	bd := map[string]any{"passes": passes, "scale": cfg.simScale, "seed": cfg.seed, "setup_s": setups}
	cellsOut := make([]map[string]any, 0, len(cells))
	for _, c := range cells {
		cellsOut = append(cellsOut, map[string]any{
			"trace": c.trace, "prefetcher": c.pf, "accesses": c.accesses, "ipc": c.res.IPC(),
			"ns_per_access": float64(c.best.Nanoseconds()) / float64(c.accesses),
		})
	}
	bd["cells"] = cellsOut
	out.breakdown = bd
	logger.Info("timed passes done", "workload", cfg.workload, "passes", passes,
		"throughput_per_s", out.metrics["throughput_per_s"], "host_ns_per_op", out.metrics["host_ns_per_op"],
		"setup_s", out.metrics["setup_s"], "speedup_geomean", speedup)
	if !cfg.trace {
		return out, nil
	}
	if err := tracedSim(ctx, cfg, cells, runCell, out, cellsOut); err != nil {
		return nil, err
	}
	return out, nil
}

// speedupGeomean returns the geometric mean, over the cells with a
// prefetcher, of each cell's simulated IPC over its trace's IPC without
// one: the workload's none cell, or an untimed run when it has none.
func speedupGeomean(ctx context.Context, cells []*simCell, simCfg sim.Config) (float64, error) {
	baseIPC := map[string]float64{}
	for _, c := range cells {
		if c.pf == "none" {
			baseIPC[c.trace] = c.res.IPC()
		}
	}
	logSum, n := 0.0, 0
	for _, c := range cells {
		if c.pf == "none" {
			continue
		}
		base, ok := baseIPC[c.trace]
		if !ok {
			res, err := sim.RunContext(ctx, c.tr, prefetch.NewNone(), simCfg)
			if err != nil {
				return 0, err
			}
			base = res.IPC()
			baseIPC[c.trace] = base
		}
		logSum += math.Log(c.res.IPC() / base)
		n++
	}
	return math.Exp(logSum / float64(n)), nil
}

// tracedSim runs every cell once more with the recording wrapper, replays
// each layer against the recording, and fills the per-layer metrics.
func tracedSim(ctx context.Context, cfg config, cells []*simCell,
	runCell func(*simCell, func(prefetch.Prefetcher) prefetch.Prefetcher) (*sim.Result, time.Duration, error),
	out *outcome, cellsOut []map[string]any) error {
	var accesses, issued, prefetches, useless uint64
	var traced, cpuT, cacheT, pfT time.Duration
	rec := &recording{}
	h, err := cache.New(cache.DefaultConfig())
	if err != nil {
		return err
	}
	for ci, c := range cells {
		var res *sim.Result
		var best time.Duration
		for rep := 0; rep < cfg.tracedReps; rep++ {
			rec.reset()
			runtime.GC()
			r, d, err := runCell(c, func(pf prefetch.Prefetcher) prefetch.Prefetcher { return &recorder{inner: pf, rec: rec} })
			if err != nil {
				return err
			}
			if !sameResult(r, c.res) {
				return fmt.Errorf("%s/%s: traced run differs from untraced (IPC %v vs %v)", c.trace, c.pf, r.IPC(), c.res.IPC())
			}
			if rep == 0 || d < best {
				res, best = r, d
			}
		}
		if cfg.doctor.recording != nil {
			cfg.doctor.recording(rec)
		}

		// Fidelity first: each replay must reproduce the run exactly.
		done := make([]cache.Cycle, len(rec.accs))
		h.Reset()
		if err := replayCache(rec, h, done, true, res); err != nil {
			return fmt.Errorf("%s/%s: %w", c.trace, c.pf, err)
		}
		if cfg.doctor.done != nil {
			cfg.doctor.done(done)
		}
		if err := replayCPU(ctx, rec, c.tr, done, true, res.CPU); err != nil {
			return fmt.Errorf("%s/%s: %w", c.trace, c.pf, err)
		}
		pf, err := newSimPrefetcher(c.pf, c.trace, cfg.seed)
		if err != nil {
			return err
		}
		if err := replayPrefetcher(rec, pf, true); err != nil {
			return fmt.Errorf("%s/%s: %w", c.trace, c.pf, err)
		}

		// Then the timed replays, fastest of replayK each; set-up (a reset
		// hierarchy, a fresh prefetcher) stays outside the timed region.
		cacheBest, err := timeMin(cfg.replayK, func() error {
			h.Reset()
			runtime.GC()
			return nil
		}, func() error { return replayCache(rec, h, done, false, nil) })
		if err != nil {
			return err
		}
		cpuBest, err := timeMin(cfg.replayK, nil, func() error { return replayCPU(ctx, rec, c.tr, done, false, res.CPU) })
		if err != nil {
			return err
		}
		pfBest, err := timeMin(cfg.replayK, func() (err error) {
			pf, err = newSimPrefetcher(c.pf, c.trace, cfg.seed)
			return err
		}, func() error { return replayPrefetcher(rec, pf, false) })
		if err != nil {
			return err
		}

		for i := range rec.calls {
			if rec.calls[i].kind == callPrefetch && rec.calls[i].ret == 1 {
				issued++
			}
		}
		prefetches += res.L1.Prefetches
		useless += res.L1.UselessEvicts
		accesses += c.accesses
		traced += best
		cacheT += cacheBest
		cpuT += cpuBest
		pfT += pfBest
		per := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(c.accesses) }
		cellsOut[ci]["traced_ns_per_access"] = per(best)
		cellsOut[ci]["cpu_ns_per_access"] = per(cpuBest)
		cellsOut[ci]["cache_ns_per_access"] = per(cacheBest)
		cellsOut[ci]["prefetcher_ns_per_access"] = per(pfBest)
		cellsOut[ci]["prefetch_drops"] = res.L1.PrefetchDrops
		cellsOut[ci]["prefetches"] = res.L1.Prefetches
	}

	per := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(accesses) }
	m := out.metrics
	m["traced_ns_per_op"] = per(traced)
	m["produce_ns_per_op"] = per(cpuT)
	m["decide_ns_per_op"] = per(pfT)
	m["apply_ns_per_op"] = per(cacheT)
	m["other_ns_per_op"] = per(traced - cpuT - cacheT - pfT)
	m["trace_overhead_share"] = m["traced_ns_per_op"]/m["host_ns_per_op"] - 1
	m["issued_per_op"] = float64(issued) / float64(accesses)
	if prefetches > 0 {
		m["useful_share"] = float64(prefetches-useless) / float64(prefetches)
	} else {
		m["useful_share"] = 0
	}
	return closure(m)
}

// closure checks that the stages add back up to the traced total: the
// residual may not undercut it by more than 5%.
func closure(m map[string]float64) error {
	if other, traced := m["other_ns_per_op"], m["traced_ns_per_op"]; other < -0.05*traced {
		return fmt.Errorf("closure: stages sum to %.1f ns/op, more than 5%% above the traced %.1f ns/op",
			traced-other, traced)
	}
	return nil
}
