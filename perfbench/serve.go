package main

import (
	"context"
	"fmt"
	"log/slog"
	"math"
	"os"
	"sync"
	"time"

	"semloc/internal/core"
	"semloc/internal/memmodel"
	"semloc/internal/obs"
	"semloc/internal/prefetch"
	"semloc/internal/serve"
	"semloc/internal/sim"
	"semloc/internal/trace"
	"semloc/internal/workloads"
)

// serveStream generates the trace whose access stream every session
// replays in a loop, and that stream.
func serveStream(cfg config) (*trace.Trace, []serve.Frame, error) {
	w, err := workloads.ByName("list")
	if err != nil {
		return nil, nil, err
	}
	tr := w.Generate(workloads.GenConfig{Scale: cfg.serveScale, Seed: cfg.seed})
	frames := serve.AccessFrames(tr)
	if len(frames) == 0 {
		return nil, nil, fmt.Errorf("empty access stream")
	}
	return tr, frames, nil
}

// loadPhase is one load run against one daemon: warm-up, then the measured
// window.
type loadPhase struct {
	sessions []*session
	from     time.Time
	cpu      time.Duration // the daemon's CPU time over the window
}

func (p *loadPhase) decisions() (n uint64) {
	for _, s := range p.sessions {
		n += s.decisions
	}
	return n
}

func (p *loadPhase) received() (n uint64) {
	for _, s := range p.sessions {
		n += s.received
	}
	return n
}

// latencies returns every session's measured latencies, in µs.
func (p *loadPhase) latencies() []float64 {
	var all []float64
	for _, s := range p.sessions {
		all = append(all, s.lat...)
	}
	return all
}

// throughput is the window's decisions per second, up to the last reply:
// in open loop it falls short of the offered rate only when the daemon
// cannot keep up.
func (p *loadPhase) throughput() float64 {
	var last time.Time
	for _, s := range p.sessions {
		if s.lastDone.After(last) {
			last = s.lastDone
		}
	}
	return float64(p.decisions()) / last.Sub(p.from).Seconds()
}

// drive runs the workload's sessions against d: warm-up, then a window of
// length window.
func drive(ctx context.Context, cfg config, d *daemon, frames []serve.Frame, batch int, window time.Duration, tag string, traced bool) (*loadPhase, error) {
	nSessions, interval := 2, time.Duration(0)
	perSecond := 50000.0 // exchanges/s per session, far above what one CPU serves
	if batch == 0 {
		nSessions = 1
		interval = time.Duration(float64(time.Second) / cfg.rate)
		perSecond = cfg.rate
	}
	p := &loadPhase{from: time.Now().Add(cfg.warmup)}
	for i := 0; i < nSessions; i++ {
		s := &session{
			addr: d.addr, id: fmt.Sprintf("%s-%d", tag, i), frames: frames, batch: batch, interval: interval,
			from: p.from, to: p.from.Add(window),
			sampleSpans: traced, hash: i == 0,
			lat: make([]float64, 0, int(window.Seconds()*perSecond)+1024),
		}
		if batch == 0 {
			s.late = make([]float64, 0, int(window.Seconds()*perSecond)+1024)
		}
		if traced {
			s.exchanges = make([]exchangeRec, 0, int(window.Seconds()*perSecond)/spanSampleEvery+1)
		}
		p.sessions = append(p.sessions, s)
	}
	errs := make([]error, nSessions)
	var wg sync.WaitGroup
	for i, s := range p.sessions {
		wg.Add(1)
		go func(i int, s *session) {
			defer wg.Done()
			errs[i] = s.run(ctx)
		}(i, s)
	}
	cpuErr := func() error {
		var at [2]time.Duration
		for k, t := range []time.Time{p.from, p.from.Add(window)} {
			time.Sleep(time.Until(t))
			c, err := procCPU(d.pid())
			if err != nil {
				return err
			}
			at[k] = c
		}
		p.cpu = at[1] - at[0]
		return nil
	}()
	wg.Wait()
	for _, err := range append(errs, cpuErr) {
		if err != nil {
			return nil, err
		}
	}
	return p, nil
}

func runServe(ctx context.Context, cfg config, logger *slog.Logger, batch int) (*outcome, error) {
	if cfg.daemon == "" {
		return nil, fmt.Errorf("-daemon is required for %s", cfg.workload)
	}
	// Set-up: the access stream plus the daemon's exec-to-listening time,
	// once untimed (it pages the generator's heap and the daemon binary
	// in), then setupReps timed times; the last daemon is kept.
	var tr *trace.Trace
	var frames []serve.Frame
	var d *daemon
	setups := make([]float64, 0, cfg.setupReps)
	for rep := 0; rep <= cfg.setupReps; rep++ {
		calib := calibrate(3)
		start := time.Now()
		var err error
		if tr, frames, err = serveStream(cfg); err != nil {
			return nil, err
		}
		gen := time.Since(start)
		nd, ready, err := startDaemon(cfg.daemon, cfg.outDir)
		if err != nil {
			return nil, err
		}
		if rep > 0 {
			setups = append(setups, atReference(gen+ready, calib))
		}
		if d != nil {
			if err := d.stop(); err != nil {
				nd.stop()
				return nil, err
			}
			os.RemoveAll(d.dir)
		}
		d = nd
	}
	defer func() {
		d.stop()
		os.RemoveAll(d.dir)
	}()

	p, err := drive(ctx, cfg, d, frames, batch, cfg.measure, "e2e", false)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMB(d.pid())
	if err != nil {
		return nil, err
	}
	sc, err := scrapeDaemon(d.obsAddr)
	if err != nil {
		return nil, err
	}
	if cfg.doctor.scrape != nil {
		cfg.doctor.scrape(sc)
	}
	if err := sc.check(p.received()); err != nil {
		return nil, err
	}
	if err := d.stop(); err != nil {
		return nil, err
	}
	dr, err := checkDecisions(cfg, frames, p.sessions[0])
	if err != nil {
		return nil, err
	}
	speedup, err := servedSpeedup(ctx, cfg, tr, dr.loopHash)
	if err != nil {
		return nil, err
	}

	all := p.latencies()
	var late []float64
	var failed uint64
	for _, s := range p.sessions {
		late = append(late, s.late...)
		failed += s.failed
	}
	decisions := p.decisions()
	out := &outcome{
		attempted: decisions + failed,
		failed:    failed,
		metrics: map[string]float64{
			"peak_rss_mb":      rss,
			"speedup_geomean":  speedup,
			"setup_s":          quantile(setups, 0.5),
			"host_ns_per_op":   cpuPerOp(p),
			"throughput_per_s": p.throughput(),
			"latency_p50_us":   quantile(all, 0.50),
			"latency_p90_us":   quantile(all, 0.90),
			"latency_p99_us":   quantile(all, 0.99),
			"latency_p9999_us": quantile(all, 0.9999),
			"latency_samples":  float64(len(all)),
		},
		breakdown: map[string]any{"seed": cfg.seed, "scale": cfg.serveScale, "batch": batch,
			"stream_accesses": len(frames), "decisions": decisions, "daemon_cpu_s": p.cpu.Seconds(),
			"setup_s": setups},
	}
	if batch == 0 {
		// The open loop measures the daemon only if it sends on time.
		lateP50, p50 := quantile(late, 0.50), out.metrics["latency_p50_us"]
		out.breakdown["offered_per_s"] = cfg.rate
		out.breakdown["gen_late_p50_us"] = lateP50
		out.breakdown["gen_late_p99_us"] = quantile(late, 0.99)
		if lateP50 > 0.1*p50 {
			return nil, fmt.Errorf("open loop sent late: median lateness %.1f µs exceeds 10%% of the %.1f µs median latency", lateP50, p50)
		}
	}
	logger.Info("measured window done", "workload", cfg.workload, "decisions", decisions,
		"throughput_per_s", out.metrics["throughput_per_s"], "host_ns_per_op", out.metrics["host_ns_per_op"], "latency_p50_us", out.metrics["latency_p50_us"])
	if !cfg.trace {
		return out, nil
	}
	if err := tracedServe(ctx, cfg, logger, frames, batch, cpuPerOp(p), out); err != nil {
		return nil, err
	}
	return out, nil
}

// tracedServe runs the load again against a daemon sampling request spans,
// checks the first session's decisions against an offline learner, replays
// each layer offline, and fills the per-layer metrics.
func tracedServe(ctx context.Context, cfg config, logger *slog.Logger, frames []serve.Frame, batch int, untracedCPU float64, out *outcome) error {
	spansPath := artifactPath(cfg, "spans")
	d, _, err := startDaemon(cfg.daemon, cfg.outDir, "-spans", spansPath, "-trace-sample", fmt.Sprint(spanSampleEvery))
	if err != nil {
		return err
	}
	defer func() {
		d.stop()
		os.RemoveAll(d.dir)
	}()
	p, err := drive(ctx, cfg, d, frames, batch, cfg.tracedFor, "traced", true)
	if err != nil {
		return err
	}
	sc, err := scrapeDaemon(d.obsAddr)
	if err != nil {
		return err
	}
	if err := sc.check(p.received()); err != nil {
		return err
	}
	if err := d.stop(); err != nil {
		return err
	}
	if err := mergeClientSpans(spansPath, p, d.started); err != nil {
		return err
	}

	dr, err := checkDecisions(cfg, frames, p.sessions[0])
	if err != nil {
		return err
	}
	rp, err := replayServe(frames, batch, dr.results, cfg.replayK)
	if err != nil {
		return err
	}

	decisions := p.decisions()
	m := out.metrics
	m["traced_ns_per_op"] = float64(rttTotal(p).Nanoseconds()) / float64(decisions)
	m["produce_ns_per_op"] = rp.requestNS
	m["decide_ns_per_op"] = rp.learnerNS
	m["apply_ns_per_op"] = rp.replyNS
	m["other_ns_per_op"] = m["traced_ns_per_op"] - rp.requestNS - rp.learnerNS - rp.replyNS
	m["trace_overhead_share"] = cpuPerOp(p)/untracedCPU - 1
	m["issued_per_op"] = dr.issuedPerOp
	m["useful_share"] = dr.usefulShare

	bd := out.breakdown
	for _, name := range stageMetrics {
		bd[name+"_ns_per_decision"] = sc.perDecisionNS(name)
	}
	frames64 := sc.batchSize.Count
	bd["serve_batch_size_mean"] = sc.batchSize.Sum / float64(frames64)
	bd["serve_coalesced_share"] = float64(sc.coalesced) / float64(frames64)
	bd["client_encode_ns_per_decision"] = rp.clientEncodeNS
	bd["client_decode_ns_per_decision"] = rp.clientDecodeNS
	// The wire and the kernel: what the client waited beyond its own codec
	// and the daemon's frame time. Must not undercut the round trip by more
	// than 5%, like the stage closure.
	wire := m["traced_ns_per_op"] - rp.clientEncodeNS - rp.clientDecodeNS - sc.perDecisionNS(serve.MetricFrameLatency)
	bd["wire_ns_per_decision"] = wire
	bd["traced_decisions"] = decisions
	bd["spans"] = spansPath
	if wire < -0.05*m["traced_ns_per_op"] {
		return fmt.Errorf("closure: client codec plus daemon frame time exceed the round trip by more than 5%% (wire %.1f ns/decision)", wire)
	}
	logger.Info("traced phase done", "workload", cfg.workload, "spans", spansPath)
	return closure(m)
}

// cpuPerOp is the daemon's CPU ns per decision over the whole window.
func cpuPerOp(p *loadPhase) float64 {
	return float64(p.cpu.Nanoseconds()) / float64(p.decisions())
}

func rttTotal(p *loadPhase) (t time.Duration) {
	for _, s := range p.sessions {
		t += s.rttSum
	}
	return t
}

// mergeClientSpans adds the client's sampled exchanges to the daemon's
// span file as serve spans with Prefetcher "client", keyed by session
// (Workload) and first seq (Point). The daemon's span clock starts while
// the process initialises, so client times are placed on it from the exec
// time: a client span sits late by the daemon's start-up time, a few
// milliseconds, which shifts the view but not any duration.
func mergeClientSpans(path string, p *loadPhase, daemonExec time.Time) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	spans, err := obs.ReadChromeTrace(f)
	f.Close()
	if err != nil {
		return err
	}
	rec := obs.NewSpanRecorder()
	for _, s := range spans {
		rec.Add(s)
	}
	n := 0
	for _, s := range p.sessions {
		for _, ex := range s.exchanges {
			rec.Add(obs.Span{Cat: obs.CatServe, Workload: s.id, Prefetcher: "client", Point: int(ex.seq),
				Start: ex.start.Sub(daemonExec), Dur: ex.rtt})
			n++
		}
	}
	if n == 0 {
		return fmt.Errorf("spans: no client exchange sampled")
	}
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteChromeTrace(out); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// streamAccesses converts the stream to the batch items a session sends,
// numbered from 1.
func streamAccesses(frames []serve.Frame) []serve.BatchAccess {
	accs := make([]serve.BatchAccess, len(frames))
	for i := range frames {
		fr := &frames[i]
		accs[i] = serve.BatchAccess{Seq: uint64(i + 1), PC: fr.PC, Addr: fr.Addr, Value: fr.Value, Reg: fr.Reg,
			BranchHist: fr.BranchHist, Store: fr.Store, Hints: fr.Hints}
	}
	return accs
}

// decisionReplay is an offline serve.Learner replay of the stream in a
// loop, as the benchmark's sessions send it.
type decisionReplay struct {
	hash     uint64                // the first n decisions, folded as a session folds them
	loopHash uint64                // the first loop's decisions
	results  []serve.BatchDecision // the first loop's decisions
	// Over the first loop: prefetches issued per access, and the share of
	// real prefetches the learner scored accurate.
	issuedPerOp, usefulShare float64
}

func offlineDecisions(frames []serve.Frame, n uint64) (*decisionReplay, error) {
	accs := streamAccesses(frames)
	l, err := serve.NewLearner(core.Config{})
	if err != nil {
		return nil, err
	}
	r := &decisionReplay{hash: fnvOffset, loopHash: fnvOffset, results: make([]serve.BatchDecision, len(accs))}
	loop := uint64(len(accs))
	var issued uint64
	for i := uint64(0); i < n || i < loop; i++ {
		a := &accs[i%loop]
		pf, sh := l.DecideAccess(a)
		if i < n {
			r.hash = foldDecision(r.hash, pf, sh)
		}
		if i >= loop {
			continue
		}
		r.loopHash = foldDecision(r.loopHash, pf, sh)
		r.results[i] = serve.BatchDecision{Seq: a.Seq, Prefetch: append([]uint64(nil), pf...), Shadow: append([]uint64(nil), sh...)}
		issued += uint64(len(pf))
		if i == loop-1 {
			r.issuedPerOp = float64(issued) / float64(loop)
			if h := l.Health(); h.RealPrefetches > 0 {
				r.usefulShare = float64(h.OutcomeAccurate) / float64(h.RealPrefetches)
			}
		}
	}
	return r, nil
}

// checkDecisions checks that the daemon answered the first session
// exactly as an offline serve.Learner replay of the same accesses does.
func checkDecisions(cfg config, frames []serve.Frame, first *session) (*decisionReplay, error) {
	if cfg.doctor.decisions != nil {
		cfg.doctor.decisions(&first.hashSum)
	}
	r, err := offlineDecisions(frames, first.hashed)
	if err != nil {
		return nil, err
	}
	if r.hash != first.hashSum {
		return nil, fmt.Errorf("session %s: the daemon's %d decisions differ from an offline serve.Learner replay of the same accesses",
			first.id, first.hashed)
	}
	return r, nil
}

// servedPrefetcher issues a serving learner's decisions in the simulator,
// so the served stream's simulated speedup can be measured. The simulator
// presents the trace's accesses in record order with the attributes
// serve.AccessFrames derives, so the learner decides exactly as the daemon
// does for a session sending that stream.
type servedPrefetcher struct {
	l     *serve.Learner
	hints serve.Hints
	hash  uint64 // the decisions, folded as a session folds them
}

func (p *servedPrefetcher) Name() string { return "served" }

func (p *servedPrefetcher) OnAccess(a *prefetch.Access, iss prefetch.Issuer) {
	b := serve.BatchAccess{PC: a.PC, Addr: uint64(a.Addr), Value: a.Value, Reg: a.Reg,
		BranchHist: a.BranchHist, Store: a.IsStore}
	if a.Hints.Valid {
		p.hints = serve.Hints{Valid: true, TypeID: a.Hints.TypeID, LinkOffset: a.Hints.LinkOffset, RefForm: uint8(a.Hints.RefForm)}
		b.Hints = &p.hints
	}
	pf, sh := p.l.DecideAccess(&b)
	p.hash = foldDecision(p.hash, pf, sh)
	for _, x := range pf {
		iss.Prefetch(memmodel.Addr(x), a.Now)
	}
	for _, x := range sh {
		iss.Shadow(memmodel.Addr(x))
	}
}

// servedSeeds is how many input seeds servedSpeedup averages over: with
// one, the list and mcf traces alone moved the geometric mean by 4-6%
// (quartile spread) from seed to seed.
const servedSeeds = 3

// servedSpeedup returns the geometric mean, over the simulator workloads'
// traces at the serving scale generated from servedSeeds seeds derived from
// the run's seed, of each trace's simulated IPC with a serving learner's
// decisions issued as prefetches over its IPC without prefetching. The
// first seed's list trace is the stream's own, tr: its decisions must be
// the first loop of the offline replay, whose hash is loopHash, which the
// daemon's decisions were checked against.
func servedSpeedup(ctx context.Context, cfg config, tr *trace.Trace, loopHash uint64) (float64, error) {
	simCfg := sim.DefaultConfig()
	logSum := 0.0
	for k := uint64(0); k < servedSeeds; k++ {
		for _, name := range simTraces {
			t := tr
			if k > 0 || name != tr.Name {
				w, err := workloads.ByName(name)
				if err != nil {
					return 0, err
				}
				t = w.Generate(workloads.GenConfig{Scale: cfg.serveScale, Seed: cfg.seed + k*0x9e3779b97f4a7c15})
			}
			base, err := sim.RunContext(ctx, t, prefetch.NewNone(), simCfg)
			if err != nil {
				return 0, err
			}
			l, err := serve.NewLearner(core.Config{})
			if err != nil {
				return 0, err
			}
			pf := &servedPrefetcher{l: l, hash: fnvOffset}
			res, err := sim.RunContext(ctx, t, pf, simCfg)
			if err != nil {
				return 0, err
			}
			if t == tr && pf.hash != loopHash {
				return 0, fmt.Errorf("served speedup: the simulated learner decided differently from the offline replay of the stream")
			}
			logSum += math.Log(res.IPC() / base.IPC())
		}
	}
	return math.Exp(logSum / float64(servedSeeds*len(simTraces))), nil
}

// serveReplay is what the timed offline replays of the serving layers
// measured, in ns per decision.
type serveReplay struct {
	learnerNS, requestNS, replyNS  float64
	clientEncodeNS, clientDecodeNS float64
}

// replayServe times the serving layers offline over one loop of the
// stream: the learner (serve.NewLearner + DecideAccess), the request codec
// and the reply codec (serve.AppendFrame + serve.DecodeFrameInto), each as
// the fastest of k passes. results are the loop's decisions, the replies
// to encode.
func replayServe(frames []serve.Frame, batch int, results []serve.BatchDecision, k int) (*serveReplay, error) {
	r := &serveReplay{}
	accs := streamAccesses(frames)
	perDecision := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(len(accs)) }
	var l *serve.Learner
	d, err := timeMin(k, func() (err error) {
		l, err = serve.NewLearner(core.Config{})
		return err
	}, func() error {
		for i := range accs {
			l.DecideAccess(&accs[i])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	r.learnerNS = perDecision(d)

	// The wire frames exactly as the sessions send and receive them.
	var reqs, reps []serve.Frame
	if batch > 0 {
		for i := 0; i < len(accs); i += batch {
			j := min(i+batch, len(accs))
			reqs = append(reqs, serve.Frame{Type: serve.FrameBatch, Accesses: accs[i:j]})
			reps = append(reps, serve.Frame{Type: serve.FrameBatch, Results: results[i:j]})
		}
	} else {
		for i := range frames {
			fr := frames[i]
			fr.Seq = accs[i].Seq
			reqs = append(reqs, fr)
			reps = append(reps, serve.Frame{Type: serve.FrameDecision, Seq: fr.Seq, Prefetch: results[i].Prefetch, Shadow: results[i].Shadow})
		}
	}
	// codecNS times encoding and decoding the frames, per decision.
	codecNS := func(fs []serve.Frame) (float64, float64, error) {
		var buf []byte
		enc, err := timeMin(k, nil, func() error {
			for i := range fs {
				var err error
				if buf, err = serve.AppendFrame(buf[:0], &fs[i]); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return 0, 0, err
		}
		lines := make([][]byte, len(fs))
		for i := range fs {
			b, err := serve.AppendFrame(nil, &fs[i])
			if err != nil {
				return 0, 0, err
			}
			lines[i] = b[:len(b)-1] // without the newline, as the reader hands it over
		}
		var into serve.Frame
		dec, err := timeMin(k, nil, func() error {
			for _, line := range lines {
				if err := serve.DecodeFrameInto(line, &into); err != nil {
					return err
				}
			}
			return nil
		})
		return perDecision(enc), perDecision(dec), err
	}
	reqEnc, reqDec, err := codecNS(reqs)
	if err != nil {
		return nil, fmt.Errorf("request codec: %w", err)
	}
	repEnc, repDec, err := codecNS(reps)
	if err != nil {
		return nil, fmt.Errorf("reply codec: %w", err)
	}
	r.requestNS = reqEnc + reqDec
	r.replyNS = repEnc + repDec
	r.clientEncodeNS, r.clientDecodeNS = reqEnc, repDec
	return r, nil
}
