// Command loadgen drives a running prefetchd daemon with N concurrent
// client sessions and measures what it can serve: decisions per second
// and the client-observed latency distribution, written as a
// LOADGEN_<n>.json artifact (render or compare with `inspect serve`).
//
// Two operating modes:
//
//   - Open loop (-rate R): sessions send on a fixed schedule totalling R
//     decisions/sec, and each request's latency is measured from its
//     *scheduled* send time — the coordinated-omission correction, so a
//     stalling daemon inflates the tail instead of silently slowing the
//     clock that feeds it.
//   - Closed loop (-rate 0, the default): every session sends the next
//     access the moment the previous decision arrives — the saturation
//     probe. Latency is per-request round trip.
//
// The access stream comes from a generated workload (-workload/-scale/
// -seed, same generators as prefetchsim) or a recorded trace file
// (-trace); each session replays it in a loop under its own
// monotonically increasing seq.
//
// -batch B (default 1) packs B accesses per exchange using the batched
// protocol negotiated at hello. Latency stays per *decision*: in closed
// loop every member is timed from the batch's send, in open loop every
// member keeps its own scheduled send time — the batch goes out when its
// last member comes due, and the wait is charged to the early members
// (coordinated omission again), not hidden.
//
// With -metrics HOST:PORT (the daemon's -obs-listen address), the
// artifact also embeds a server-side scrape: the serving counters and
// every serve_*_latency histogram count, which must equal
// serve_decisions_total — the count-match invariant Validate enforces.
//
// Live progress (running percentiles, achieved rate) goes to stderr
// every -progress interval; -q silences it.
//
// Exit codes follow the harness contract: 0 ok, 1 run or artifact
// failure, 2 usage error, 3 cancelled by signal.
//
// Usage:
//
//	loadgen -addr 127.0.0.1:7077 -sessions 8 -duration 30s
//	loadgen -addr 127.0.0.1:7077 -rate 50000 -workload mcf -metrics 127.0.0.1:9090
//	loadgen -addr 127.0.0.1:7077 -trace results/app.trace -out LOADGEN_2.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"log/slog"

	"semloc/internal/harness"
	"semloc/internal/loadreport"
	"semloc/internal/obs"
	"semloc/internal/serve"
	"semloc/internal/serve/client"
	"semloc/internal/trace"
	"semloc/internal/workloads"
)

// loadgenSeq is the default artifact sequence number; bump it (or pass
// -n) in the PR that records a new baseline.
const loadgenSeq = 1

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// genConfig is one load-generation run, resolved from flags.
type genConfig struct {
	addr     string
	sessions int
	batch    int     // accesses per exchange; 1 = frame-at-a-time
	rate     float64 // total decisions/sec target; 0 = closed loop
	duration time.Duration

	workload string
	scale    float64
	seed     uint64
	traceIn  string

	metricsAddr string
	progress    time.Duration
	sessionTag  string
}

// totals aggregates the client-observed outcome across sessions.
type totals struct {
	decisions atomic.Uint64
	degraded  atomic.Uint64
	replayed  atomic.Uint64
	errors    atomic.Uint64
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr     = fs.String("addr", "", "prefetchd serving address (required)")
		sessions = fs.Int("sessions", 4, "concurrent client sessions")
		batch    = fs.Int("batch", 1, "accesses packed per exchange (1 = unbatched legacy protocol)")
		rate     = fs.Float64("rate", 0, "total target decisions/sec across all sessions (0 = closed-loop saturation)")
		duration = fs.Duration("duration", 10*time.Second, "how long to drive load")
		workload = fs.String("workload", "list", "workload generator for the access stream (see prefetchsim -list)")
		scale    = fs.Float64("scale", 0.1, "workload scale factor")
		seed     = fs.Uint64("seed", 1, "workload seed")
		traceIn  = fs.String("trace", "", "recorded trace file to replay instead of a generated workload")
		n        = fs.Int("n", loadgenSeq, "artifact sequence number (names the default output file)")
		out      = fs.String("out", "", "output path (default LOADGEN_<n>.json)")
		metrics  = fs.String("metrics", "", "daemon observability address (host:port) to scrape into the artifact")
		progress = fs.Duration("progress", 2*time.Second, "live progress interval (0 disables)")
		tag      = fs.String("session-tag", "", "session id prefix (default loadgen-<unix-nanos>, unique per run)")
		quiet    = fs.Bool("q", false, "suppress progress logging (errors still print)")
	)
	if err := fs.Parse(args); err != nil {
		return harness.ExitUsage
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "loadgen: unexpected arguments: %v\n", fs.Args())
		return harness.ExitUsage
	}
	logger := obs.NewLogger(stderr, "loadgen", *quiet, false)
	if *addr == "" {
		fmt.Fprintln(stderr, "loadgen: -addr is required")
		return harness.ExitUsage
	}
	if *sessions <= 0 || *duration <= 0 || *rate < 0 {
		fmt.Fprintln(stderr, "loadgen: -sessions and -duration must be positive, -rate non-negative")
		return harness.ExitUsage
	}
	if *batch < 1 || *batch > serve.MaxBatch {
		fmt.Fprintf(stderr, "loadgen: -batch must be 1..%d\n", serve.MaxBatch)
		return harness.ExitUsage
	}
	cfg := genConfig{
		addr: *addr, sessions: *sessions, batch: *batch, rate: *rate, duration: *duration,
		workload: *workload, scale: *scale, seed: *seed, traceIn: *traceIn,
		metricsAddr: *metrics, progress: *progress, sessionTag: *tag,
	}
	if cfg.sessionTag == "" {
		cfg.sessionTag = fmt.Sprintf("loadgen-%d", time.Now().UnixNano())
	}
	path := *out
	if path == "" {
		path = fmt.Sprintf("LOADGEN_%d.json", *n)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	rep, err := drive(ctx, cfg, logger)
	if err != nil {
		if ctx.Err() != nil && rep == nil {
			logger.Error("cancelled", "err", err)
			return harness.ExitCancelled
		}
		logger.Error("load generation failed", "err", err)
		return harness.ExitRunFailed
	}
	rep.Loadgen = *n
	if err := loadreport.WriteAndVerify(rep, path); err != nil {
		logger.Error("artifact failed verification", "err", err)
		return harness.ExitRunFailed
	}
	fmt.Fprintf(stdout, "loadgen: wrote %s (%d decisions, %.0f/s, p50 %v p99 %v)\n",
		path, rep.Decisions, rep.AchievedRate,
		time.Duration(rep.Latency.P50NS).Round(time.Microsecond),
		time.Duration(rep.Latency.P99NS).Round(time.Microsecond))
	return harness.ExitOK
}

// loadFrames builds the access stream every session replays: a generated
// workload or a recorded trace, converted to wire frames.
func loadFrames(cfg genConfig) ([]serve.Frame, error) {
	var tr *trace.Trace
	if cfg.traceIn != "" {
		f, err := os.Open(cfg.traceIn)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if tr, err = trace.Read(f); err != nil {
			return nil, fmt.Errorf("loadgen: reading -trace: %w", err)
		}
	} else {
		w, err := workloads.ByName(cfg.workload)
		if err != nil {
			return nil, err
		}
		tr = w.Generate(workloads.GenConfig{Scale: cfg.scale, Seed: cfg.seed})
	}
	frames := serve.AccessFrames(tr)
	if len(frames) == 0 {
		return nil, fmt.Errorf("loadgen: access stream is empty")
	}
	return frames, nil
}

// drive runs the whole generation: spawn sessions, tick progress, join,
// scrape, assemble the report.
func drive(ctx context.Context, cfg genConfig, logger *slog.Logger) (*loadreport.Report, error) {
	frames, err := loadFrames(cfg)
	if err != nil {
		return nil, err
	}
	logger.Info("stream ready", "frames", len(frames), "sessions", cfg.sessions,
		"rate", cfg.rate, "duration", cfg.duration)

	// One shared registry: the latency histogram all sessions observe into
	// and the client_* transport counters.
	reg := obs.NewRegistry()
	lat := reg.Histogram("loadgen_latency_seconds",
		"client-observed decision latency (from scheduled send time in open loop)",
		obs.DefaultLatencyBuckets)

	var tot totals
	runCtx, cancel := context.WithTimeout(ctx, cfg.duration)
	defer cancel()

	var wg sync.WaitGroup
	start := time.Now()
	for i := 0; i < cfg.sessions; i++ {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			driveSession(runCtx, cfg, idx, frames, reg, lat, &tot, logger)
		}(i)
	}

	progressDone := make(chan struct{})
	if cfg.progress > 0 {
		go func() {
			defer close(progressDone)
			tick := time.NewTicker(cfg.progress)
			defer tick.Stop()
			var lastN uint64
			var lastT = start
			for {
				select {
				case <-runCtx.Done():
					return
				case now := <-tick.C:
					n := tot.decisions.Load()
					rate := float64(n-lastN) / now.Sub(lastT).Seconds()
					lastN, lastT = n, now
					logger.Info("progress",
						"decisions", n, "rate", fmt.Sprintf("%.0f/s", rate),
						"p50", time.Duration(lat.Quantile(0.50)*1e9).Round(time.Microsecond),
						"p95", time.Duration(lat.Quantile(0.95)*1e9).Round(time.Microsecond),
						"p99", time.Duration(lat.Quantile(0.99)*1e9).Round(time.Microsecond),
						"errors", tot.errors.Load(), "degraded", tot.degraded.Load())
				}
			}
		}()
	} else {
		close(progressDone)
	}

	wg.Wait()
	elapsed := time.Since(start)
	cancel()
	<-progressDone

	// A signal (not the timer) ending the run early is a cancellation —
	// unless enough ran to still be a usable measurement.
	if ctx.Err() != nil && tot.decisions.Load() == 0 {
		return nil, ctx.Err()
	}

	rep := &loadreport.Report{
		Schema:     loadreport.Schema,
		Sessions:   cfg.sessions,
		Batch:      cfg.batch,
		TargetRate: cfg.rate,
		OpenLoop:   cfg.rate > 0,
		DurationNS: elapsed.Nanoseconds(),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Decisions:  tot.decisions.Load(),
		Degraded:   tot.degraded.Load(),
		Replayed:   tot.replayed.Load(),
		Errors:     tot.errors.Load(),
		Busy:       reg.Counter(client.MetricClientBusy, "").Value(),
		Retries:    reg.Counter(client.MetricClientRetries, "").Value(),
		Reconnects: reg.Counter(client.MetricClientReconnects, "").Value(),
		Latency: loadreport.Percentiles{
			P50NS:  int64(lat.Quantile(0.50) * 1e9),
			P95NS:  int64(lat.Quantile(0.95) * 1e9),
			P99NS:  int64(lat.Quantile(0.99) * 1e9),
			P999NS: int64(lat.Quantile(0.999) * 1e9),
		},
	}
	if cfg.traceIn != "" {
		rep.TraceFile = cfg.traceIn
	} else {
		rep.Workload, rep.Scale, rep.Seed = cfg.workload, cfg.scale, cfg.seed
	}
	if d := rep.Decisions; d > 0 {
		rep.AchievedRate = float64(d) / elapsed.Seconds()
		rep.DegradedRate = float64(rep.Degraded) / float64(d)
		rep.BusyRate = float64(rep.Busy) / float64(d)
	}
	if cfg.metricsAddr != "" {
		scrape, err := scrapeServer(cfg.metricsAddr)
		if err != nil {
			return nil, fmt.Errorf("loadgen: scraping -metrics: %w", err)
		}
		rep.Server = scrape
	}
	return rep, nil
}

// driveSession is one session's send loop: it packs cfg.batch accesses
// per DecideBatch exchange (with -batch 1 every exchange is one access
// frame). In open loop access k's scheduled send time is
// start + k*interval, a batch is written when its *last* member comes
// due, and each member's latency is measured from its own schedule — so
// the wait for a batch to fill is charged to its early members, and a
// daemon that can't keep up accumulates schedule debt that shows up in
// the tail, exactly as queued real clients would experience it. In
// closed loop the next batch forms the moment the previous reply lands,
// and every member is timed from the batch's send.
func driveSession(ctx context.Context, cfg genConfig, idx int, frames []serve.Frame,
	reg *obs.Registry, lat *obs.Histogram, tot *totals, logger *slog.Logger) {
	ask := cfg.batch
	if ask == 1 {
		ask = 0 // a batch of one is an access frame: keep the unbatched hello
	}
	cl, err := client.Dial(client.Config{
		Addr:     client.FixedAddr(cfg.addr),
		Session:  fmt.Sprintf("%s-%d", cfg.sessionTag, idx),
		MaxBatch: ask,
		Reg:      reg,
	})
	if err != nil {
		tot.errors.Add(1)
		logger.Error("session dial failed", "session", idx, "err", err)
		return
	}
	defer cl.Close()

	var interval time.Duration
	if cfg.rate > 0 {
		interval = time.Duration(float64(cfg.sessions) / cfg.rate * float64(time.Second))
	}
	start := time.Now()
	var k, seq uint64
	fi := 0
	accs := make([]serve.BatchAccess, cfg.batch)
	sched := make([]time.Time, cfg.batch)
	for ctx.Err() == nil {
		for j := 0; j < cfg.batch; j++ {
			if interval > 0 {
				sched[j] = start.Add(time.Duration(k) * interval)
				k++
			}
			seq++
			accs[j] = frames[fi].Access() // the template is shared read-only
			accs[j].Seq = seq
			if fi++; fi == len(frames) {
				fi = 0
			}
		}
		if interval > 0 {
			if d := time.Until(sched[cfg.batch-1]); d > 0 {
				select {
				case <-ctx.Done():
					return
				case <-time.After(d):
				}
			}
		} else {
			now := time.Now()
			for j := range sched {
				sched[j] = now
			}
		}
		res, err := cl.DecideBatch(accs, sched)
		if err != nil {
			if ctx.Err() != nil {
				return // shutdown races look like request errors
			}
			tot.errors.Add(1)
			if rw, ok := err.(*client.RewindError); ok {
				seq = rw.ServerSeq // replay from the daemon's high-water mark
			}
			continue
		}
		for j := range res {
			lat.Observe(time.Since(sched[j]).Seconds())
			tot.decisions.Add(1)
			if res[j].Degraded {
				tot.degraded.Add(1)
			}
			if res[j].Replayed {
				tot.replayed.Add(1)
			}
		}
	}
}

// scrapeServer pulls the daemon's expvar endpoint and extracts the
// serving counters and latency histogram counts. The session workers
// observe a frame's latency just after writing its reply, so the very
// last decisions can trail the counter for a moment — scrape until the
// counts settle at the invariant (every histogram count ==
// decisions_total) or a short deadline passes, then report what stands.
func scrapeServer(addr string) (*loadreport.ServerScrape, error) {
	// A private transport so the keep-alive connection (and its two
	// transport goroutines) is torn down when the scrape finishes.
	hc := &http.Client{Transport: &http.Transport{}}
	defer hc.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s, err := scrapeOnce(hc, addr)
		if err != nil {
			return nil, err
		}
		settled := true
		for _, c := range s.LatencyCounts {
			settled = settled && c == s.DecisionsTotal
		}
		if b := s.BatchSize; b != nil {
			settled = settled && uint64(b.Sum+0.5) == s.DecisionsTotal
		}
		if settled || time.Now().After(deadline) {
			return s, nil
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func scrapeOnce(hc *http.Client, addr string) (*loadreport.ServerScrape, error) {
	resp, err := hc.Get("http://" + addr + "/debug/vars")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var vars struct {
		Semloc map[string]json.RawMessage `json:"semloc"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		return nil, fmt.Errorf("parsing /debug/vars: %w", err)
	}
	counter := func(name string) uint64 {
		var v uint64
		if raw, ok := vars.Semloc[name]; ok {
			json.Unmarshal(raw, &v)
		}
		return v
	}
	s := &loadreport.ServerScrape{
		DecisionsTotal: counter("serve_decisions_total"),
		DegradedTotal:  counter("serve_degraded_total"),
		ReplayedTotal:  counter("serve_replayed_total"),
		BusyTotal:      counter("serve_busy_total"),
		LatencyCounts:  map[string]uint64{},
	}
	for _, name := range []string{
		serve.MetricDecodeLatency, serve.MetricQueueWaitLatency,
		serve.MetricDecideLatency, serve.MetricWriteLatency, serve.MetricFrameLatency,
	} {
		raw, ok := vars.Semloc[name]
		if !ok {
			return nil, fmt.Errorf("daemon exports no %s histogram (serving-path tracing disabled?)", name)
		}
		var h struct {
			Count uint64  `json:"count"`
			Sum   float64 `json:"sum"`
		}
		if err := json.Unmarshal(raw, &h); err != nil {
			return nil, fmt.Errorf("parsing %s: %w", name, err)
		}
		s.LatencyCounts[name] = h.Count
		if name == serve.MetricFrameLatency {
			s.FrameLatencySumNS = int64(h.Sum * 1e9)
		}
	}
	s.CoalescedWritesTotal = counter("serve_coalesced_writes_total")
	if raw, ok := vars.Semloc[serve.MetricBatchSize]; ok {
		var h struct {
			Count   uint64            `json:"count"`
			Sum     float64           `json:"sum"`
			Buckets map[string]uint64 `json:"buckets"`
		}
		if err := json.Unmarshal(raw, &h); err != nil {
			return nil, fmt.Errorf("parsing %s: %w", serve.MetricBatchSize, err)
		}
		if h.Count > 0 {
			s.BatchSize = &loadreport.BatchSizeSummary{
				Count: h.Count,
				Sum:   h.Sum,
				Mean:  h.Sum / float64(h.Count),
				P50:   bucketQuantile(h.Buckets, 0.50),
				P95:   bucketQuantile(h.Buckets, 0.95),
			}
		}
	}
	return s, nil
}

// bucketQuantile reconstructs a quantile from an expvar histogram's
// cumulative buckets, with the same linear interpolation
// obs.Histogram.Quantile applies to the live counts.
func bucketQuantile(cum map[string]uint64, q float64) float64 {
	type bucket struct {
		bound float64
		cum   uint64
	}
	var bks []bucket
	var total uint64
	for k, v := range cum {
		if k == "+Inf" {
			total = v
			continue
		}
		b, err := strconv.ParseFloat(k, 64)
		if err != nil {
			continue
		}
		bks = append(bks, bucket{b, v})
	}
	sort.Slice(bks, func(i, j int) bool { return bks[i].bound < bks[j].bound })
	if total == 0 && len(bks) > 0 {
		total = bks[len(bks)-1].cum
	}
	if total == 0 || len(bks) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var prev uint64
	lower := 0.0
	for _, b := range bks {
		c := float64(b.cum - prev)
		if float64(prev)+c >= rank && c > 0 {
			return lower + (rank-float64(prev))/c*(b.bound-lower)
		}
		prev = b.cum
		lower = b.bound
	}
	return bks[len(bks)-1].bound
}
