// Command prefetchd is the resilient prefetch-serving daemon: it accepts
// streaming access records from many concurrent client sessions over TCP
// (newline-delimited JSON frames, see internal/serve) and replies with
// prefetch decisions from per-session context learners.
//
// Robustness surface:
//
//   - Session lifecycle: sessions are created on first hello, re-attached
//     on reconnect, and reaped after -session-ttl of detached idleness.
//   - Overload: per-session inboxes are bounded (-inbox); when one fills,
//     accesses are answered immediately by a cheap next-line fallback
//     (decision carries degraded:true). A global in-flight cap
//     (-max-inflight) answers excess load with explicit busy frames.
//   - Durability: with -snapshot, learner state is checkpointed
//     periodically (-snapshot-interval), on SIGINT/SIGTERM drain, and
//     restored on boot (warm start) — a restarted daemon continues
//     bit-identically from its last snapshot.
//   - Containment: a panic in one session's learner poisons only that
//     session; a panic in one connection handler severs only that
//     connection.
//   - Throughput: clients may negotiate batching at hello (up to
//     -max-batch accesses per frame; one queue hop, one replay span and
//     one syscall per batch), and worker replies are coalesced per
//     connection (flushed at 4096 bytes, on an idle inbox, or after
//     200µs) so concurrent sessions share response syscalls. Old clients
//     never ask and keep speaking frame-per-decision unchanged.
//
// Observability: -obs-listen serves /metrics (Prometheus), /healthz,
// /readyz, /debug/serve (per-session serving stats as JSON) and pprof.
// The serving path is always instrumented: per-frame stage latency
// histograms (serve_decode/queue_wait/decide/write/frame_latency) cost a
// few clock reads per decision. -spans samples one request span per
// -trace-sample decisions into a Chrome-trace file written on drain
// (render with `inspect spans`); -slow-threshold logs any request slower
// than the threshold with its stage breakdown. Readiness flips up only
// after the snapshot restore and the serving socket are both up, so a
// load balancer never routes to a daemon still warming state — and flips
// down at the first drain signal, -drain-grace before the listener
// closes, so probes see 503 while in-flight streams finish.
//
// Exit codes: 0 clean drain (including signal-initiated), 1 runtime or
// shutdown failure (e.g. the final snapshot could not be written),
// 2 usage error.
//
// Usage:
//
//	prefetchd -listen 127.0.0.1:7077 -snapshot /var/tmp/prefetchd.snap
//	prefetchd -listen 127.0.0.1:0 -addr-file /tmp/prefetchd.addr -q
//	prefetchd -obs-listen :0 -spans /tmp/serve-spans.json -slow-threshold 5ms
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
	"syscall"
	"time"

	"semloc/internal/harness"
	"semloc/internal/obs"
	"semloc/internal/serve"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("prefetchd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		listen       = fs.String("listen", "127.0.0.1:7077", "serving socket address (use :0 for an ephemeral port)")
		obsListen    = fs.String("obs-listen", "", "serve /metrics, /healthz, /readyz and pprof on this address")
		snapshot     = fs.String("snapshot", "", "snapshot file for restore-on-boot and periodic/shutdown checkpoints")
		snapInterval = fs.Duration("snapshot-interval", 30*time.Second, "period between snapshots (with -snapshot)")
		sessionTTL   = fs.Duration("session-ttl", 5*time.Minute, "expire detached sessions idle this long")
		inbox        = fs.Int("inbox", 64, "per-session inbox depth before accesses shed to the degraded fallback")
		maxInflight  = fs.Int("max-inflight", 1024, "global cap on accepted-but-unanswered accesses before busy replies")
		maxBatch     = fs.Int("max-batch", serve.MaxBatch, "largest batch granted to clients at hello (0 disables batching)")
		addrFile     = fs.String("addr-file", "", "write the bound serving address to this file once listening")
		obsAddrFile  = fs.String("obs-addr-file", "", "write the bound observability address to this file (with -obs-listen)")
		spansOut     = fs.String("spans", "", "write sampled per-request spans to this Chrome-trace file on drain")
		traceSample  = fs.Int("trace-sample", 256, "record one request span per N decisions (with -spans)")
		slowThresh   = fs.Duration("slow-threshold", 0, "log requests slower than this end-to-end, with stage breakdown (0 disables)")
		drainGrace   = fs.Duration("drain-grace", 0, "after a drain signal, hold /readyz at 503 this long before closing the listener")
		quiet        = fs.Bool("q", false, "suppress progress logging (errors still print)")
	)
	if err := fs.Parse(args); err != nil {
		return harness.ExitUsage
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "prefetchd: unexpected arguments: %v\n", fs.Args())
		return harness.ExitUsage
	}
	logger := obs.NewLogger(stderr, "prefetchd", *quiet)

	reg := obs.NewRegistry()
	// The daemon always carries the stage-latency histograms (the cost is
	// a few clock reads per decision); spans only when -spans names a file.
	var spans *obs.SpanRecorder
	if *spansOut != "" {
		spans = obs.NewSpanRecorder()
	}
	trace := &serve.TraceConfig{
		Spans:         spans,
		SampleEvery:   *traceSample,
		SlowThreshold: *slowThresh,
	}
	// The flag uses 0 for "off"; the config uses negative (0 there means
	// "default").
	cfgMaxBatch := *maxBatch
	if cfgMaxBatch == 0 {
		cfgMaxBatch = -1
	}
	srv, err := serve.NewServer(serve.Config{
		Listen:           *listen,
		SessionTTL:       *sessionTTL,
		InboxDepth:       *inbox,
		MaxInflight:      *maxInflight,
		MaxBatch:         cfgMaxBatch,
		SnapshotPath:     *snapshot,
		SnapshotInterval: *snapInterval,
		Shards:           0, // default
		Reg:              reg,
		Trace:            trace,
		Logf: func(format string, a ...any) {
			logger.Info(fmt.Sprintf(format, a...))
		},
	})
	if err != nil {
		// A corrupt or unreadable snapshot is a runtime failure, not a
		// usage error: the operator must decide whether to delete it.
		logger.Error("boot failed", "err", err)
		return harness.ExitRunFailed
	}

	var obsSrv *obs.Server
	if *obsListen != "" {
		obsSrv, err = obs.Serve(*obsListen, reg)
		if err != nil {
			logger.Error("observability endpoint failed", "err", err)
			return harness.ExitUsage
		}
		defer obsSrv.Close()
		// Per-session serving stats, one JSON array ordered by session id.
		obsSrv.Handle("/debug/serve", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			enc.Encode(srv.SessionStatsAll())
		}))
		if *obsAddrFile != "" {
			if err := os.WriteFile(*obsAddrFile, []byte(obsSrv.Addr()+"\n"), 0o644); err != nil {
				logger.Error("writing -obs-addr-file failed", "err", err)
				return harness.ExitUsage
			}
		}
		logger.Info("observability endpoint up", "addr", obsSrv.Addr(),
			"metrics", fmt.Sprintf("http://%s/metrics", obsSrv.Addr()))
	}

	if err := srv.Start(); err != nil {
		logger.Error("listen failed", "err", err)
		return harness.ExitUsage
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(srv.Addr().String()+"\n"), 0o644); err != nil {
			logger.Error("writing -addr-file failed", "err", err)
			srv.Close()
			return harness.ExitUsage
		}
	}
	// Readiness only after restore (inside NewServer) and bind both
	// succeeded: a probe hitting /readyz never routes to cold state.
	if obsSrv != nil {
		obsSrv.SetReady(true)
	}
	logger.Info("serving", "addr", srv.Addr().String(),
		"restored_sessions", srv.RestoredSessions(), "snapshot", *snapshot)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()
	stop() // a second signal kills immediately instead of re-queueing

	logger.Info("signal received; draining")
	// Readiness drops first: a load balancer probing /readyz sees 503 and
	// stops routing while the daemon is still serving in-flight streams.
	// -drain-grace holds that window open (one or two probe periods in a
	// real deployment) before the listener actually closes.
	if obsSrv != nil {
		obsSrv.SetReady(false)
	}
	// stop() already ran, so a second signal kills the process outright
	// rather than waiting out the grace sleep.
	if *drainGrace > 0 {
		time.Sleep(*drainGrace)
	}
	if err := srv.Close(); err != nil {
		logger.Error("drain failed", "err", err)
		return harness.ExitRunFailed
	}
	if spans != nil {
		if err := writeSpans(*spansOut, spans); err != nil {
			logger.Error("writing -spans failed", "err", err)
			return harness.ExitRunFailed
		}
		logger.Info("wrote request spans", "file", *spansOut, "spans", len(spans.Spans()))
	}
	logger.Info("drained cleanly", "snapshot", *snapshot)
	return harness.ExitOK
}

// writeSpans renders the sampled request spans as Chrome trace-event JSON
// (the format `inspect spans` reads).
func writeSpans(path string, spans *obs.SpanRecorder) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := spans.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
