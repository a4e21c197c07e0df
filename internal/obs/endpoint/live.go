package endpoint

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"time"

	"semloc/internal/obs"
)

// Live bundles the live-observability attachments of one command
// invocation: a metrics registry (always on — its cost is a few atomics per
// matrix cell), the periodic progress reporter, an optional HTTP endpoint
// (-listen) and an optional span recorder (-spans). Commands hand Reg and
// Spans to exp.Options and defer Close; everything else is internal.
type Live struct {
	// Reg is the registry the engine updates, the progress reporter reads,
	// and the endpoint serves.
	Reg *obs.Registry
	// Spans is the span recorder (nil unless a spans path was given, which
	// keeps the engine's tracing branch disabled).
	Spans *obs.SpanRecorder

	srv          *Server
	logger       *slog.Logger
	spansPath    string
	stopProgress func()
}

// StartLive wires the live attachments: it builds the registry, starts the
// progress reporter at the given interval (0 means obs.DefaultProgressInterval),
// binds the metrics endpoint when listen is non-empty, and allocates a span
// recorder when spansPath is non-empty. The caller must Close the returned
// Live; Close is what flushes the span file and frees the listener.
func StartLive(ctx context.Context, logger *slog.Logger, listen, spansPath string, interval time.Duration) (*Live, error) {
	l := &Live{Reg: obs.NewRegistry(), logger: logger, spansPath: spansPath}
	if spansPath != "" {
		l.Spans = obs.NewSpanRecorder()
	}
	if listen != "" {
		srv, err := Serve(listen, l.Reg)
		if err != nil {
			return nil, err
		}
		l.srv = srv
		if logger != nil {
			logger.Info("metrics endpoint up", "addr", srv.Addr(),
				"metrics", fmt.Sprintf("http://%s/metrics", srv.Addr()))
		}
	}
	l.stopProgress = obs.StartProgress(ctx, logger, l.Reg, interval)
	return l, nil
}

// Ready flips the endpoint's /readyz to 200 (no-op without -listen);
// commands call it once their runner is built and jobs are submitted.
func (l *Live) Ready() {
	if l != nil && l.srv != nil {
		l.srv.SetReady(true)
	}
}

// Addr returns the endpoint's bound address, or "" without -listen.
func (l *Live) Addr() string {
	if l == nil || l.srv == nil {
		return ""
	}
	return l.srv.Addr()
}

// Close stops the progress reporter (emitting its final line), writes the
// span file, and tears down the endpoint. Nil-safe, idempotent via the
// underlying stop/Close semantics.
func (l *Live) Close() error {
	if l == nil {
		return nil
	}
	l.stopProgress()
	var errs []error
	if l.spansPath != "" {
		if err := l.writeSpans(); err != nil {
			errs = append(errs, err)
		}
	}
	if l.srv != nil {
		if err := l.srv.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

func (l *Live) writeSpans() error {
	f, err := os.Create(l.spansPath)
	if err != nil {
		return fmt.Errorf("obs: span file: %w", err)
	}
	if err := l.Spans.WriteChromeTrace(f); err != nil {
		f.Close()
		return fmt.Errorf("obs: span file: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("obs: span file: %w", err)
	}
	if l.logger != nil {
		l.logger.Info("span trace written", "path", l.spansPath, "spans", len(l.Spans.Spans()))
	}
	return nil
}
