package obs

import (
	"context"
	"log/slog"
	"time"
)

// DefaultProgressInterval is the cadence of live progress lines when the
// caller does not choose one.
const DefaultProgressInterval = 5 * time.Second

// StartProgress emits periodic slog progress lines for a running batch,
// driven by the registry's live-run metrics (the same counters the
// /metrics endpoint serves): cells done/total/failed, completion rate, an
// ETA extrapolated from it, and the last completed cell's IPC and L1 MPKI.
// It returns a stop function that halts the ticker and emits one final
// line when any cells completed; the reporter also stops when ctx is
// cancelled. A nil registry or logger disables reporting (stop is still
// safe to call).
func StartProgress(ctx context.Context, logger *slog.Logger, reg *Registry, interval time.Duration) (stop func()) {
	if reg == nil || logger == nil {
		return func() {}
	}
	if interval <= 0 {
		interval = DefaultProgressInterval
	}
	m := NewRunMetrics(reg)
	total, done := m.CellsTotal, m.CellsDone
	start := time.Now()
	line := func(event string) {
		d, t := done.Value(), total.Value()
		elapsed := time.Since(start)
		attrs := []any{
			"done", d, "total", t, "failed", m.CellsFailed.Value(),
			"busy", int(m.WorkersBusy.Value()),
			"elapsed", elapsed.Round(time.Millisecond),
		}
		if d > 0 && elapsed > 0 {
			rate := float64(d) / elapsed.Seconds()
			attrs = append(attrs, "cells_per_sec", float64(int(rate*100))/100)
			if t > d {
				eta := time.Duration(float64(t-d) / rate * float64(time.Second))
				attrs = append(attrs, "eta", eta.Round(time.Second))
			}
			attrs = append(attrs, "last_ipc", m.LastIPC.Value(), "last_l1_mpki", m.LastL1MPKI.Value())
		}
		logger.Info(event, attrs...)
	}
	tickerDone := make(chan struct{})
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		var lastDone uint64
		for {
			select {
			case <-ctx.Done():
				return
			case <-tickerDone:
				return
			case <-ticker.C:
				// Stay quiet until work is actually queued, and after it is
				// all drained (e.g. while a command renders tables).
				if d, t := done.Value(), total.Value(); t > 0 && (d < t || d != lastDone) {
					line("progress")
					lastDone = d
				}
			}
		}
	}()
	var once bool
	return func() {
		if once {
			return
		}
		once = true
		close(tickerDone)
		<-stopped
		if done.Value() > 0 {
			line("batch complete")
		}
	}
}
