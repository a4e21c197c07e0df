// Package harness makes simulation runs cancellable, bounded and
// crash-proof. It is the failure-model layer between the pure simulation
// libraries (sim, cpu, cache, core) and anything that launches runs in
// bulk (cmd/experiments, cmd/sweep, cmd/prefetchsim, exp.Runner):
//
//   - Cancellation: Run threads its context into the simulation loop,
//     which checks it every few thousand records, so SIGINT or a parent
//     deadline stops an in-flight run promptly.
//   - Watchdog: an optional supervisor samples the core model's
//     retired-instruction counter and aborts the run with a diagnostic
//     *StallError when it stops advancing for StallTimeout, instead of
//     letting a livelocked model hang the process forever.
//   - Panic containment: a recover guard converts any library-side panic
//     (heap exhaustion, configuration MustNew, index bugs) into a typed
//     *PanicError, so one bad (workload, prefetcher) pair fails its own
//     run without killing a whole sweep.
//
// The package also defines the exit-code contract shared by the
// run-oriented commands (see DESIGN.md, "Failure model").
package harness

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync/atomic"
	"time"

	"semloc/internal/prefetch"
	"semloc/internal/sim"
	"semloc/internal/trace"
)

// Exit codes shared by cmd/experiments, cmd/sweep and cmd/prefetchsim.
// They are part of the documented interface: scripts driving sweeps rely
// on distinguishing "user cancelled" from "a run failed".
const (
	// ExitOK: every requested run completed.
	ExitOK = 0
	// ExitRunFailed: at least one run failed (simulation error, recovered
	// panic, or watchdog abort).
	ExitRunFailed = 1
	// ExitUsage: invalid flags or configuration; nothing was run.
	ExitUsage = 2
	// ExitCancelled: SIGINT/SIGTERM (or a parent context) cancelled
	// in-flight runs; partial results may have been printed.
	ExitCancelled = 3
)

// RunConfig bounds one simulation run.
type RunConfig struct {
	// StallTimeout aborts the run when the retired-instruction counter
	// makes no forward progress for this long. Zero disables the watchdog.
	StallTimeout time.Duration
	// CheckInterval is the watchdog sampling period. Zero derives it from
	// StallTimeout (a quarter, clamped to [10ms, 1s]).
	CheckInterval time.Duration
	// Grace is how long an aborted or cancelled run is given to notice the
	// cancellation before its goroutine is abandoned (it may be wedged
	// inside a single access, where cooperative checks cannot reach).
	// Zero means one second.
	Grace time.Duration
}

// PanicError is a panic recovered at the harness boundary, carrying the
// panic value and the stack of the panicking goroutine.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the formatted stack trace captured at recovery.
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// Unwrap exposes the panic value when it is itself an error (e.g. a
// *memmodel.HeapExhaustedError or a config error wrapping ErrBadConfig),
// so errors.Is/As see through the recovery.
func (e *PanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// TimeoutError is the cancellation cause installed by WithTimeout: the
// whole invocation exceeded its -timeout budget. Unlike a user interrupt
// it is a failure of the runs (ExitRunFailed), not a cancellation
// (ExitCancelled) — a script that sets a deadline wants a non-zero,
// non-"user pressed ^C" exit when the deadline fires.
type TimeoutError struct {
	// Limit is the wall-clock budget that was exceeded.
	Limit time.Duration
}

// Error implements error.
func (e *TimeoutError) Error() string {
	return fmt.Sprintf("harness: exceeded the %v -timeout budget", e.Limit)
}

// IsTimeout reports whether err stems from a WithTimeout deadline.
func IsTimeout(err error) bool {
	var te *TimeoutError
	return errors.As(err, &te)
}

// WithTimeout derives a context that cancels after d with a *TimeoutError
// cause, so runs aborted by the deadline fail with a typed, descriptive
// error (IsTimeout) instead of a bare context.DeadlineExceeded. d <= 0
// returns ctx unchanged with a no-op cancel.
func WithTimeout(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	if d <= 0 {
		return ctx, func() {}
	}
	return context.WithTimeoutCause(ctx, d, &TimeoutError{Limit: d})
}

// StallError is the watchdog's diagnostic snapshot of a run that stopped
// making forward progress.
type StallError struct {
	// Workload and Prefetcher identify the stalled run.
	Workload, Prefetcher string
	// Instructions is the last retired-instruction count observed.
	Instructions uint64
	// Stalled is how long the counter had not advanced when the watchdog
	// fired; Elapsed is the total wall-clock age of the run.
	Stalled, Elapsed time.Duration
}

// Error implements error.
func (e *StallError) Error() string {
	return fmt.Sprintf("harness: %s/%s stalled: no forward progress for %v (retired %d instructions in %v)",
		e.Workload, e.Prefetcher, e.Stalled.Round(time.Millisecond), e.Instructions, e.Elapsed.Round(time.Millisecond))
}

// IsStall reports whether err stems from a watchdog abort.
func IsStall(err error) bool {
	var se *StallError
	return errors.As(err, &se)
}

// IsCancelled reports whether err stems from context cancellation (user
// interrupt or parent deadline) rather than a failure of the run itself.
// Watchdog aborts and -timeout expiries are failures, not cancellations.
func IsCancelled(err error) bool {
	return (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) &&
		!IsStall(err) && !IsTimeout(err)
}

// Safely invokes fn, converting a panic into a *PanicError. It guards
// code outside Run's supervision that can still panic, such as workload
// trace generation (heap exhaustion).
func Safely(fn func() error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	return fn()
}

// Run executes one simulation under the harness guarantees: ctx
// cancellation stops it promptly, the watchdog (when rc.StallTimeout > 0)
// aborts it when the core model stops retiring instructions, and any panic
// surfaces as a *PanicError instead of crashing the process.
//
// When a cancelled or aborted run does not acknowledge within rc.Grace —
// it is wedged inside a single access, beyond the reach of cooperative
// checks — its goroutine is abandoned (it leaks by design: Go offers no
// way to kill it) and Run returns the cancellation cause.
func Run(ctx context.Context, tr *trace.Trace, pf prefetch.Prefetcher, cfg sim.Config, rc RunConfig) (*sim.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	runCtx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)

	var progress atomic.Uint64
	cfg.CPU.Progress = &progress
	if rc.StallTimeout > 0 {
		go watch(runCtx, cancel, &progress, rc, tr.Name, pf.Name())
	}

	type outcome struct {
		res *sim.Result
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		defer func() {
			if v := recover(); v != nil {
				ch <- outcome{nil, &PanicError{Value: v, Stack: debug.Stack()}}
			}
		}()
		res, err := sim.RunContext(runCtx, tr, pf, cfg)
		ch <- outcome{res, err}
	}()

	select {
	case o := <-ch:
		return o.res, o.err
	case <-runCtx.Done():
		grace := rc.Grace
		if grace <= 0 {
			grace = time.Second
		}
		timer := time.NewTimer(grace)
		defer timer.Stop()
		select {
		case o := <-ch:
			return o.res, o.err
		case <-timer.C:
			return nil, fmt.Errorf("harness: %s/%s unresponsive to cancellation after %v, goroutine abandoned: %w",
				tr.Name, pf.Name(), grace, context.Cause(runCtx))
		}
	}
}

// watch samples the progress counter and cancels the run with a
// *StallError once it has not advanced for rc.StallTimeout.
func watch(ctx context.Context, cancel context.CancelCauseFunc, progress *atomic.Uint64, rc RunConfig, workload, prefetcher string) {
	interval := rc.CheckInterval
	if interval <= 0 {
		interval = rc.StallTimeout / 4
		if interval > time.Second {
			interval = time.Second
		}
		if interval < 10*time.Millisecond {
			interval = 10 * time.Millisecond
		}
	}
	start := time.Now()
	last := progress.Load()
	lastChange := start
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			cur := progress.Load()
			if cur != last {
				last, lastChange = cur, time.Now()
				continue
			}
			if stalled := time.Since(lastChange); stalled >= rc.StallTimeout {
				cancel(&StallError{
					Workload: workload, Prefetcher: prefetcher,
					Instructions: cur, Stalled: stalled, Elapsed: time.Since(start),
				})
				return
			}
		}
	}
}
