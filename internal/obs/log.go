package obs

import (
	"fmt"
	"io"
	"log/slog"
	"os"
	"sync/atomic"
	"time"
)

// runIDSeq distinguishes IDs minted by one process in the same nanosecond
// (a parallel fleet spawning loggers back to back can easily tie on
// time^pid alone).
var runIDSeq atomic.Uint64

// NewRunID derives a unique identifier for one command invocation, carried
// as the run_id attribute on every structured log line so concurrent or
// scripted sweeps can be teased apart afterwards. The ID mixes wall time,
// the process ID and a process-local atomic counter through a splitmix64
// finalizer into 64 bits — two invocations collide only if time AND pid
// AND counter all coincide, which cannot happen within a process and is
// vanishingly unlikely across one.
func NewRunID() string {
	// seq advances the pre-mix state by the splitmix64 golden gamma, so two
	// same-nanosecond in-process IDs still differ by a nonzero multiple of an
	// odd constant — distinct mod 2^64 — and the finalizer is a bijection,
	// so the distinction survives into the printed ID.
	h := uint64(time.Now().UnixNano()) ^ uint64(os.Getpid())<<40
	h += runIDSeq.Add(1) * 0x9e3779b97f4a7c15
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return fmt.Sprintf("%016x", h)
}

// LogLevel maps the shared -q command flag onto a slog level: quiet shows
// warnings and errors only.
func LogLevel(quiet bool) slog.Level {
	if quiet {
		return slog.LevelWarn
	}
	return slog.LevelInfo
}

// NewLogger builds the structured logger the run commands share: text
// format on w (stderr by convention — stdout stays reserved for tables
// and reports), tagged with the command name and a fresh run ID. It also
// installs itself as the slog default, so library-side slog calls join
// the same stream.
func NewLogger(w io.Writer, cmd string, quiet bool) *slog.Logger {
	if w == nil {
		w = os.Stderr
	}
	h := slog.NewTextHandler(w, &slog.HandlerOptions{Level: LogLevel(quiet)})
	lg := slog.New(h).With("cmd", cmd, "run_id", NewRunID())
	slog.SetDefault(lg)
	return lg
}
