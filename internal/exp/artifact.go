package exp

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"semloc/internal/core"
	"semloc/internal/prefetch"
	"semloc/internal/sim"
)

// ArtifactSchema versions the per-run JSON artifact format. Schema 2 added
// the learner-health fields (outcome taxonomy, explore/exploit split,
// reward-sign mix, CST churn) to Metrics and the interval samples; schema 1
// artifacts still load (their learner fields read as zero), but the
// outcome count-match invariant is only asserted on schema >= 2, where the
// writer recorded it.
const ArtifactSchema = 2

// RunArtifact is the per-run JSON file the Runner writes into
// Options.OutDir: one self-contained record per (workload, prefetcher)
// pair holding the simulation result (including the telemetry series when
// enabled), the prefetcher's final counters, and the learned-state
// summary — so figure data and learning-curve data land in one artifact
// that cmd/inspect can render without re-simulating.
type RunArtifact struct {
	Schema     int     `json:"schema"`
	Workload   string  `json:"workload"`
	Prefetcher string  `json:"prefetcher"`
	Scale      float64 `json:"scale"`
	Seed       uint64  `json:"seed"`
	// Headline figures, duplicated out of Result for cheap scanning.
	IPC    float64 `json:"ipc"`
	L1MPKI float64 `json:"l1_mpki"`
	L2MPKI float64 `json:"l2_mpki"`
	// Result is the full simulation outcome; Result.Series carries the
	// telemetry time series when interval sampling was on.
	Result *sim.Result `json:"result"`
	// Metrics and TableStats capture the context prefetcher's final
	// counters and learned state (nil for other prefetchers).
	Metrics    *core.Metrics    `json:"metrics,omitempty"`
	TableStats *core.TableStats `json:"table_stats,omitempty"`
}

// Validate checks the invariants cmd/inspect and tests rely on.
func (a *RunArtifact) Validate() error {
	if a == nil {
		return fmt.Errorf("exp: nil artifact")
	}
	if a.Schema != 1 && a.Schema != ArtifactSchema {
		return fmt.Errorf("exp: artifact schema %d, want 1 or %d", a.Schema, ArtifactSchema)
	}
	if a.Workload == "" || a.Prefetcher == "" {
		return fmt.Errorf("exp: artifact missing run identity")
	}
	if a.Result == nil {
		return fmt.Errorf("exp: artifact %s/%s has no result", a.Workload, a.Prefetcher)
	}
	if a.Schema >= 2 && a.Metrics != nil {
		// The outcome taxonomy must balance: accurate + late + evicted +
		// useless == real prefetches + carried. Only schema >= 2 writers
		// recorded the taxonomy, so older artifacts are exempt.
		if err := a.Metrics.CheckOutcomes(); err != nil {
			return fmt.Errorf("exp: artifact %s/%s: %w", a.Workload, a.Prefetcher, err)
		}
	}
	if s := a.Result.Series; s != nil {
		if err := s.Validate(); err != nil {
			return fmt.Errorf("exp: artifact %s/%s: %w", a.Workload, a.Prefetcher, err)
		}
	}
	return nil
}

// metricsSource and tableSource are the optional interfaces the artifact
// writer probes on a prefetcher (core.Prefetcher implements both).
type metricsSource interface{ Metrics() core.Metrics }
type tableSource interface{ Inspect() core.TableStats }

// newRunArtifact assembles the artifact for one completed run.
func newRunArtifact(res *sim.Result, pf prefetch.Prefetcher, opts Options) *RunArtifact {
	a := &RunArtifact{
		Schema:     ArtifactSchema,
		Workload:   res.Workload,
		Prefetcher: res.Prefetcher,
		Scale:      opts.Scale,
		Seed:       opts.Seed,
		IPC:        res.IPC(),
		L1MPKI:     res.L1MPKI(),
		L2MPKI:     res.L2MPKI(),
		Result:     res,
	}
	if ms, ok := pf.(metricsSource); ok {
		m := ms.Metrics()
		a.Metrics = &m
	}
	if ts, ok := pf.(tableSource); ok {
		st := ts.Inspect()
		a.TableStats = &st
	}
	return a
}

// runFileBase names the per-run artifact files: "<workload>__<prefetcher>"
// with path-hostile characters flattened.
func runFileBase(workload, prefetcher string) string {
	clean := func(s string) string {
		return strings.Map(func(r rune) rune {
			switch r {
			case '/', '\\', ':', ' ':
				return '-'
			}
			return r
		}, s)
	}
	return clean(workload) + "__" + clean(prefetcher)
}

// ArtifactPath returns where the Runner persists the run's JSON artifact.
func ArtifactPath(dir, workload, prefetcher string) string {
	return filepath.Join(dir, runFileBase(workload, prefetcher)+".json")
}

// DecisionsPath returns where the Runner persists the run's decision
// trace.
func DecisionsPath(dir, workload, prefetcher string) string {
	return filepath.Join(dir, runFileBase(workload, prefetcher)+".decisions.jsonl")
}

// WriteArtifact validates and persists the artifact, then re-reads and
// re-validates it, so a truncated or malformed file fails loudly.
func WriteArtifact(dir string, a *RunArtifact) (string, error) {
	if err := a.Validate(); err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("exp: artifact dir: %w", err)
	}
	path := ArtifactPath(dir, a.Workload, a.Prefetcher)
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return "", fmt.Errorf("exp: marshaling artifact %s: %w", path, err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("exp: writing artifact: %w", err)
	}
	if _, err := LoadArtifact(path); err != nil {
		return "", fmt.Errorf("exp: artifact failed read-back: %w", err)
	}
	return path, nil
}

// LoadArtifact reads and validates a per-run artifact.
func LoadArtifact(path string) (*RunArtifact, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("exp: reading artifact: %w", err)
	}
	var a RunArtifact
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, fmt.Errorf("exp: parsing artifact %s: %w", path, err)
	}
	if err := a.Validate(); err != nil {
		return nil, err
	}
	return &a, nil
}
