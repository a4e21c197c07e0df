package exp

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"semloc/internal/obs"
	"semloc/internal/sim"
)

// ArtifactSchema versions the per-run JSON artifact format. Schema 3 is
// the first to carry the learner's snapshot; an artifact of an older
// schema is refused, and a run with -obs-dir writes it again.
const ArtifactSchema = 3

// RunArtifact is the per-run JSON file the Runner writes into
// Options.OutDir: one self-contained record per (workload, prefetcher)
// pair holding the simulation result (including the telemetry series when
// enabled) and the learner's snapshot at the end of the run, so figure
// data and learning-curve data land in one artifact that cmd/inspect can
// render without re-simulating.
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
	// Learner is the learner's snapshot at the end of the run, with its
	// obs.RankedDeltas most frequent deltas (nil for prefetchers without a
	// learner).
	Learner *obs.LearnerHealth `json:"learner,omitempty"`
}

// Validate checks the invariants cmd/inspect and tests rely on.
func (a *RunArtifact) Validate() error {
	if a == nil {
		return fmt.Errorf("exp: nil artifact")
	}
	if a.Schema != ArtifactSchema {
		return fmt.Errorf("exp: artifact schema %d, want %d: regenerate it with -obs-dir", a.Schema, ArtifactSchema)
	}
	if a.Workload == "" || a.Prefetcher == "" {
		return fmt.Errorf("exp: artifact missing run identity")
	}
	if a.Result == nil {
		return fmt.Errorf("exp: artifact %s/%s has no result", a.Workload, a.Prefetcher)
	}
	if a.Learner != nil {
		if err := a.Learner.CheckOutcomes(); err != nil {
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

// newRunArtifact assembles the artifact for one completed run.
func newRunArtifact(res *sim.Result, learner *obs.LearnerHealth, opts Options) *RunArtifact {
	return &RunArtifact{
		Schema:     ArtifactSchema,
		Workload:   res.Workload,
		Prefetcher: res.Prefetcher,
		Scale:      opts.Scale,
		Seed:       opts.Seed,
		IPC:        res.IPC(),
		L1MPKI:     res.L1MPKI(),
		L2MPKI:     res.L2MPKI(),
		Result:     res,
		Learner:    learner,
	}
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
