package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"

	"semloc/internal/core"
	"semloc/internal/sim"
)

// FileConfig is the JSON configuration accepted by cmd/prefetchsim's
// -config flag: optional overrides for the machine and for the context
// prefetcher. Each section the file has is decoded over the defaults
// (Table 2 for the machine, core.DefaultConfig for the prefetcher): a
// field the file omits keeps its default, and a field it sets, zero
// included, is taken as given and then validated. So a file only needs
// the fields it changes, e.g.
//
//	{"sim": {"Cache": {"DRAMLatency": 200}},
//	 "context": {"MaxDegree": 2, "Epsilon": 0.1}}
//
// The context section becomes the Job.Config of each context row (the
// other prefetchers ignore it), so NewCellPrefetcher sets its Policy for a
// policy variant's name and derives its Seed from -seed; a file that sets
// Seed is refused.
type FileConfig struct {
	Sim     *sim.Config  `json:"sim,omitempty"`
	Context *core.Config `json:"context,omitempty"`
}

// LoadConfig reads and validates a FileConfig. SimConfig is always usable
// (defaults where the file is silent); Context is nil when the file has no
// context section.
func LoadConfig(path string) (*FileConfig, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("exp: reading config: %w", err)
	}
	var sections struct {
		Sim     json.RawMessage `json:"sim"`
		Context json.RawMessage `json:"context"`
	}
	var fc FileConfig
	err = decodeStrict(data, &sections)
	if err == nil && sections.Sim != nil {
		c := sim.DefaultConfig()
		fc.Sim = &c
		err = decodeStrict(sections.Sim, fc.Sim)
	}
	if err == nil && sections.Context != nil {
		// Seed starts at zero so that a file setting it can be told apart.
		c := core.DefaultConfig()
		c.Seed = 0
		fc.Context = &c
		err = decodeStrict(sections.Context, fc.Context)
	}
	if err != nil {
		return nil, fmt.Errorf("exp: parsing config %s: %w", path, err)
	}
	if fc.Sim != nil {
		if err := fc.Sim.Cache.Validate(); err != nil {
			return nil, fmt.Errorf("exp: config %s: %w", path, err)
		}
		if err := fc.Sim.CPU.Validate(); err != nil {
			return nil, fmt.Errorf("exp: config %s: %w", path, err)
		}
	}
	if fc.Context != nil {
		if fc.Context.Seed != 0 {
			return nil, fmt.Errorf("exp: config %s: context Seed is not configurable: the learner's seed is derived from -seed", path)
		}
		if err := fc.Context.Validate(); err != nil {
			return nil, fmt.Errorf("exp: config %s: %w", path, err)
		}
	}
	return &fc, nil
}

// decodeStrict decodes one JSON value from data into v, refusing fields v
// does not have.
func decodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// SimConfig returns the machine configuration (defaults if absent).
func (fc *FileConfig) SimConfig() sim.Config {
	if fc == nil || fc.Sim == nil {
		return sim.DefaultConfig()
	}
	return *fc.Sim
}
