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
// prefetcher. Omitted sections keep the Table 2 defaults; within a
// provided section, zero-valued fields are filled from the defaults before
// validation, so a file only needs the fields it changes, e.g.
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
	var fc FileConfig
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&fc); err != nil {
		return nil, fmt.Errorf("exp: parsing config %s: %w", path, err)
	}
	if fc.Sim != nil {
		fillSimDefaults(fc.Sim)
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
		fillContextDefaults(fc.Context)
		if err := fc.Context.Validate(); err != nil {
			return nil, fmt.Errorf("exp: config %s: %w", path, err)
		}
	}
	return &fc, nil
}

// SimConfig returns the machine configuration (defaults if absent).
func (fc *FileConfig) SimConfig() sim.Config {
	if fc == nil || fc.Sim == nil {
		return sim.DefaultConfig()
	}
	return *fc.Sim
}

// fillSimDefaults replaces zero-valued machine fields with Table 2 values.
func fillSimDefaults(c *sim.Config) {
	def := sim.DefaultConfig()
	if c.CPU.Width == 0 {
		c.CPU.Width = def.CPU.Width
	}
	if c.CPU.ROB == 0 {
		c.CPU.ROB = def.CPU.ROB
	}
	if c.CPU.LQ == 0 {
		c.CPU.LQ = def.CPU.LQ
	}
	if c.CPU.SQ == 0 {
		c.CPU.SQ = def.CPU.SQ
	}
	if c.CPU.MispredictPenalty == 0 {
		c.CPU.MispredictPenalty = def.CPU.MispredictPenalty
	}
	if c.Cache.L1.Size == 0 {
		c.Cache.L1 = def.Cache.L1
	}
	if c.Cache.L2.Size == 0 {
		c.Cache.L2 = def.Cache.L2
	}
	if c.Cache.DRAMLatency == 0 {
		c.Cache.DRAMLatency = def.Cache.DRAMLatency
	}
	if c.Cache.PrefetchQueue == 0 {
		c.Cache.PrefetchQueue = def.Cache.PrefetchQueue
	}
	if c.Cache.DRAMChannels == 0 {
		c.Cache.DRAMChannels = def.Cache.DRAMChannels
	}
	if c.Cache.DRAMBusyCycles == 0 {
		c.Cache.DRAMBusyCycles = def.Cache.DRAMBusyCycles
	}
}

// fillContextDefaults replaces zero-valued prefetcher fields with the
// paper's defaults.
func fillContextDefaults(c *core.Config) {
	def := core.DefaultConfig()
	if c.CSTEntries == 0 {
		c.CSTEntries = def.CSTEntries
	}
	if c.CSTLinks == 0 {
		c.CSTLinks = def.CSTLinks
	}
	if c.ReducerEntries == 0 {
		c.ReducerEntries = def.ReducerEntries
	}
	if c.HistoryDepth == 0 {
		c.HistoryDepth = def.HistoryDepth
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = def.QueueDepth
	}
	if len(c.SampleDepths) == 0 {
		c.SampleDepths = def.SampleDepths
	}
	if c.Reward == (core.RewardConfig{}) {
		c.Reward = def.Reward
	}
	if c.Epsilon == 0 {
		c.Epsilon = def.Epsilon
	}
	if c.MaxDegree == 0 {
		c.MaxDegree = def.MaxDegree
	}
	if c.BlockShift == 0 {
		c.BlockShift = def.BlockShift
	}
}
