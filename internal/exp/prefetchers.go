// Package exp defines the experiment harness: prefetcher construction,
// per-figure experiment runners, and the output formatting that mirrors
// the paper's tables and figures.
package exp

import (
	"fmt"

	"semloc/internal/core"
	"semloc/internal/prefetch"
	"semloc/internal/trace"
)

// PrefetcherNames lists the evaluated prefetchers in the paper's plotting
// order: the no-prefetch baseline, the spatio-temporal competitors, and
// the context prefetcher. NewCellPrefetcher also accepts the §8 policy
// variants "context-softmax" and "context-ucb", and the limit study's
// "oracle".
var PrefetcherNames = []string{"none", "stride", "ghb-gdc", "ghb-pcdc", "sms", "markov", "context"}

// FigurePrefetchers is the subset shown in the paper's figures (the stride
// prefetcher is evaluated but omitted from plots, §7; markov is this
// repo's extra temporal baseline).
var FigurePrefetchers = []string{"none", "ghb-gdc", "ghb-pcdc", "sms", "context"}

// NewCellPrefetcher builds the prefetcher for one cell, the one rule
// behind every figure, sweep point, ablation and prefetchsim row:
//
//   - "oracle" is built from the trace;
//   - a context variant runs learnerConfig(job) and explores with the seed
//     DeriveSeed(base, job.Workload, job.Prefetcher, 0), so every sweep
//     point of one workload and variant shares its learner seed;
//   - every other name goes to NewPrefetcher.
//
// job.Config configures only the context variants; the other names ignore
// it, so one prefetchsim -config file serves a mixed -prefetchers list.
func NewCellPrefetcher(tr *trace.Trace, job Job, base uint64) (prefetch.Prefetcher, error) {
	if cfg, ok := learnerConfig(job); ok {
		cfg.Seed = DeriveSeed(base, job.Workload, job.Prefetcher, 0)
		return core.New(cfg)
	}
	if job.Prefetcher == "oracle" {
		return prefetch.NewOracle(tr, 0), nil
	}
	return NewPrefetcher(job.Prefetcher)
}

// learnerConfig is the configuration a context variant runs, with Seed
// zeroed for NewCellPrefetcher to derive and Job.key to leave out:
// job.Config, or core.DefaultConfig() when that is nil, with the policy the
// name carries ("context" keeps the config's). ok is false for the names
// without a learner.
func learnerConfig(job Job) (cfg core.Config, ok bool) {
	cfg = core.DefaultConfig()
	if job.Config != nil {
		cfg = *job.Config
	}
	switch job.Prefetcher {
	case "context":
	case "context-softmax":
		cfg.Policy = core.PolicySoftmax
	case "context-ucb":
		cfg.Policy = core.PolicyUCB
	default:
		return core.Config{}, false
	}
	cfg.Seed = 0
	// -0 is the configuration of 0: stored as 0, the two key as one run.
	if cfg.Epsilon == 0 {
		cfg.Epsilon = 0
	}
	return cfg, true
}

// NewPrefetcher builds one of the non-learning prefetchers by name with its
// default (Table 2 scaled) configuration; the context prefetchers and the
// oracle come from NewCellPrefetcher. Prefetchers are stateful: every
// simulation run needs a new instance.
func NewPrefetcher(name string) (prefetch.Prefetcher, error) {
	switch name {
	case "none":
		return prefetch.NewNone(), nil
	case "stride":
		return prefetch.NewStride(prefetch.StrideConfig{}), nil
	case "ghb-gdc":
		return prefetch.NewGHB(prefetch.GHBConfig{Localization: prefetch.LocalizeGlobal}), nil
	case "ghb-pcdc":
		return prefetch.NewGHB(prefetch.GHBConfig{Localization: prefetch.LocalizePC}), nil
	case "sms":
		return prefetch.NewSMS(prefetch.SMSConfig{}), nil
	case "markov":
		return prefetch.NewMarkov(prefetch.MarkovConfig{}), nil
	default:
		return nil, fmt.Errorf("exp: unknown prefetcher %q", name)
	}
}
