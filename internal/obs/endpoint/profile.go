package endpoint

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// StartProfiles enables cmd/experiments' pprof hooks: a CPU profile
// written for the whole invocation and a heap profile captured at stop
// time. Either path may be empty. The returned stop function must be
// called exactly once (defer it); it finishes both profiles
// unconditionally — the CPU profile is always stopped and its file closed
// even when the heap path turns out to be unwritable — and reports every
// failure, joined with errors.Join so a bad heap path cannot mask a
// CPU-profile write error (or vice versa).
//
// Together with the telemetry series these close the observability loop:
// the overhead guard and perfbench detect a hot-path regression, the
// profiles say where it lives.
func StartProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("obs: cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("obs: cpu profile: %w", err)
		}
	}
	return func() error {
		var errs []error
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				errs = append(errs, fmt.Errorf("obs: cpu profile: %w", err))
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				errs = append(errs, fmt.Errorf("obs: mem profile: %w", err))
			} else {
				runtime.GC() // settle live objects before the heap snapshot
				if err := pprof.WriteHeapProfile(f); err != nil {
					errs = append(errs, fmt.Errorf("obs: mem profile: %w", err))
				}
				if err := f.Close(); err != nil {
					errs = append(errs, fmt.Errorf("obs: mem profile: %w", err))
				}
			}
		}
		return errors.Join(errs...)
	}, nil
}
