package core

import (
	"errors"
	"testing"
)

// Non-power-of-two table sizes must be rejected at validation: newCST and
// newReducer derive their index width as floor(log2(entries)), so a
// non-power-of-two size would leave the top entries unreachable and alias
// distinct contexts onto the same rows — silently, with no panic. The only
// guard is Config.Validate; these regression tests pin it down.
func TestConfigRejectsNonPowerOfTwoTables(t *testing.T) {
	for _, n := range []int{3, 6, 1000, 1<<20 - 1, -4} {
		cfg := DefaultConfig()
		cfg.CSTEntries = n
		if _, err := New(cfg); !errors.Is(err, ErrBadConfig) {
			t.Errorf("CSTEntries=%d: got %v, want ErrBadConfig", n, err)
		}

		cfg = DefaultConfig()
		cfg.ReducerEntries = n
		if _, err := New(cfg); !errors.Is(err, ErrBadConfig) {
			t.Errorf("ReducerEntries=%d: got %v, want ErrBadConfig", n, err)
		}
	}
}

// Power-of-two sizes across the Figure 13 sweep range must stay accepted.
func TestConfigAcceptsPowerOfTwoTables(t *testing.T) {
	for shift := 4; shift <= 16; shift++ {
		cfg := DefaultConfig()
		cfg.CSTEntries = 1 << shift
		cfg.ReducerEntries = 1 << (shift + 3)
		if _, err := New(cfg); err != nil {
			t.Errorf("CSTEntries=%d/ReducerEntries=%d rejected: %v", cfg.CSTEntries, cfg.ReducerEntries, err)
		}
	}
	// Every size at its ceiling validates (New would allocate ~64 MiB).
	cfg := DefaultConfig()
	cfg.CSTEntries, cfg.ReducerEntries = maxCSTEntries, maxReducerEntries
	cfg.HistoryDepth, cfg.QueueDepth, cfg.Reward.High = maxQueueDepth, maxQueueDepth, maxRewardHigh
	if err := cfg.Validate(); err != nil {
		t.Errorf("a config at every ceiling rejected: %v", err)
	}
}

// MustNew panics on a bad configuration with a value the harness can
// classify via errors.Is(…, ErrBadConfig).
func TestMustNewPanicClassifiable(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("MustNew accepted a non-power-of-two CST size")
		}
		err, ok := r.(error)
		if !ok || !errors.Is(err, ErrBadConfig) {
			t.Fatalf("panic value %v is not an ErrBadConfig error", r)
		}
	}()
	cfg := DefaultConfig()
	cfg.CSTEntries = 1000
	MustNew(cfg)
}
