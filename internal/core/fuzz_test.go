package core

import (
	"encoding/json"
	"testing"
)

// maxFuzzEntries caps every size a fuzzed state may ask New to allocate:
// the CST, reducer, history and queue, and the reward window, whose upper
// edge sizes the reward table. Config.Validate bounds them too, but only
// the history, queue and reward window as tightly (2^16); it allows a CST
// of 2^20 and a reducer of 2^23 entries, tens of MiB that would slow every
// execution, so that bound is the harness's alone. The paper's largest
// table is the 16K-entry reducer, so 2^16 leaves room above every real
// configuration; a state past the cap is skipped, not restored.
const maxFuzzEntries = 1 << 16

// FuzzLearnerState feeds arbitrary JSON to the learner restore path, the
// one a daemon takes when it warm-starts a session from a snapshot file.
// Every state that Validate accepts must restore through NewFromState and
// then answer a fixed access stream without panicking. The seeds are a
// real SaveState taken after a few hundred accesses and that state with
// every history entry live and keyed past the CST, which Validate once let
// through to a panic in cst.ensure at the first sampled access.
func FuzzLearnerState(f *testing.F) {
	p := MustNew(DefaultConfig())
	driveState(p, 0, 300, newTestIssuer())
	st := p.SaveState()
	f.Add(mustMarshal(f, st))
	for i := range st.History.Entries {
		st.History.Entries[i].KeyIdx, st.History.Entries[i].Live = 1<<20, true
	}
	f.Add(mustMarshal(f, st))

	f.Fuzz(func(t *testing.T, data []byte) {
		var st LearnerState
		if err := json.Unmarshal(data, &st); err != nil {
			return
		}
		c := &st.Config
		if c.CSTEntries > maxFuzzEntries || c.ReducerEntries > maxFuzzEntries ||
			c.HistoryDepth > maxFuzzEntries || c.QueueDepth > maxFuzzEntries ||
			c.Reward.High > maxFuzzEntries {
			return
		}
		if st.Validate() != nil {
			return
		}
		p, err := NewFromState(&st)
		if err != nil {
			t.Fatalf("Validate accepted a state that NewFromState refused: %v", err)
		}
		driveState(p, 0, 600, newTestIssuer())
	})
}
