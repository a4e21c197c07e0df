package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"semloc/internal/cache"
	"semloc/internal/memmodel"
	"semloc/internal/prefetch"
)

// recordingIssuer collects issued prefetch addresses in order, so two
// prefetchers can be compared decision-for-decision.
type recordingIssuer struct {
	prefetches []memmodel.Addr
	shadows    []memmodel.Addr
	free       int
}

func (r *recordingIssuer) Prefetch(addr memmodel.Addr, now cache.Cycle) bool {
	r.prefetches = append(r.prefetches, addr)
	return true
}

func (r *recordingIssuer) Shadow(addr memmodel.Addr) { r.shadows = append(r.shadows, addr) }

func (r *recordingIssuer) FreePrefetchSlots(now cache.Cycle) int { return r.free }

// driveState runs a deterministic synthetic access stream through p:
// a pointer-chased ring (learnable), interleaved with a strided scan and
// occasional noise, exercising the reducer, CST, history and queue.
func driveState(p *Prefetcher, start, n int, iss prefetch.Issuer) {
	rng := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng
	}
	// Burn the generator up to `start` so a split drive (0..k, then k..n)
	// feeds both halves the same stream a straight 0..n drive would.
	for i := 0; i < start; i++ {
		next()
		next()
	}
	for i := start; i < n; i++ {
		var a prefetch.Access
		switch i % 3 {
		case 0: // pointer chase over a 64-node ring
			node := uint64(i/3) % 64
			a = prefetch.Access{
				PC:    0x4000,
				Addr:  memmodel.Addr(0x100000 + node*192),
				Value: 0x100000 + ((node+1)%64)*192,
			}
			a.Hints.Valid = true
			a.Hints.TypeID = 7
			a.Hints.LinkOffset = 8
		case 1: // strided scan
			a = prefetch.Access{PC: 0x5000, Addr: memmodel.Addr(0x800000 + uint64(i)*64)}
		default: // noise
			a = prefetch.Access{PC: 0x6000 + next()%4, Addr: memmodel.Addr(next() % (1 << 30))}
		}
		a.Index = uint64(i)
		a.BranchHist = uint16(next())
		p.OnAccess(&a, iss)
	}
}

func mustMarshal(t testing.TB, st *LearnerState) []byte {
	t.Helper()
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatalf("marshaling learner state: %v", err)
	}
	return b
}

// TestStateRoundTripByteIdentical is the codec property test: saving a
// trained learner, marshaling, unmarshaling, restoring and saving again
// must produce byte-identical JSON — no float drift, no ordering drift.
func TestStateRoundTripByteIdentical(t *testing.T) {
	p := MustNew(DefaultConfig())
	iss := newTestIssuer()
	driveState(p, 0, 6000, iss)

	st := p.SaveState()
	b1 := mustMarshal(t, st)

	var decoded LearnerState
	if err := json.Unmarshal(b1, &decoded); err != nil {
		t.Fatalf("unmarshaling: %v", err)
	}
	restored, err := NewFromState(&decoded)
	if err != nil {
		t.Fatalf("restoring: %v", err)
	}
	b2 := mustMarshal(t, restored.SaveState())
	if !bytes.Equal(b1, b2) {
		t.Fatalf("state round trip drifted:\nfirst  (%d bytes)\nsecond (%d bytes)\nfirst:  %.300s\nsecond: %.300s",
			len(b1), len(b2), b1, b2)
	}
}

// TestStateRestoreBehaviourIdentical pins the warm-start contract: a
// restored learner must make exactly the decisions the original would have
// made on the remainder of the stream, and end in the same state.
func TestStateRestoreBehaviourIdentical(t *testing.T) {
	const split, total = 4000, 9000

	// Reference: one uninterrupted learner.
	ref := MustNew(DefaultConfig())
	refIss := newTestIssuer()
	driveState(ref, 0, split, refIss)
	refTail := &recordingIssuer{free: 4}
	driveState(ref, split, total, refTail)

	// Snapshotted: train to the split, save, restore, continue.
	orig := MustNew(DefaultConfig())
	driveState(orig, 0, split, newTestIssuer())
	b := mustMarshal(t, orig.SaveState())
	var st LearnerState
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatal(err)
	}
	restored, err := NewFromState(&st)
	if err != nil {
		t.Fatal(err)
	}
	resTail := &recordingIssuer{free: 4}
	driveState(restored, split, total, resTail)

	if len(refTail.prefetches) == 0 {
		t.Fatal("reference issued no prefetches on the tail; the stream is not exercising the learner")
	}
	if len(refTail.prefetches) != len(resTail.prefetches) {
		t.Fatalf("restored learner issued %d prefetches on the tail, reference %d",
			len(resTail.prefetches), len(refTail.prefetches))
	}
	for i := range refTail.prefetches {
		if refTail.prefetches[i] != resTail.prefetches[i] {
			t.Fatalf("tail prefetch %d: restored %#x, reference %#x",
				i, resTail.prefetches[i], refTail.prefetches[i])
		}
	}
	if len(refTail.shadows) != len(resTail.shadows) {
		t.Fatalf("restored learner issued %d shadows on the tail, reference %d",
			len(resTail.shadows), len(refTail.shadows))
	}

	refFinal := mustMarshal(t, ref.SaveState())
	resFinal := mustMarshal(t, restored.SaveState())
	if !bytes.Equal(refFinal, resFinal) {
		t.Fatal("final state after restored tail differs from the uninterrupted reference")
	}
}

// TestStateSnapshotIsolated: mutating the learner after SaveState must not
// change the captured state (the daemon snapshots then keeps serving).
func TestStateSnapshotIsolated(t *testing.T) {
	p := MustNew(DefaultConfig())
	driveState(p, 0, 3000, newTestIssuer())
	st := p.SaveState()
	b1 := mustMarshal(t, st)
	driveState(p, 3000, 6000, newTestIssuer())
	b2 := mustMarshal(t, st)
	if !bytes.Equal(b1, b2) {
		t.Fatal("continuing to train the learner mutated a previously captured state")
	}
}

func TestStateValidateRejectsCorrupt(t *testing.T) {
	fresh := func() *LearnerState {
		p := MustNew(DefaultConfig())
		driveState(p, 0, 2000, newTestIssuer())
		return p.SaveState()
	}
	cases := []struct {
		name   string
		mutate func(*LearnerState)
	}{
		{"schema", func(st *LearnerState) { st.Schema = 99 }},
		{"config", func(st *LearnerState) { st.Config.CSTEntries = 3 }},
		{"cst index order", func(st *LearnerState) {
			if len(st.CST) < 2 {
				panic("need 2 CST entries")
			}
			st.CST[0].Idx, st.CST[1].Idx = st.CST[1].Idx, st.CST[0].Idx
		}},
		{"cst index range", func(st *LearnerState) { st.CST[len(st.CST)-1].Idx = st.Config.CSTEntries }},
		{"link arity", func(st *LearnerState) { st.CST[0].Links = st.CST[0].Links[:1] }},
		{"history depth", func(st *LearnerState) { st.History.Entries = st.History.Entries[:3] }},
		// A live history entry past the CST panicked in cst.ensure at the
		// first sampled access after restore.
		{"history key range", func(st *LearnerState) {
			for i := range st.History.Entries {
				st.History.Entries[i].KeyIdx, st.History.Entries[i].Live = 1<<20, true
			}
		}},
		{"history key negative", func(st *LearnerState) { st.History.Entries[0].KeyIdx = -1 }},
		{"queue head", func(st *LearnerState) { st.Queue.Head = st.Config.QueueDepth }},
		{"queue key range", func(st *LearnerState) { st.Queue.Entries[0].KeyIdx = -1 }},
		{"histogram", func(st *LearnerState) { st.Metrics.HitDepths = nil }},
		// Each size New allocates by, just past its ceiling in a state
		// otherwise consistent; the tables take the next power of two.
		{"cst ceiling", func(st *LearnerState) { st.Config.CSTEntries = 2 * maxCSTEntries }},
		{"reducer ceiling", func(st *LearnerState) { st.Config.ReducerEntries = 2 * maxReducerEntries }},
		{"history ceiling", func(st *LearnerState) {
			st.Config.HistoryDepth = maxQueueDepth + 1
			st.History.Entries = append(st.History.Entries, make([]HistoryEntryState, maxQueueDepth+1-len(st.History.Entries))...)
		}},
		{"queue ceiling", func(st *LearnerState) {
			st.Config.QueueDepth = maxQueueDepth + 1
			st.Queue.Entries = append(st.Queue.Entries, make([]PFEntryState, maxQueueDepth+1-len(st.Queue.Entries))...)
		}},
		{"reward ceiling", func(st *LearnerState) { st.Config.Reward.High = maxRewardHigh + 1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := fresh()
			tc.mutate(st)
			if _, err := NewFromState(st); err == nil {
				t.Fatalf("NewFromState accepted corrupt state (%s)", tc.name)
			}
		})
	}
	if _, err := NewFromState(nil); err == nil {
		t.Fatal("NewFromState accepted nil state")
	}
}
