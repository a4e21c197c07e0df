package core

import (
	"testing"

	"semloc/internal/obs"
)

func trainedPrefetcher(t *testing.T) *Prefetcher {
	t.Helper()
	p := MustNew(DefaultConfig())
	iss := newTestIssuer()
	blocks := []int64{100, 130, 90, 160, 75, 140, 110, 95}
	for i := 0; i < 200*len(blocks); i++ {
		p.OnAccess(chaseAccess(blocks, i), iss)
	}
	return p
}

func TestInspectTrainedState(t *testing.T) {
	p := trainedPrefetcher(t)
	st := p.LearnerHealth(8)
	if st.CSTEntries == 0 || st.CSTLinks == 0 {
		t.Fatalf("no learned state: %+v", st)
	}
	if st.PositiveLinks == 0 {
		t.Error("expected positive-score links after training on a recurring chase")
	}
	if st.CSTLinks < st.PositiveLinks {
		t.Error("positive links cannot exceed total links")
	}
	if len(st.TopDeltas) == 0 {
		t.Error("expected top deltas")
	}
	if len(st.TopDeltas) > 8 {
		t.Errorf("TopDeltas capped at 8, got %d", len(st.TopDeltas))
	}
	for i := 1; i < len(st.TopDeltas); i++ {
		if st.TopDeltas[i].Count > st.TopDeltas[i-1].Count {
			t.Error("TopDeltas not sorted by count")
		}
	}
}

func TestInspectEmpty(t *testing.T) {
	p := MustNew(DefaultConfig())
	st := p.LearnerHealth(8)
	if st.CSTEntries != 0 || st.CSTLinks != 0 || st.MeanScore != 0 || st.TopDeltas != nil {
		t.Errorf("fresh prefetcher should have empty stats: %+v", st)
	}
}

// link is the test-side view of one CST slot; production state lives in
// the flattened arenas (cst.go), so edge-case shapes are planted through
// this helper struct.
type link struct {
	delta int8
	score int8
	used  bool
}

// plant installs a valid CST entry at idx with the given links, bypassing
// the learning path so edge-case table shapes are exact.
func plant(p *Prefetcher, idx int, links ...link) {
	e := &p.table.entries[idx]
	e.valid = true
	e.tag = uint8(idx)
	e.used = 0
	for li, l := range links {
		e.deltas[li] = l.delta
		e.scores[li] = l.score
		if l.used {
			e.used |= 1 << uint(li)
		}
	}
	e.rebuildOrder()
}

func TestInspectSaturatedLinks(t *testing.T) {
	p := MustNew(DefaultConfig())
	plant(p, 0,
		link{delta: 1, score: 127, used: true},
		link{delta: 2, score: 127, used: true},
		link{delta: 3, score: 50, used: true},
		link{delta: 4, score: -10, used: true})
	plant(p, 1, link{delta: 1, score: 127, used: true})
	st := p.LearnerHealth(8)
	if st.CSTEntries != 2 || st.CSTLinks != 5 {
		t.Fatalf("entries/links = %d/%d, want 2/5", st.CSTEntries, st.CSTLinks)
	}
	if st.SaturatedLinks != 3 {
		t.Errorf("SaturatedLinks = %d, want 3", st.SaturatedLinks)
	}
	// Saturated links are positive links too; the ceiling is not a
	// separate category.
	if st.PositiveLinks != 4 {
		t.Errorf("PositiveLinks = %d, want 4", st.PositiveLinks)
	}
	want := float64(127+127+50-10+127) / 5
	if st.MeanScore != want {
		t.Errorf("MeanScore = %v, want %v", st.MeanScore, want)
	}
}

// TestInspectValidEntryWithNoUsedLinks pins the CSTEntries definition: a
// valid entry whose links are all unused holds no candidates and must not
// count as populated.
func TestInspectValidEntryWithNoUsedLinks(t *testing.T) {
	p := MustNew(DefaultConfig())
	plant(p, 0, link{delta: 7, used: false})
	st := p.LearnerHealth(8)
	if st.CSTEntries != 0 || st.CSTLinks != 0 {
		t.Errorf("candidate-free entry counted: %+v", st)
	}
}

func TestTopDeltasTieBreaking(t *testing.T) {
	p := MustNew(DefaultConfig())
	// delta +5 twice, deltas -3 and +9 once each: the tie between -3 and
	// +9 must break toward the smaller delta, deterministically.
	plant(p, 0,
		link{delta: 5, score: 1, used: true},
		link{delta: 9, score: 1, used: true})
	plant(p, 1,
		link{delta: 5, score: 1, used: true},
		link{delta: -3, score: 1, used: true})
	st := p.LearnerHealth(8)
	want := []obs.DeltaCount{{Delta: 5, Count: 2}, {Delta: -3, Count: 1}, {Delta: 9, Count: 1}}
	if len(st.TopDeltas) != len(want) {
		t.Fatalf("TopDeltas = %+v, want %+v", st.TopDeltas, want)
	}
	for i := range want {
		if st.TopDeltas[i] != want[i] {
			t.Fatalf("TopDeltas[%d] = %+v, want %+v", i, st.TopDeltas[i], want[i])
		}
	}
}

// TestTopDeltasTieStability hammers the tie-break with a table where every
// delta has the same count: only a total ranking keeps repeated snapshots
// identical.
func TestTopDeltasTieStability(t *testing.T) {
	p := MustNew(DefaultConfig())
	deltas := []int8{44, -7, 19, 3, -120, 88, -1, 25, 6, -60, 101, -33}
	for i, d := range deltas {
		plant(p, i, link{delta: d, score: 1, used: true})
	}
	first := p.LearnerHealth(8).TopDeltas
	for run := 0; run < 20; run++ {
		got := p.LearnerHealth(8).TopDeltas
		for i := range first {
			if got[i] != first[i] {
				t.Fatalf("run %d: TopDeltas[%d] = %+v, want %+v (unstable tie-break)",
					run, i, got[i], first[i])
			}
		}
	}
	for i := 1; i < len(first); i++ {
		if first[i-1].Count == first[i].Count && first[i-1].Delta >= first[i].Delta {
			t.Fatalf("tie at count %d not broken by ascending delta: %+v before %+v",
				first[i].Count, first[i-1], first[i])
		}
	}
}

func TestTopDeltasCapAtEight(t *testing.T) {
	p := MustNew(DefaultConfig())
	// Twelve distinct deltas, all tied at count 1: exactly eight survive,
	// and by the tie rule they are the eight smallest.
	for i := 0; i < 12; i++ {
		plant(p, i, link{delta: int8(i + 1), score: 1, used: true})
	}
	st := p.LearnerHealth(8)
	if len(st.TopDeltas) != 8 {
		t.Fatalf("TopDeltas length %d, want 8", len(st.TopDeltas))
	}
	for i, d := range st.TopDeltas {
		if d.Delta != int8(i+1) || d.Count != 1 {
			t.Fatalf("TopDeltas[%d] = %+v, want {%d 1}", i, d, i+1)
		}
	}
}
