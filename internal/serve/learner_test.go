package serve

import (
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"semloc/internal/trace"
	"semloc/internal/workloads"
)

// naiveAccessFrames derives the access frames directly: its own global
// branch history accumulated in record order, one growing slice, one
// Hints allocation per hinted access. AccessFrames must match it.
func naiveAccessFrames(tr *trace.Trace) []Frame {
	var out []Frame
	var hist uint16
	seq := uint64(0)
	c := tr.Cursor()
	for c.Next() {
		r := c.Record()
		switch r.Kind {
		case trace.KindBranch:
			hist <<= 1
			if r.Taken {
				hist |= 1
			}
		case trace.KindLoad, trace.KindStore:
			seq++
			f := Frame{
				Type:       FrameAccess,
				Seq:        seq,
				PC:         r.PC,
				Addr:       uint64(r.Addr),
				Value:      r.Value,
				Reg:        r.Reg,
				BranchHist: hist,
				Store:      r.Kind == trace.KindStore,
			}
			if r.Hints.Valid {
				f.Hints = &Hints{
					Valid:      true,
					TypeID:     r.Hints.TypeID,
					LinkOffset: r.Hints.LinkOffset,
					RefForm:    uint8(r.Hints.RefForm),
				}
			}
			out = append(out, f)
		}
	}
	return out
}

// TestAccessFramesMatchesNaive pins AccessFrames to the naive derivation
// on hinted and unhinted streams, and bounds it at two allocations per
// stream: the frames and their hints.
func TestAccessFramesMatchesNaive(t *testing.T) {
	// A collection the frames' size sets off makes runtime allocations of
	// its own; with the collector paused, the bound counts AccessFrames'.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, name := range []string{"list", "mcf", "array", "suffixArray"} {
		runtime.GC()
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		tr := w.Generate(workloads.GenConfig{Scale: 0.02, Seed: 1})
		got, want := AccessFrames(tr), naiveAccessFrames(tr)
		if len(got) == 0 || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: AccessFrames (%d frames) differs from the naive derivation (%d frames)", name, len(got), len(want))
		}
		if n := testing.AllocsPerRun(5, func() { AccessFrames(tr) }); n > 2 {
			t.Errorf("%s: AccessFrames made %v allocations, want at most 2", name, n)
		}
	}
}
