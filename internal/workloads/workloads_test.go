package workloads

import (
	"testing"

	"semloc/internal/memmodel"
	"semloc/internal/trace"
)

// tiny returns a fast test-size config.
func tiny() GenConfig { return GenConfig{Scale: 0.02, Seed: 1} }

func TestRegistryComplete(t *testing.T) {
	// Table 3 inventory.
	wantSuites := map[string][]string{
		"spec2006": {"sjeng", "povray", "soplex", "dealII", "h264ref", "gobmk",
			"hmmer", "bzip2", "milc", "namd", "omnetpp", "astar",
			"libquantum", "mcf", "sphinx3", "lbm"},
		"pbbs":     {"suffixArray", "pbbs-bfs", "setCover", "knn", "convexHull"},
		"graph500": {"graph500", "graph500-list"},
		"hpcs":     {"ssca2-csr", "ssca2-list"},
		"micro":    {"list", "array", "listsort", "bst", "hashtest", "maptest", "prim", "ssca_lds"},
	}
	total := 0
	for suite, names := range wantSuites {
		got := Suite(suite)
		if len(got) != len(names) {
			t.Errorf("suite %s has %d workloads, want %d", suite, len(got), len(names))
		}
		for _, n := range names {
			if _, err := ByName(n); err != nil {
				t.Errorf("missing workload %q: %v", n, err)
			}
			total++
		}
	}
	if len(All()) != total {
		t.Errorf("All() = %d workloads, want %d", len(All()), total)
	}
	if len(Names()) != total {
		t.Errorf("Names() = %d", len(Names()))
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("nope"); err == nil {
		t.Error("expected error for unknown workload")
	}
}

func TestAllWorkloadsGenerateValidTraces(t *testing.T) {
	for _, w := range All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			tr := w.Generate(tiny())
			if tr.Name != w.Name {
				t.Errorf("trace name %q != workload name %q", tr.Name, w.Name)
			}
			if err := tr.Validate(); err != nil {
				t.Fatalf("invalid trace: %v", err)
			}
			s := tr.ComputeStats()
			if s.Loads == 0 {
				t.Error("no loads emitted")
			}
			if s.WarmupIndex < 0 {
				t.Error("no warm-up marker")
			}
			if s.WarmupIndex == s.Records-1 {
				t.Error("warm-up marker at end: no measured region")
			}
			if s.Instructions == 0 {
				t.Error("no instructions")
			}
			if w.Irregular && s.Dependent == 0 {
				t.Errorf("irregular workload has no dependent loads")
			}
			if s.Hinted == 0 {
				t.Errorf("no compiler hints attached")
			}
		})
	}
}

func TestWorkloadDeterminism(t *testing.T) {
	for _, name := range []string{"list", "mcf", "graph500-list", "suffixArray"} {
		w, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		a := w.Generate(tiny())
		b := w.Generate(tiny())
		if a.Len() != b.Len() {
			t.Fatalf("%s: nondeterministic record count %d vs %d", name, a.Len(), b.Len())
		}
		ca, cb := a.Cursor(), b.Cursor()
		for ca.Next() && cb.Next() {
			if *ca.Record() != *cb.Record() {
				t.Fatalf("%s: record %d differs", name, ca.Index())
			}
		}
	}
}

func TestScaleGrowsTrace(t *testing.T) {
	w, err := ByName("list")
	if err != nil {
		t.Fatal(err)
	}
	small := w.Generate(GenConfig{Scale: 0.02, Seed: 1})
	large := w.Generate(GenConfig{Scale: 0.08, Seed: 1})
	if large.Len() <= small.Len() {
		t.Errorf("scale 0.08 (%d records) should exceed scale 0.02 (%d)", large.Len(), small.Len())
	}
}

func TestShuffledLayoutProperties(t *testing.T) {
	h := memmodel.NewHeap(memmodel.HeapConfig{Seed: 5})
	rng := memmodel.NewRNG(5)
	const n, elem, window = 1000, 32, 16
	addrs := ShuffledLayout(h, rng, n, elem, window)
	seen := make(map[memmodel.Addr]bool)
	var lo, hi memmodel.Addr
	lo = addrs[0]
	for _, a := range addrs {
		if seen[a] {
			t.Fatalf("duplicate address %v", a)
		}
		seen[a] = true
		if a < lo {
			lo = a
		}
		if a > hi {
			hi = a
		}
	}
	// Compact footprint: n*32 bytes exactly.
	if int(hi-lo) > n*elem {
		t.Errorf("footprint %d exceeds %d", hi-lo, n*elem)
	}
	// Locally shuffled: traversal-adjacent deltas bounded by the window...
	maxDelta := 0
	adjacent := 0
	for i := 1; i < n; i++ {
		d := int(int64(addrs[i]) - int64(addrs[i-1]))
		if d < 0 {
			d = -d
		}
		if d > maxDelta {
			maxDelta = d
		}
		if d == elem {
			adjacent++
		}
	}
	if maxDelta > 2*window*elem {
		t.Errorf("max adjacent delta %d exceeds 2*window*elem %d", maxDelta, 2*window*elem)
	}
	// ...but not simply sequential.
	if adjacent > n/2 {
		t.Errorf("layout too sequential: %d/%d adjacent", adjacent, n)
	}
}

func TestListTraversalIsDependencyChained(t *testing.T) {
	w, _ := ByName("list")
	tr := w.Generate(tiny())
	// Every link load (PC 0x401000) after the first must depend on the
	// previous link load.
	var prev int32 = trace.NoDep
	count := 0
	c := tr.Cursor()
	for c.Next() {
		i, r := c.Index(), c.Record()
		if r.Kind == trace.KindLoad && r.PC == 0x401000 {
			if count > 0 && r.Dep != prev {
				// Passes restart the chain; allow Dep == NoDep there.
				if r.Dep != trace.NoDep {
					t.Fatalf("record %d: link load dep %d, want %d", i, r.Dep, prev)
				}
			}
			prev = int32(i)
			count++
		}
	}
	if count == 0 {
		t.Fatal("no link loads found")
	}
}

func TestListsortRecurringLogicalOrder(t *testing.T) {
	// Figure 1's property: the same node sequence recurs across
	// insertions. The first two loads of insertion k+1's traversal revisit
	// the node that insertion k's traversal started with (the sorted
	// head), provided both traversals are non-empty.
	w, _ := ByName("listsort")
	tr := w.Generate(GenConfig{Scale: 0.2, Seed: 3})
	// Gather the first traversal load after each loop exit (branch not
	// taken at pc+16).
	const pcLoad = 0x403000
	var firstLoads []uint64
	expectFirst := true
	c := tr.Cursor()
	for c.Next() {
		r := c.Record()
		if r.Kind == trace.KindBranch && r.PC == 0x403010 && !r.Taken {
			expectFirst = true
		}
		if r.Kind == trace.KindLoad && r.PC == pcLoad && expectFirst {
			firstLoads = append(firstLoads, uint64(r.Addr))
			expectFirst = false
		}
	}
	if len(firstLoads) < 10 {
		t.Fatalf("too few traversals: %d", len(firstLoads))
	}
	// All non-empty traversals start at the current sorted head; the head
	// changes only when a new minimum is inserted, so the number of
	// distinct heads is far below the number of traversals.
	distinct := make(map[uint64]bool)
	for _, a := range firstLoads {
		distinct[a] = true
	}
	if len(distinct) > len(firstLoads)/2 {
		t.Errorf("traversal heads not recurring: %d distinct of %d", len(distinct), len(firstLoads))
	}
}

func TestGraphLayoutsShareStructure(t *testing.T) {
	// The CSR and list variants must traverse the same logical graph:
	// equal sweep counts, comparable edge visit counts.
	csr, _ := ByName("graph500")
	lst, _ := ByName("graph500-list")
	trC := csr.Generate(tiny())
	trL := lst.Generate(tiny())
	sC := trC.ComputeStats()
	sL := trL.ComputeStats()
	if sC.Loads == 0 || sL.Loads == 0 {
		t.Fatal("empty graph traces")
	}
	ratio := float64(sL.Loads) / float64(sC.Loads)
	if ratio < 0.5 || ratio > 2.0 {
		t.Errorf("load counts diverge: csr=%d list=%d", sC.Loads, sL.Loads)
	}
	// The list variant must be dependency-chained, CSR mostly not.
	fracL := float64(sL.Dependent) / float64(sL.Loads)
	fracC := float64(sC.Dependent) / float64(sC.Loads)
	if fracL <= fracC {
		t.Errorf("list dep fraction %.2f should exceed csr %.2f", fracL, fracC)
	}
}

func TestRegularWorkloadsMostlyIndependent(t *testing.T) {
	for _, name := range []string{"libquantum", "lbm", "milc", "hmmer", "array"} {
		w, _ := ByName(name)
		tr := w.Generate(tiny())
		s := tr.ComputeStats()
		frac := float64(s.Dependent) / float64(s.Loads+1)
		if frac > 0.3 {
			t.Errorf("%s: dependent-load fraction %.2f too high for a regular workload", name, frac)
		}
	}
}

func TestGenConfigScaledFloor(t *testing.T) {
	c := GenConfig{Scale: 0.000001}
	if got := c.scaled(100); got != 4 {
		t.Errorf("scaled floor = %d, want 4", got)
	}
	c = GenConfig{}
	if got := c.scaled(100); got != 100 {
		t.Errorf("zero scale should keep base, got %d", got)
	}
	if (GenConfig{}).seed() != 1 {
		t.Error("zero seed should map to 1")
	}
}
