package exp

import (
	"fmt"
	"io"

	"semloc/internal/memmodel"
	"semloc/internal/stats"
)

// renderFig1 regenerates Figure 1: the memory accesses of a naive linked-list
// insertion sort over 100 randomly-ordered elements, mapped both by real
// memory address (top plot: no visible structure) and by logical list
// index (bottom plot: perfectly linear recurring sweeps).
//
// The output is the two series the figure scatters, plus summary metrics
// that quantify the contrast: the correlation of consecutive accesses in
// each coordinate system.
func renderFig1(_ []JobResult, opts Options, w io.Writer) {
	const n = 100
	rng := memmodel.NewRNG(opts.Seed)
	h := memmodel.NewHeap(memmodel.HeapConfig{Seed: opts.Seed})
	nodes := ShuffleForFig1(h, rng, n)
	keys := rng.Perm(n)

	type access struct {
		addr    memmodel.Addr
		logical int
	}
	var accesses []access

	// Insertion sort: elements arrive in arrival order; each insertion
	// traverses the sorted prefix.
	var sorted []int // node indices in key order
	for i := 0; i < n; i++ {
		key := keys[i]
		pos := 0
		for pos < len(sorted) && keys[sorted[pos]] < key {
			accesses = append(accesses, access{addr: nodes[sorted[pos]], logical: pos})
			pos++
		}
		sorted = append(sorted, 0)
		copy(sorted[pos+1:], sorted[pos:])
		sorted[pos] = i
	}

	// Series sample: print every kth access to keep output plottable.
	tb := stats.NewTable("Figure 1: insertion-sort accesses (physical vs logical)", "access#", "address", "logical index")
	step := len(accesses) / 200
	if step < 1 {
		step = 1
	}
	for i := 0; i < len(accesses); i += step {
		tb.AddRow(i, accesses[i].addr, accesses[i].logical)
	}
	tb.Render(w)

	// Quantify: consecutive-access adjacency in both coordinate systems.
	var logicalAdj, physicalAdj int
	for i := 1; i < len(accesses); i++ {
		if accesses[i].logical == accesses[i-1].logical+1 {
			logicalAdj++
		}
		d := int64(accesses[i].addr) - int64(accesses[i-1].addr)
		if d == 64 || d == -64 {
			physicalAdj++
		}
	}
	total := len(accesses) - 1
	fmt.Fprintf(w, "\nconsecutive-access adjacency: logical %.1f%%, physical %.1f%% (of %d transitions)\n",
		100*float64(logicalAdj)/float64(total), 100*float64(physicalAdj)/float64(total), total)
	fmt.Fprintln(w, "expectation (paper): logical traversal is near-perfectly linear; physical addresses show no spatial structure")
}

// ShuffleForFig1 scatters n nodes of 64 bytes across the heap the way a
// long-running allocator would (fully random placement, as in the paper's
// top plot).
func ShuffleForFig1(h *memmodel.Heap, rng *memmodel.RNG, n int) []memmodel.Addr {
	out := make([]memmodel.Addr, n)
	for i := range out {
		out[i] = h.Alloc(64)
	}
	// Fully shuffle so allocation order carries no spatial meaning.
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}
