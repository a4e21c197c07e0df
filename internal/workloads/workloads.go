// Package workloads generates the instruction/memory traces of the paper's
// benchmark set (Table 3). Real SPEC 2006 / Graph500 / PBBS / HPCS binaries
// cannot run inside this reproduction, so each workload is a behavioural
// generator that reproduces the benchmark's dominant memory-access
// structure — the property prefetchers actually see — and attaches the
// compiler hints the paper's LLVM pass would inject (see DESIGN.md,
// substitution table).
//
// Conventions shared by all generators:
//
//   - Linked structures are laid out with ShuffledLayout (compact
//     footprint, locally shuffled order) or SparseShuffledLayout (nodes
//     additionally interleaved with cold allocations, so per-region
//     footprints are region-specific) — the behaviour of a real allocator
//     after churn. Traversal-adjacent deltas are irregular (defeating
//     stride/delta prefetchers) yet mostly within the ±8 kB range the
//     CST's one-byte deltas can express — exactly the regime the paper's
//     hardware targets.
//   - Pointer loads carry SWHints (type ID, link offset, reference form)
//     and Value (the pointer fetched), and declare Dep on their producer
//     so the timing model serializes them, as real pointer chasing does.
//   - Every trace ends its build/warm-up phase with EndWarmup, so measured
//     statistics cover steady state.
package workloads

import (
	"fmt"
	"sort"

	"semloc/internal/memmodel"
	"semloc/internal/trace"
)

// GenConfig scales a workload generator.
type GenConfig struct {
	// Scale multiplies the workload's footprint and iteration counts.
	// 1 is the standard experiment size; tests use smaller values.
	Scale float64
	// Seed drives all pseudo-random choices.
	Seed uint64
}

// DefaultGenConfig returns the standard experiment scale.
func DefaultGenConfig() GenConfig { return GenConfig{Scale: 1, Seed: 1} }

func (c GenConfig) scaled(base int) int {
	if c.Scale <= 0 {
		return base
	}
	n := int(float64(base) * c.Scale)
	if n < 4 {
		n = 4
	}
	return n
}

func (c GenConfig) seed() uint64 {
	if c.Seed == 0 {
		return 1
	}
	return c.Seed
}

// Workload describes one benchmark.
type Workload struct {
	// Name matches Table 3 ("mcf", "graph500-list", "list", ...).
	Name string
	// Suite is the benchmark's origin ("spec2006", "graph500", "hpcs",
	// "pbbs", "micro").
	Suite string
	// Irregular marks pointer-dominated access behaviour.
	Irregular bool
	// Description summarizes the modelled behaviour.
	Description string
	// Generate builds the trace.
	Generate func(cfg GenConfig) *trace.Trace
}

// registry holds all workloads, populated by the per-suite files.
var registry []*Workload

func register(w *Workload) *Workload {
	registry = append(registry, w)
	return w
}

// All returns every registered workload, sorted by suite then name.
func All() []*Workload {
	out := append([]*Workload(nil), registry...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Suite != out[j].Suite {
			return out[i].Suite < out[j].Suite
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Suite returns the workloads of one suite.
func Suite(name string) []*Workload {
	var out []*Workload
	for _, w := range All() {
		if w.Suite == name {
			out = append(out, w)
		}
	}
	return out
}

// ByName finds a workload.
func ByName(name string) (*Workload, error) {
	for _, w := range registry {
		if w.Name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("workloads: unknown workload %q", name)
}

// Names lists all workload names in registry order (suite-sorted).
func Names() []string {
	all := All()
	out := make([]string, len(all))
	for i, w := range all {
		out[i] = w.Name
	}
	return out
}

// SparseShuffledLayout places n objects of elemSize bytes into a footprint
// where only about `occupancy` of the space holds this structure's nodes;
// the gaps model interleaved allocations of other, colder objects, exactly
// as a real heap mixes structures. Gap positions are random and therefore
// region-specific: the footprint of a 2 kB region is not predictable from
// another region's footprint, which is what distinguishes true semantic
// prefetching from spatial-pattern generalization. Node order is then
// locally shuffled within `window` as in ShuffledLayout.
func SparseShuffledLayout(h *memmodel.Heap, rng *memmodel.RNG, n int, elemSize uint64, window int, occupancy float64) []memmodel.Addr {
	if occupancy <= 0 || occupancy > 1 {
		occupancy = 1
	}
	stride := uint64(memmodel.AlignUp(memmodel.Addr(elemSize), 16))
	span := uint64(float64(uint64(n)*stride) / occupancy)
	base := h.Alloc(span)
	// Walk the footprint, dropping nodes with probability `occupancy` per
	// slot; wrap until all n are placed.
	out := make([]memmodel.Addr, 0, n)
	pos := base
	for len(out) < n {
		if rng.Float64() < occupancy {
			out = append(out, pos)
		}
		pos += memmodel.Addr(stride)
		if pos+memmodel.Addr(stride) > base+memmodel.Addr(span) {
			pos = base + memmodel.Addr(uint64(rng.Intn(16))*stride)
		}
	}
	if window < 2 {
		window = 2
	}
	perm, shuffled := make([]int, min(window, n)), make([]memmodel.Addr, min(window, n))
	for start := 0; start < n; start += window {
		end := min(start+window, n)
		p, s := perm[:end-start], shuffled[:end-start]
		rng.PermInto(p)
		for i, k := range p {
			s[i] = out[start+k]
		}
		copy(out[start:end], s)
	}
	return out
}

// ShuffledLayout places n objects of elemSize bytes into a compact
// contiguous footprint, permuted within windows of `window` elements. It
// models a churned allocator: logical neighbours are physically scattered
// (no spatial locality within a window) but remain within
// window*stride bytes of each other, matching the locality real allocators
// give consecutively allocated nodes.
func ShuffledLayout(h *memmodel.Heap, rng *memmodel.RNG, n int, elemSize uint64, window int) []memmodel.Addr {
	stride := memmodel.AlignUp(memmodel.Addr(elemSize), 16)
	base := h.AllocArray(n, uint64(stride))
	out := make([]memmodel.Addr, n)
	if window < 2 {
		window = 2
	}
	perm := make([]int, min(window, n))
	for start := 0; start < n; start += window {
		p := perm[:min(start+window, n)-start]
		rng.PermInto(p)
		for i, k := range p {
			out[start+i] = base + memmodel.Addr(start+k)*stride
		}
	}
	return out
}

// Object type IDs used by the generators' compiler hints; each generator
// keeps its own small enumeration, mirroring the per-program enumeration
// of the paper's LLVM pass.
const (
	typeListNode uint16 = 1 + iota
	typeTreeNode
	typeHashNode
	typeGraphVertex
	typeGraphEdge
	typeHeapNode
	typeArcNode
	typeEventNode
)

// ptrHint builds the hint triple for a pointer-typed link load.
func ptrHint(typeID uint16, linkOff uint16) trace.SWHints {
	return trace.SWHints{Valid: true, TypeID: typeID, LinkOffset: linkOff, RefForm: trace.RefArrow}
}

// derefHint builds the hint triple for a plain pointer dereference.
func derefHint(typeID uint16) trace.SWHints {
	return trace.SWHints{Valid: true, TypeID: typeID, RefForm: trace.RefDeref}
}
