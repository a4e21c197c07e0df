package workloads

import (
	"semloc/internal/memmodel"
	"semloc/internal/trace"
)

// µbenchmarks (Table 3): data-structure traversals with irregular
// footprints — linked list, array scan, binary search tree, hash table,
// red-black map — plus the algorithm kernels listsort, Prim and SSCA_LDS.

// listNode layout: next pointer at offset 0, payload at offset 8, 32 B
// footprint (as a small C struct with padding).
const (
	listNodeSize = 32
	listNextOff  = 0
	listPayOff   = 8
)

func init() {
	register(&Workload{
		Name:        "list",
		Suite:       "micro",
		Irregular:   true,
		Description: "linked-list traversal in allocation order with allocator jitter; dependent loads serialize misses",
		Generate:    genList,
	})
	register(&Workload{
		Name:        "array",
		Suite:       "micro",
		Irregular:   false,
		Description: "sequential array scan (the spatially optimal layout of the same traversal)",
		Generate:    genArray,
	})
	register(&Workload{
		Name:        "listsort",
		Suite:       "micro",
		Irregular:   true,
		Description: "insertion sort over a linked list (Figure 1): recurring semantically-linear traversals over a spatially random layout",
		Generate:    genListSort,
	})
	register(&Workload{
		Name:        "bst",
		Suite:       "micro",
		Irregular:   true,
		Description: "random-key lookups in a binary search tree: input-dependent branching, hard to predict",
		Generate:    genBST,
	})
	register(&Workload{
		Name:        "hashtest",
		Suite:       "micro",
		Irregular:   true,
		Description: "STL-unordered-map-style probes: bucket array index plus short chain walks",
		Generate:    genHashTest,
	})
	register(&Workload{
		Name:        "maptest",
		Suite:       "micro",
		Irregular:   true,
		Description: "STL-map-style red-black-tree lookups over a skewed key distribution",
		Generate:    genMapTest,
	})
	register(&Workload{
		Name:        "prim",
		Suite:       "micro",
		Irregular:   true,
		Description: "Prim's minimum spanning tree: binary-heap extract-min plus adjacency-list edge scans",
		Generate:    genPrim,
	})
	register(&Workload{
		Name:        "ssca_lds",
		Suite:       "micro",
		Irregular:   true,
		Description: "SSCA2 kernel over a linked data structure: repeated subgraph walks over pointer-linked vertices",
		Generate:    genSSCALds,
	})
}

// emitChase emits one linked-node step: the link load (hinted, dependent on
// the previous link load) and a payload load, followed by loop control.
// Returns the index of the link load for the next step's dependency.
func emitChase(e *trace.Emitter, pcBase uint64, node, next memmodel.Addr, dep int, typeID uint16) int {
	li := e.LoadSpec(&trace.MemSpec{
		PC: pcBase, Addr: node + listNextOff, Value: uint64(next),
		Dep: dep, Hints: ptrHint(typeID, listNextOff),
	})
	e.LoadSpec(&trace.MemSpec{PC: pcBase + 8, Addr: node + listPayOff, Dep: dep})
	e.Compute(2)
	e.Branch(pcBase+16, true)
	return li
}

// genList builds a linked list whose nodes sit in allocation order with
// local allocator jitter (shuffle window 16) and traverses it repeatedly.
// The footprint exceeds the L2, so steady state misses to memory.
func genList(cfg GenConfig) *trace.Trace {
	const pc = 0x401000
	n := cfg.scaled(50000)
	rng := memmodel.NewRNG(cfg.seed())
	h := memmodel.NewHeap(memmodel.HeapConfig{Seed: cfg.seed()})
	nodes := SparseShuffledLayout(h, rng, n, listNodeSize, 16, 0.3)

	e := trace.NewEmitter("list")
	passes := 4
	for pass := 0; pass < passes; pass++ {
		// The list is circular and each pass resumes from a rotated
		// position (a worker cycling through a ring buffer of jobs), so
		// pass-to-pass region entry points never line up.
		i := (pass * 7901) % n
		dep := -1
		for range n {
			j := i + 1
			if j == n {
				j = 0
			}
			dep = emitChase(e, pc, nodes[i], nodes[j], dep, typeListNode)
			i = j
		}
		if pass == 0 {
			e.EndWarmup()
		}
	}
	return e.Finish()
}

// genArray scans a contiguous array of the same footprint as genList —
// the hand-optimized spatial variant of the same semantic traversal.
func genArray(cfg GenConfig) *trace.Trace {
	const pc = 0x402000
	n := cfg.scaled(50000)
	h := memmodel.NewHeap(memmodel.HeapConfig{Seed: cfg.seed()})
	base := h.AllocArray(n, listNodeSize)

	e := trace.NewEmitter("array")
	passes := 4
	for pass := 0; pass < passes; pass++ {
		for i := 0; i < n; i++ {
			addr := base + memmodel.Addr(i*listNodeSize)
			e.LoadSpec(&trace.MemSpec{
				PC: pc, Addr: addr, Dep: -1,
				Hints: trace.SWHints{Valid: true, TypeID: typeListNode, RefForm: trace.RefIndex},
			})
			e.LoadSpec(&trace.MemSpec{PC: pc + 8, Addr: addr + listPayOff, Dep: -1})
			e.Compute(2)
			e.Branch(pc+16, true)
		}
		if pass == 0 {
			e.EndWarmup()
		}
	}
	return e.Finish()
}

// genListSort reproduces Figure 1: elements arrive in random order and are
// inserted into a sorted linked list, so every insertion traverses the
// sorted prefix — a perfectly recurring semantic order over a spatially
// random layout.
func genListSort(cfg GenConfig) *trace.Trace {
	const pc = 0x403000
	n := cfg.scaled(2000)
	rng := memmodel.NewRNG(cfg.seed())
	h := memmodel.NewHeap(memmodel.HeapConfig{Seed: cfg.seed()})
	// Nodes are allocated in arrival order; the sorted traversal order is
	// random with respect to memory (Figure 1's top plot) and the live
	// set grows past the L1. The footprint stays small enough that a
	// useful fraction of sorted-adjacent distances is reachable by the
	// CST's one-byte deltas — the regime the paper's 100-element demo
	// lives in.
	nodes := ShuffledLayout(h, rng, n, 64, 64)
	keys := rng.Perm(n)

	e := trace.NewEmitter("listsort")
	// sorted holds node indices in key order; insertion walks it.
	var sorted []int
	warmupAt := n / 4
	for i := 0; i < n; i++ {
		key := keys[i]
		dep := -1
		pos := 0
		for pos < len(sorted) && keys[sorted[pos]] < key {
			cur := nodes[sorted[pos]]
			var next memmodel.Addr
			if pos+1 < len(sorted) {
				next = nodes[sorted[pos+1]]
			}
			dep = e.LoadSpec(&trace.MemSpec{
				PC: pc, Addr: cur + listNextOff, Value: uint64(next),
				Reg: uint64(key), Dep: dep, Hints: ptrHint(typeListNode, listNextOff),
			})
			e.LoadSpec(&trace.MemSpec{PC: pc + 8, Addr: cur + listPayOff, Dep: dep})
			e.Compute(2)
			e.Branch(pc+16, true)
			pos++
		}
		e.Branch(pc+16, false) // loop exit
		// Splice in the new node: write its next pointer and patch the
		// predecessor.
		e.StoreSpec(&trace.MemSpec{PC: pc + 24, Addr: nodes[i] + listNextOff, Dep: dep,
			Hints: ptrHint(typeListNode, listNextOff)})
		if pos > 0 {
			e.StoreSpec(&trace.MemSpec{PC: pc + 32, Addr: nodes[sorted[pos-1]] + listNextOff, Dep: dep,
				Hints: ptrHint(typeListNode, listNextOff)})
		}
		e.Compute(4)
		sorted = append(sorted, 0)
		copy(sorted[pos+1:], sorted[pos:])
		sorted[pos] = i
		if i == warmupAt {
			e.EndWarmup()
		}
	}
	return e.Finish()
}

// treeNode layout: left at 0, right at 8, key at 16; 48 B footprint.
const (
	treeNodeSize = 48
	treeLeftOff  = 0
	treeRightOff = 8
	treeKeyOff   = 16
)

// genBST performs random-key lookups in a balanced binary search tree.
// Lookup paths diverge with the key, which the paper identifies as the
// hardest case (high branching, input-dependent).
func genBST(cfg GenConfig) *trace.Trace {
	const pc = 0x404000
	n := cfg.scaled(32768)
	lookups := cfg.scaled(12000)
	rng := memmodel.NewRNG(cfg.seed())
	h := memmodel.NewHeap(memmodel.HeapConfig{Seed: cfg.seed()})
	nodes := ShuffledLayout(h, rng, n, treeNodeSize, 64)

	// Balanced tree over sorted keys: the node for range [lo,hi) is its
	// midpoint rank, so a lookup is a root-to-leaf binary-search descent.
	e := trace.NewEmitter("bst")
	lookup := func(key int) {
		lo, hi := 0, n
		dep := -1
		reg := uint64(key)
		for lo < hi {
			mid := (lo + hi) / 2
			node := nodes[mid]
			// Load the key, then the taken child pointer.
			kd := e.LoadSpec(&trace.MemSpec{PC: pc, Addr: node + treeKeyOff, Reg: reg, Dep: dep,
				Hints: derefHint(typeTreeNode)})
			e.Compute(1)
			goLeft := key < mid
			var off memmodel.Addr
			if goLeft {
				off = treeLeftOff
				hi = mid
			} else {
				off = treeRightOff
				lo = mid + 1
			}
			var next memmodel.Addr
			if lo < hi {
				next = nodes[(lo+hi)/2]
			}
			dep = e.LoadSpec(&trace.MemSpec{PC: pc + 16, Addr: node + off, Value: uint64(next),
				Reg: reg, Dep: kd, Hints: ptrHint(typeTreeNode, uint16(off))})
			e.Branch(pc+24, goLeft)
		}
		e.Compute(3)
	}
	warm := lookups / 8
	for i := 0; i < lookups; i++ {
		lookup(rng.Intn(2 * n))
		if i == warm {
			e.EndWarmup()
		}
	}
	return e.Finish()
}

// genHashTest models unordered_map probes: hash to a bucket array slot
// (indexed load), then walk a short collision chain.
func genHashTest(cfg GenConfig) *trace.Trace {
	const pc = 0x405000
	buckets := cfg.scaled(16384)
	items := buckets * 2
	probes := cfg.scaled(40000)
	rng := memmodel.NewRNG(cfg.seed())
	h := memmodel.NewHeap(memmodel.HeapConfig{Seed: cfg.seed()})
	bucketArr := h.AllocArray(buckets, 8)
	nodes := SparseShuffledLayout(h, rng, items, listNodeSize, 256, 0.45)

	// Chains: item i lives in bucket i%buckets; chain order deterministic.
	e := trace.NewEmitter("hashtest")
	warm := probes / 8
	for p := 0; p < probes; p++ {
		key := rng.Intn(items)
		b := key % buckets
		// Bucket head load (array indexed).
		dep := e.LoadSpec(&trace.MemSpec{
			PC: pc, Addr: bucketArr + memmodel.Addr(b*8), Reg: uint64(key),
			Value: uint64(nodes[b]), Dep: -1,
			Hints: trace.SWHints{Valid: true, TypeID: typeHashNode, RefForm: trace.RefIndex},
		})
		e.Compute(2)
		// Chain walk: up to 2 hops (items = 2x buckets).
		for hop := 0; hop <= key/buckets; hop++ {
			node := nodes[(b+hop*buckets)%items]
			next := nodes[(b+(hop+1)*buckets)%items]
			dep = e.LoadSpec(&trace.MemSpec{
				PC: pc + 16, Addr: node + listNextOff, Value: uint64(next),
				Reg: uint64(key), Dep: dep, Hints: ptrHint(typeHashNode, listNextOff),
			})
			e.Branch(pc+24, hop < key/buckets)
		}
		e.Compute(3)
		if p == warm {
			e.EndWarmup()
		}
	}
	return e.Finish()
}

// genMapTest models std::map (red-black tree) lookups with a skewed
// (80/20) key distribution: the hot subtree stays cached and learnable,
// the cold tail is unpredictable.
func genMapTest(cfg GenConfig) *trace.Trace {
	const pc = 0x406000
	n := cfg.scaled(24576)
	lookups := cfg.scaled(12000)
	rng := memmodel.NewRNG(cfg.seed())
	h := memmodel.NewHeap(memmodel.HeapConfig{Seed: cfg.seed()})
	nodes := ShuffledLayout(h, rng, n, treeNodeSize, 64)

	e := trace.NewEmitter("maptest")
	hot := max(n/5, 1)
	warm := lookups / 8
	for p := 0; p < lookups; p++ {
		var key int
		if rng.Float64() < 0.8 {
			key = rng.Intn(hot)
		} else {
			key = hot + rng.Intn(n-hot)
		}
		lo, hi := 0, n
		dep := -1
		for lo < hi {
			mid := (lo + hi) / 2
			node := nodes[mid]
			kd := e.LoadSpec(&trace.MemSpec{PC: pc, Addr: node + treeKeyOff, Reg: uint64(key), Dep: dep,
				Hints: derefHint(typeTreeNode)})
			e.Compute(2) // key compare + colour checks
			goLeft := key < mid
			var off memmodel.Addr
			if goLeft {
				off = treeLeftOff
				hi = mid
			} else {
				off = treeRightOff
				lo = mid + 1
			}
			var next memmodel.Addr
			if lo < hi {
				next = nodes[(lo+hi)/2]
			}
			dep = e.LoadSpec(&trace.MemSpec{PC: pc + 16, Addr: node + off, Value: uint64(next),
				Reg: uint64(key), Dep: kd, Hints: ptrHint(typeTreeNode, uint16(off))})
			e.Branch(pc+24, goLeft)
		}
		e.Compute(3)
		if p == warm {
			e.EndWarmup()
		}
	}
	return e.Finish()
}

// genPrim runs Prim's MST: a binary heap of frontier vertices (array,
// indexed accesses) and adjacency-list scans of pointer-linked edges.
func genPrim(cfg GenConfig) *trace.Trace {
	const pc = 0x407000
	vertices := cfg.scaled(12000)
	avgDegree := 8
	rng := memmodel.NewRNG(cfg.seed())
	h := memmodel.NewHeap(memmodel.HeapConfig{Seed: cfg.seed()})

	// Edge nodes, grouped per vertex in allocation order.
	edges := make([][]memmodel.Addr, vertices)
	edgeTargets := make([][]int, vertices)
	edgeNodes := SparseShuffledLayout(h, rng, vertices*avgDegree, listNodeSize, 32, 0.45)
	k := 0
	for v := 0; v < vertices; v++ {
		deg := 4 + rng.Intn(2*avgDegree-8+1)
		for d := 0; d < deg && k < len(edgeNodes); d++ {
			edges[v] = append(edges[v], edgeNodes[k])
			edgeTargets[v] = append(edgeTargets[v], rng.Intn(vertices))
			k++
		}
	}
	heapArr := h.AllocArray(vertices, 16)
	keyArr := h.AllocArray(vertices, 8)

	e := trace.NewEmitter("prim")
	inTree := make([]bool, vertices)
	// Visit order approximates heap extraction: pseudo-random permutation.
	order := rng.Perm(vertices)
	warm := vertices / 8
	for i, v := range order {
		// Heap pop: root + sift-down path (log n indexed loads).
		path := 1
		for j := i + 1; j > 1; j /= 2 {
			path++
		}
		dep := -1
		for lvl := 0; lvl < path && lvl < 16; lvl++ {
			slot := (1<<lvl - 1) % vertices
			dep = e.LoadSpec(&trace.MemSpec{PC: pc, Addr: heapArr + memmodel.Addr(slot*16), Dep: dep,
				Hints: trace.SWHints{Valid: true, TypeID: typeHeapNode, RefForm: trace.RefIndex}})
			e.Compute(2)
			e.Branch(pc+8, lvl < path-1)
		}
		inTree[v] = true
		// Scan v's adjacency list (pointer chase).
		dep = -1
		for d, en := range edges[v] {
			var next memmodel.Addr
			if d+1 < len(edges[v]) {
				next = edges[v][d+1]
			}
			dep = e.LoadSpec(&trace.MemSpec{PC: pc + 32, Addr: en + listNextOff, Value: uint64(next),
				Dep: dep, Hints: ptrHint(typeGraphEdge, listNextOff)})
			// Relaxation: read the target's key (random array access).
			t := edgeTargets[v][d]
			e.LoadSpec(&trace.MemSpec{PC: pc + 40, Addr: keyArr + memmodel.Addr(t*8), Dep: dep,
				Hints: trace.SWHints{Valid: true, TypeID: typeHeapNode, RefForm: trace.RefIndex}})
			e.Compute(3)
			if !inTree[t] {
				e.StoreSpec(&trace.MemSpec{PC: pc + 48, Addr: heapArr + memmodel.Addr(t*16), Dep: -1})
			}
			e.Branch(pc+56, d+1 < len(edges[v]))
		}
		if i == warm {
			e.EndWarmup()
		}
	}
	return e.Finish()
}

// genSSCALds models the HPCS SSCA2 benchmark's linked-data-structure
// variant: repeated walks over a pointer-linked subgraph (the hot
// community) interleaved with cold excursions.
func genSSCALds(cfg GenConfig) *trace.Trace {
	const pc = 0x408000
	hotN := cfg.scaled(6000)
	coldN := cfg.scaled(40000)
	walks := cfg.scaled(60)
	rng := memmodel.NewRNG(cfg.seed())
	h := memmodel.NewHeap(memmodel.HeapConfig{Seed: cfg.seed()})
	hot := SparseShuffledLayout(h, rng, hotN, listNodeSize, 64, 0.45)
	cold := SparseShuffledLayout(h, rng, coldN, listNodeSize, 256, 0.45)

	// The hot walk is a fixed cycle whose order correlates with allocation
	// order but is locally shuffled (community traversal follows graph
	// construction order with local irregularity) — recurring across
	// kernel phases, and with node-to-node distances the CST's one-byte
	// deltas can reach.
	cycle := make([]int, hotN)
	for start := 0; start < hotN; start += 32 {
		end := start + 32
		if end > hotN {
			end = hotN
		}
		perm := rng.Perm(end - start)
		for i := range perm {
			cycle[start+i] = start + perm[i]
		}
	}
	e := trace.NewEmitter("ssca_lds")
	warm := walks / 8
	for w := 0; w < walks; w++ {
		// Each kernel phase enters the community at a different vertex
		// (per-source BFS), rotating the walk's starting point.
		start := (w * 2741) % hotN
		dep := -1
		for k := 0; k < hotN; k++ {
			i := (start + k) % hotN
			cur := hot[cycle[i]]
			next := hot[cycle[(i+1)%hotN]]
			dep = emitChase(e, pc, cur, next, dep, typeGraphVertex)
		}
		// Cold excursion: a short random walk over the large region.
		dep = -1
		for i := 0; i < 64; i++ {
			cur := cold[rng.Intn(coldN)]
			dep = e.LoadSpec(&trace.MemSpec{PC: pc + 64, Addr: cur, Dep: dep,
				Hints: ptrHint(typeGraphVertex, 0)})
			e.Compute(2)
		}
		if w == warm {
			e.EndWarmup()
		}
	}
	return e.Finish()
}
