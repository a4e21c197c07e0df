package workloads

import (
	"semloc/internal/memmodel"
	"semloc/internal/trace"
)

// PBBS workloads (Table 3): suffixArray, BFS, setCover and KNN from the
// Problem Based Benchmark Suite — mixed regular/irregular kernels.

func init() {
	register(&Workload{
		Name:        "suffixArray",
		Suite:       "pbbs",
		Irregular:   true,
		Description: "prefix-doubling suffix array: sequential scans interleaved with rank-array gathers",
		Generate:    genSuffixArray,
	})
	register(&Workload{
		Name:        "pbbs-bfs",
		Suite:       "pbbs",
		Irregular:   true,
		Description: "PBBS BFS over CSR with a frontier array (flatter degree distribution than Graph500)",
		Generate:    genPBBSBFS,
	})
	register(&Workload{
		Name:        "setCover",
		Suite:       "pbbs",
		Irregular:   true,
		Description: "greedy set cover: bucketed sets, element-membership probes over a large universe",
		Generate:    genSetCover,
	})
	register(&Workload{
		Name:        "knn",
		Suite:       "pbbs",
		Irregular:   true,
		Description: "k-nearest-neighbours over a kd-tree: input-dependent descents plus point-array reads",
		Generate:    genKNN,
	})
	register(&Workload{
		Name:        "convexHull",
		Suite:       "pbbs",
		Irregular:   true,
		Description: "quickhull: shrinking data-dependent partition scans — the paper's negative outlier for context prefetching",
		Generate:    genConvexHull,
	})
}

// genSuffixArray models prefix doubling: each round sorts suffix ranks,
// dominated by (a) a sequential scan of the suffix array and (b) gathers
// rank[sa[i]+k] at data-dependent positions.
func genSuffixArray(cfg GenConfig) *trace.Trace {
	const pc = 0x430000
	n := cfg.scaled(60000)
	rng := memmodel.NewRNG(cfg.seed())
	h := memmodel.NewHeap(memmodel.HeapConfig{Seed: cfg.seed()})
	sa := h.AllocArray(n, 8)
	rank := h.AllocArray(n, 8)

	e := trace.NewEmitter("suffixArray")
	perm := rng.Perm(n)
	rounds := 5
	for r := 0; r < rounds; r++ {
		for i := 0; i < n; i++ {
			// Sequential: sa[i].
			sd := e.LoadSpec(&trace.MemSpec{PC: pc, Addr: sa + memmodel.Addr(i*8),
				Value: uint64(perm[i]), Dep: -1,
				Hints: trace.SWHints{Valid: true, TypeID: 1, RefForm: trace.RefIndex}})
			// Gather: rank[sa[i]+k] — data-dependent scatter.
			t := perm[i] + r // mod n: t < n+4 <= 2n, as scaled keeps n >= 4
			if t >= n {
				t -= n
			}
			e.LoadSpec(&trace.MemSpec{PC: pc + 8, Addr: rank + memmodel.Addr(t*8), Dep: sd,
				Hints: trace.SWHints{Valid: true, TypeID: 2, RefForm: trace.RefIndex}})
			e.Compute(3)
			// Write back the new rank sequentially.
			e.StoreSpec(&trace.MemSpec{PC: pc + 16, Addr: rank + memmodel.Addr(i*8), Dep: -1})
			e.Branch(pc+24, i+1 < n)
		}
		if r == 0 {
			e.EndWarmup()
		}
	}
	return e.Finish()
}

// genPBBSBFS is a CSR BFS with a near-uniform degree distribution.
func genPBBSBFS(cfg GenConfig) *trace.Trace {
	const pc = 0x431000
	n := cfg.scaled(14000)
	rng := memmodel.NewRNG(cfg.seed() + 3)
	g := buildGraph(n, 5, rng)
	h := memmodel.NewHeap(memmodel.HeapConfig{Seed: cfg.seed() + 3})
	c := buildCSR(g, h)

	e := trace.NewEmitter("pbbs-bfs")
	sweeps := 4
	for s := 0; s < sweeps; s++ {
		for _, v := range g.orders[0] {
			emitVisitCSR(e, pc, g, c, v)
		}
		if s == 0 {
			e.EndWarmup()
		}
	}
	return e.Finish()
}

// genSetCover models the greedy algorithm: repeatedly pick the bucket with
// most uncovered elements and probe each element's covered flag.
func genSetCover(cfg GenConfig) *trace.Trace {
	const pc = 0x432000
	universe := cfg.scaled(80000)
	sets := cfg.scaled(2000)
	setSize := 24
	rng := memmodel.NewRNG(cfg.seed())
	h := memmodel.NewHeap(memmodel.HeapConfig{Seed: cfg.seed()})
	covered := h.AllocArray(universe, 1)
	elements := h.AllocArray(sets*setSize, 8)

	// Each set's elements are random universe members (fixed per set).
	members := make([][]int, sets)
	for s := range members {
		members[s] = make([]int, setSize)
		for i := range members[s] {
			members[s][i] = rng.Intn(universe)
		}
	}

	e := trace.NewEmitter("setCover")
	warm := sets / 8
	for s := 0; s < sets; s++ {
		// Scan the set's element list (sequential)...
		for i, m := range members[s] {
			ed := e.LoadSpec(&trace.MemSpec{PC: pc, Addr: elements + memmodel.Addr((s*setSize+i)*8),
				Value: uint64(m), Dep: -1,
				Hints: trace.SWHints{Valid: true, TypeID: 1, RefForm: trace.RefIndex}})
			// ...probing each element's covered flag (scatter).
			e.LoadSpec(&trace.MemSpec{PC: pc + 8, Addr: covered + memmodel.Addr(m), Dep: ed,
				Hints: trace.SWHints{Valid: true, TypeID: 2, RefForm: trace.RefIndex}})
			e.Compute(2)
			e.Branch(pc+16, i+1 < setSize)
		}
		// Mark the set's elements covered.
		for _, m := range members[s] {
			e.StoreSpec(&trace.MemSpec{PC: pc + 24, Addr: covered + memmodel.Addr(m), Dep: -1})
		}
		e.Compute(8)
		if s == warm {
			e.EndWarmup()
		}
	}
	return e.Finish()
}

// genConvexHull models quickhull: recursive partition passes over a point
// array whose live subset shrinks and reshuffles data-dependently each
// level. Scans are sequential but short-lived and never recur over the
// same region with the same structure, which is why the paper reports
// convexHull as the one benchmark where the context prefetcher loses to
// the spatial competitors (§7.3: training speed for simple patterns).
func genConvexHull(cfg GenConfig) *trace.Trace {
	const pc = 0x434000
	n := cfg.scaled(120000)
	rng := memmodel.NewRNG(cfg.seed())
	h := memmodel.NewHeap(memmodel.HeapConfig{Seed: cfg.seed()})
	points := h.AllocArray(n, 16)
	idx := h.AllocArray(n, 8)

	e := trace.NewEmitter("convexHull")
	// Level 0 scans everything; each level keeps a pseudo-random ~40%.
	live := make([]int, n)
	for i := range live {
		live[i] = i
	}
	// The first level is warm-up, so at least one level follows it however
	// few points there are.
	for level := 0; level < 2 || len(live) > 64; level++ {
		for k, p := range live {
			// Index load (sequential over the compacted index array)...
			id := e.LoadSpec(&trace.MemSpec{PC: pc, Addr: idx + memmodel.Addr(k*8),
				Value: uint64(p), Dep: -1,
				Hints: trace.SWHints{Valid: true, TypeID: 1, RefForm: trace.RefIndex}})
			// ...then the point itself (gather over the original array).
			e.LoadSpec(&trace.MemSpec{PC: pc + 8, Addr: points + memmodel.Addr(p*16), Dep: id,
				Hints: trace.SWHints{Valid: true, TypeID: 2, RefForm: trace.RefIndex}})
			e.Compute(4) // cross products
			e.Branch(pc+16, rng.Intn(5) != 0)
		}
		// Compact: keep a data-dependent subset and rewrite the index.
		var next []int
		for _, p := range live {
			if rng.Float64() < 0.4 {
				next = append(next, p)
				e.StoreSpec(&trace.MemSpec{PC: pc + 24, Addr: idx + memmodel.Addr(len(next)*8), Dep: -1})
			}
		}
		if len(next) == 0 { // the hull keeps at least one point
			next = live[:1]
		}
		live = next
		e.Compute(16)
		if level == 0 {
			e.EndWarmup()
		}
	}
	return e.Finish()
}

// genKNN descends a kd-tree per query and scans candidate point buckets.
func genKNN(cfg GenConfig) *trace.Trace {
	const pc = 0x433000
	points := cfg.scaled(32768)
	queries := cfg.scaled(8000)
	rng := memmodel.NewRNG(cfg.seed())
	h := memmodel.NewHeap(memmodel.HeapConfig{Seed: cfg.seed()})
	treeNodes := ShuffledLayout(h, rng, points, treeNodeSize, 64)
	pointArr := h.AllocArray(points, 32)

	e := trace.NewEmitter("knn")
	warm := queries / 8
	for q := 0; q < queries; q++ {
		key := rng.Intn(points)
		// kd-tree descent (like BST but with coordinate loads).
		lo, hi := 0, points
		dep := -1
		for lo < hi {
			mid := (lo + hi) / 2
			node := treeNodes[mid]
			kd := e.LoadSpec(&trace.MemSpec{PC: pc, Addr: node + treeKeyOff, Reg: uint64(key), Dep: dep,
				Hints: derefHint(typeTreeNode)})
			e.Compute(2)
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
				next = treeNodes[(lo+hi)/2]
			}
			dep = e.LoadSpec(&trace.MemSpec{PC: pc + 16, Addr: node + off, Value: uint64(next),
				Reg: uint64(key), Dep: kd, Hints: ptrHint(typeTreeNode, uint16(off))})
			e.Branch(pc+24, goLeft)
		}
		// Leaf bucket: scan 8 nearby points (spatially local).
		base := key &^ 7
		for i := 0; i < 8; i++ {
			p := (base + i) % points
			e.LoadSpec(&trace.MemSpec{PC: pc + 32, Addr: pointArr + memmodel.Addr(p*32), Dep: -1,
				Hints: trace.SWHints{Valid: true, TypeID: 3, RefForm: trace.RefIndex}})
			e.Compute(4)
		}
		if q == warm {
			e.EndWarmup()
		}
	}
	return e.Finish()
}
