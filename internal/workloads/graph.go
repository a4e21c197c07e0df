package workloads

import (
	"semloc/internal/memmodel"
	"semloc/internal/trace"
)

// Graph workloads (Table 3): the Graph500 breadth-first-search kernel and
// the HPCS SSCA2 betweenness-centrality kernel, each in two layouts —
// compressed sparse row (the spatially optimized form virtually all
// high-performance graph codes use, §2.2) and a naive pointer-linked form.
// Figure 14 compares prefetchers across exactly these four variants.

func init() {
	register(&Workload{
		Name:        "graph500",
		Suite:       "graph500",
		Irregular:   true,
		Description: "Graph500 BFS over CSR (array) representation: offset/index array scans plus scattered visited-map probes",
		Generate:    func(cfg GenConfig) *trace.Trace { return genBFS(cfg, "graph500", true) },
	})
	register(&Workload{
		Name:        "graph500-list",
		Suite:       "graph500",
		Irregular:   true,
		Description: "Graph500 BFS over a naive pointer-linked graph: dependent vertex/edge chains",
		Generate:    func(cfg GenConfig) *trace.Trace { return genBFS(cfg, "graph500-list", false) },
	})
	register(&Workload{
		Name:        "ssca2-csr",
		Suite:       "hpcs",
		Irregular:   true,
		Description: "SSCA2 betweenness centrality over CSR: repeated BFS sweeps plus per-vertex score accumulation",
		Generate:    func(cfg GenConfig) *trace.Trace { return genSSCA2(cfg, "ssca2-csr", true) },
	})
	register(&Workload{
		Name:        "ssca2-list",
		Suite:       "hpcs",
		Irregular:   true,
		Description: "SSCA2 betweenness centrality over a pointer-linked graph",
		Generate:    func(cfg GenConfig) *trace.Trace { return genSSCA2(cfg, "ssca2-list", false) },
	})
}

// synthGraph is a small-world graph: vertex v's neighbours cluster near v
// (community structure) with occasional long-range edges, the structure
// both Graph500 RMAT generators and SSCA2 cliques approximate.
type synthGraph struct {
	n      int
	adj    [][]int
	orders [][]int // BFS visit orders from several roots (precomputed)
}

func buildGraph(n, avgDeg int, rng *memmodel.RNG) *synthGraph {
	g := &synthGraph{n: n, adj: make([][]int, n)}
	for v := 0; v < n; v++ {
		deg := 2 + rng.Intn(2*avgDeg-3)
		g.adj[v] = make([]int, 0, deg) // one allocation, not one per doubling
		for d := 0; d < deg; d++ {
			var t int
			if rng.Float64() < 0.8 {
				// Community edge: nearby vertex, wrapping around a graph
				// of any size.
				t = (v + rng.Intn(201) - 100) % n
				if t < 0 {
					t += n
				}
			} else {
				t = rng.Intn(n)
			}
			if t != v {
				g.adj[v] = append(g.adj[v], t)
			}
		}
	}
	// Precompute BFS orders from several roots: Graph500 runs each search
	// from a different key, so sweep-to-sweep traversal orders differ —
	// exactly what defeats stream/footprint recurrence while leaving the
	// graph's structural (semantic) relations intact.
	for _, root := range []int{0, n / 4, n / 2, 3 * n / 4} {
		g.orders = append(g.orders, g.bfsOrder(root))
	}
	return g
}

// bfsOrder computes the breadth-first visit order from root.
func (g *synthGraph) bfsOrder(root int) []int {
	visited := make([]bool, g.n)
	visited[root] = true
	// order is also the queue: a vertex is visited in the order it was
	// queued, and order[head:] are the vertices queued but not yet visited.
	order := append(make([]int, 0, g.n), root)
	for head := 0; head < len(order); head++ {
		for _, t := range g.adj[order[head]] {
			if !visited[t] {
				visited[t] = true
				order = append(order, t)
			}
		}
	}
	for v := 0; v < g.n; v++ { // disconnected remainder
		if !visited[v] {
			order = append(order, v)
		}
	}
	return order
}

// csrLayout holds the spatially optimized representation.
type csrLayout struct {
	rowPtr  memmodel.Addr // n+1 x 8 B
	colIdx  memmodel.Addr // m x 8 B
	visited memmodel.Addr // n x 8 B
	offsets []int         // per-vertex start into colIdx
}

func buildCSR(g *synthGraph, h *memmodel.Heap) *csrLayout {
	m := 0
	offsets := make([]int, g.n+1)
	for v := 0; v < g.n; v++ {
		offsets[v] = m
		m += len(g.adj[v])
	}
	offsets[g.n] = m
	return &csrLayout{
		rowPtr:  h.AllocArray(g.n+1, 8),
		colIdx:  h.AllocArray(m, 8),
		visited: h.AllocArray(g.n, 8),
		offsets: offsets,
	}
}

// listLayout holds the naive pointer-linked representation: vertex records
// plus per-vertex edge-node chains, all allocated in construction order
// with allocator jitter.
type listLayout struct {
	vertex  []memmodel.Addr
	edges   [][]memmodel.Addr
	visited memmodel.Addr
}

func buildListGraph(g *synthGraph, h *memmodel.Heap, rng *memmodel.RNG) *listLayout {
	// Vertices and their edge nodes are allocated interleaved, in
	// construction order (vertex v, then v's edges) with local allocator
	// jitter — the layout a naive builder produces. A vertex's edge chain
	// therefore sits within reach of the vertex record.
	total := g.n
	for v := 0; v < g.n; v++ {
		total += len(g.adj[v])
	}
	nodes := SparseShuffledLayout(h, rng, total, listNodeSize, 16, 0.45)
	l := &listLayout{
		vertex:  make([]memmodel.Addr, g.n),
		edges:   make([][]memmodel.Addr, g.n),
		visited: h.AllocArray(g.n, 8),
	}
	k := 0
	for v := 0; v < g.n; v++ {
		l.vertex[v] = nodes[k]
		k++
		l.edges[v] = nodes[k : k+len(g.adj[v])]
		k += len(g.adj[v])
	}
	return l
}

// emitVisitCSR emits one BFS vertex visit over CSR.
func emitVisitCSR(e *trace.Emitter, pc uint64, g *synthGraph, c *csrLayout, v int) {
	// Row pointer loads (v, v+1): sequential-ish array accesses.
	rp := e.LoadSpec(&trace.MemSpec{PC: pc, Addr: c.rowPtr + memmodel.Addr(v*8), Dep: -1,
		Hints: trace.SWHints{Valid: true, TypeID: typeGraphVertex, RefForm: trace.RefIndex}})
	e.LoadSpec(&trace.MemSpec{PC: pc + 4, Addr: c.rowPtr + memmodel.Addr((v+1)*8), Dep: -1})
	e.Compute(2)
	start := c.offsets[v]
	for i, t := range g.adj[v] {
		// Column index load: sequential within the row.
		ci := e.LoadSpec(&trace.MemSpec{PC: pc + 8, Addr: c.colIdx + memmodel.Addr((start+i)*8),
			Value: uint64(t), Dep: rp,
			Hints: trace.SWHints{Valid: true, TypeID: typeGraphEdge, RefForm: trace.RefIndex}})
		// Visited probe: data-dependent scatter — the irregular heart of BFS.
		e.LoadSpec(&trace.MemSpec{PC: pc + 12, Addr: c.visited + memmodel.Addr(t*8), Dep: ci,
			Hints: trace.SWHints{Valid: true, TypeID: typeGraphVertex, RefForm: trace.RefIndex}})
		e.Compute(2)
		e.Branch(pc+16, i+1 < len(g.adj[v]))
	}
	e.StoreSpec(&trace.MemSpec{PC: pc + 20, Addr: c.visited + memmodel.Addr(v*8), Dep: -1})
}

// emitVisitList emits one BFS vertex visit over the linked layout.
func emitVisitList(e *trace.Emitter, pc uint64, g *synthGraph, l *listLayout, v int, dep int) int {
	// The emitter calls could write through l or g, as far as the compiler
	// knows, so the slices are loaded once here rather than on every edge.
	adj, edges, visited := g.adj[v], l.edges[v], l.visited
	// Vertex record load (reached through the queue/frontier pointer).
	var firstEdge memmodel.Addr
	if len(edges) > 0 {
		firstEdge = edges[0]
	}
	vd := e.LoadSpec(&trace.MemSpec{PC: pc, Addr: l.vertex[v], Value: uint64(firstEdge), Dep: dep,
		Hints: ptrHint(typeGraphVertex, 8)})
	e.Compute(2)
	ed := vd
	for i, t := range adj {
		var next memmodel.Addr
		if i+1 < len(edges) {
			next = edges[i+1]
		}
		// Edge node: pointer chase along the adjacency chain.
		ed = e.LoadSpec(&trace.MemSpec{PC: pc + 8, Addr: edges[i], Value: uint64(next), Dep: ed,
			Hints: ptrHint(typeGraphEdge, listNextOff)})
		// Visited probe for the target.
		e.LoadSpec(&trace.MemSpec{PC: pc + 12, Addr: visited + memmodel.Addr(t*8), Dep: ed,
			Hints: trace.SWHints{Valid: true, TypeID: typeGraphVertex, RefForm: trace.RefIndex}})
		e.Compute(2)
		e.Branch(pc+16, i+1 < len(adj))
	}
	e.StoreSpec(&trace.MemSpec{PC: pc + 20, Addr: visited + memmodel.Addr(v*8), Dep: -1})
	return vd
}

// genBFS emits repeated BFS sweeps (Graph500 runs 64 search keys; we run a
// few over the same structure, which is what makes the traversal order
// recur and gives context prefetching something to learn).
func genBFS(cfg GenConfig, name string, csr bool) *trace.Trace {
	const pc = 0x410000
	n := cfg.scaled(16000)
	rng := memmodel.NewRNG(cfg.seed())
	g := buildGraph(n, 8, rng)
	h := memmodel.NewHeap(memmodel.HeapConfig{Seed: cfg.seed()})

	e := trace.NewEmitter(name)
	sweeps := 4
	if csr {
		c := buildCSR(g, h)
		for s := 0; s < sweeps; s++ {
			for _, v := range g.orders[s%len(g.orders)] {
				emitVisitCSR(e, pc, g, c, v)
			}
			if s == 0 {
				e.EndWarmup()
			}
		}
	} else {
		l := buildListGraph(g, h, rng)
		for s := 0; s < sweeps; s++ {
			dep := -1
			for _, v := range g.orders[s%len(g.orders)] {
				dep = emitVisitList(e, pc, g, l, v, dep)
			}
			if s == 0 {
				e.EndWarmup()
			}
		}
	}
	return e.Finish()
}

// genSSCA2 models the betweenness-centrality kernel: BFS sweeps from
// several roots plus a per-vertex accumulation pass over the score array.
func genSSCA2(cfg GenConfig, name string, csr bool) *trace.Trace {
	const pc = 0x420000
	n := cfg.scaled(12000)
	rng := memmodel.NewRNG(cfg.seed() + 7)
	g := buildGraph(n, 6, rng)
	h := memmodel.NewHeap(memmodel.HeapConfig{Seed: cfg.seed() + 7})
	scores := h.AllocArray(n, 8)

	e := trace.NewEmitter(name)
	emitAccum := func() {
		// Back-propagation pass: sequential score array update.
		for i := 0; i < n; i++ {
			d := e.LoadSpec(&trace.MemSpec{PC: pc + 0x100, Addr: scores + memmodel.Addr(i*8), Dep: -1,
				Hints: trace.SWHints{Valid: true, TypeID: typeGraphVertex, RefForm: trace.RefIndex}})
			e.Compute(3)
			e.StoreSpec(&trace.MemSpec{PC: pc + 0x108, Addr: scores + memmodel.Addr(i*8), Dep: d})
		}
	}
	sweeps := 4
	if csr {
		c := buildCSR(g, h)
		for s := 0; s < sweeps; s++ {
			for _, v := range g.orders[s%len(g.orders)] {
				emitVisitCSR(e, pc, g, c, v)
			}
			emitAccum()
			if s == 0 {
				e.EndWarmup()
			}
		}
	} else {
		l := buildListGraph(g, h, rng)
		for s := 0; s < sweeps; s++ {
			dep := -1
			for _, v := range g.orders[s%len(g.orders)] {
				dep = emitVisitList(e, pc, g, l, v, dep)
			}
			emitAccum()
			if s == 0 {
				e.EndWarmup()
			}
		}
	}
	return e.Finish()
}
