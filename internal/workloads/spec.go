package workloads

import (
	"semloc/internal/memmodel"
	"semloc/internal/trace"
)

// SPEC CPU2006 proxies (Table 3). The paper runs the 16 benchmarks that
// clang could build; each proxy below reproduces the published dominant
// memory behaviour of its benchmark — the mixture of streaming, strided,
// gathered and pointer-chasing traffic plus its compute/branch density —
// not its computation. Regular benchmarks (libquantum, lbm, milc, hmmer)
// must favour every prefetcher; pointer-heavy ones (mcf, omnetpp) must
// favour only context prefetching; compute-bound ones (povray, gobmk,
// sjeng, namd) must be largely insensitive. See DESIGN.md.

func init() {
	for _, s := range []struct {
		name string
		irr  bool
		desc string
		gen  func(GenConfig) *trace.Trace
	}{
		{"mcf", true, "network simplex: arc/node pointer chases over a large in-memory network", genMCF},
		{"omnetpp", true, "discrete event simulation: event-heap pops and linked message-queue walks", genOmnetpp},
		{"astar", true, "grid pathfinding: open-list heap plus neighbour probes with partial spatial locality", genAstar},
		{"libquantum", false, "quantum register simulation: long unit-stride sweeps over the amplitude array", genLibquantum},
		{"lbm", false, "lattice-Boltzmann: multi-stream stencil sweeps with large fixed strides", genLBM},
		{"milc", false, "lattice QCD: strided sweeps over 4D field arrays", genMILC},
		{"hmmer", false, "profile HMM Viterbi: row-streaming dynamic-programming recurrences", genHmmer},
		{"bzip2", false, "block compression: in-block scattered reads plus sequential output", genBzip2},
		{"h264ref", false, "video encoding: 2D motion-search block accesses (dense spatial regions)", genH264},
		{"sphinx3", true, "speech recognition: streamed gaussian scoring plus irregular HMM lattice updates", genSphinx3},
		{"soplex", true, "simplex LP: sparse column scans with data-dependent row gathers", genSoplex},
		{"dealII", false, "finite elements: CSR matrix-vector products with clustered gathers", genDealII},
		{"namd", false, "molecular dynamics: neighbour-list gathers over spatially clustered atoms", genNamd},
		{"gobmk", false, "go engine: compute/branch-bound board evaluation over small arrays", genGobmk},
		{"sjeng", false, "chess engine: independent transposition-table probes over a huge hash table", genSjeng},
		{"povray", false, "ray tracing: compute-dominated with shallow BVH descents", genPovray},
	} {
		register(&Workload{Name: s.name, Suite: "spec2006", Irregular: s.irr, Description: s.desc, Generate: s.gen})
	}
}

// --- the proxies ---

func genMCF(cfg GenConfig) *trace.Trace {
	const pc = 0x440000
	arcs := cfg.scaled(60000)
	rng := memmodel.NewRNG(cfg.seed())
	h := memmodel.NewHeap(memmodel.HeapConfig{Seed: cfg.seed()})
	// Arc records in construction order with jitter; the simplex pricing
	// loop walks them in a fixed order chasing tail/head node pointers.
	arcNodes := SparseShuffledLayout(h, rng, arcs, 64, 16, 0.45)
	nodeRecs := SparseShuffledLayout(h, rng, arcs/4, 64, 32, 0.45)

	e := trace.NewEmitter("mcf")
	passes := 4
	for p := 0; p < passes; p++ {
		// Each pricing pass starts at a different pivot (the simplex basis
		// changes between iterations), so region entry points never recur
		// even though the chase structure itself is fixed.
		i := (p * 7919) % arcs
		// t is i*2654435761 mod len(nodeRecs), stepped along with i.
		m := len(nodeRecs)
		t, step := (i*2654435761)%m, 2654435761%m
		dep := -1
		for k := 0; k < arcs; k++ {
			var next memmodel.Addr
			if i+1 < arcs {
				next = arcNodes[i+1]
			}
			// Arc record (chained walk).
			dep = e.LoadSpec(&trace.MemSpec{PC: pc, Addr: arcNodes[i], Value: uint64(next), Dep: dep,
				Hints: ptrHint(typeArcNode, 0)})
			// Tail node potential (scattered pointer dereference).
			e.LoadSpec(&trace.MemSpec{PC: pc + 8, Addr: nodeRecs[t], Dep: dep,
				Hints: ptrHint(typeArcNode, 16)})
			e.Compute(3)
			e.Branch(pc+16, k&15 != 15)
			i, t = i+1, t+step
			if t >= m {
				t -= m
			}
			if i == arcs {
				i, t = 0, 0
			}
		}
		if p == 0 {
			e.EndWarmup()
		}
	}
	return e.Finish()
}

func genOmnetpp(cfg GenConfig) *trace.Trace {
	const pc = 0x441000
	events := cfg.scaled(30000)
	modules := 512
	rng := memmodel.NewRNG(cfg.seed())
	h := memmodel.NewHeap(memmodel.HeapConfig{Seed: cfg.seed()})
	heapArr := h.AllocArray(4096, 16)
	msgNodes := SparseShuffledLayout(h, rng, 8192, 64, 32, 0.45)
	moduleRecs := SparseShuffledLayout(h, rng, modules, 128, 16, 0.45)

	e := trace.NewEmitter("omnetpp")
	warm := events / 8
	for ev := 0; ev < events; ev++ {
		// Event-heap pop: root plus sift-down path.
		dep := -1
		for lvl := 0; lvl < 8; lvl++ {
			slot := ((ev + lvl*37) % 4095) >> uint(7-lvl%8)
			dep = e.LoadSpec(&trace.MemSpec{PC: pc, Addr: heapArr + memmodel.Addr(slot*16), Dep: dep,
				Hints: trace.SWHints{Valid: true, TypeID: typeHeapNode, RefForm: trace.RefIndex}})
			e.Compute(2)
			e.Branch(pc+8, lvl < 7)
		}
		// Message chain at the destination module: a short pointer walk.
		m := rng.Intn(modules)
		e.LoadSpec(&trace.MemSpec{PC: pc + 16, Addr: moduleRecs[m], Dep: dep,
			Hints: ptrHint(typeEventNode, 8)})
		cd := dep
		start := rng.Intn(len(msgNodes) - 4)
		for hopi := 0; hopi < 3; hopi++ {
			cd = e.LoadSpec(&trace.MemSpec{PC: pc + 24, Addr: msgNodes[start+hopi],
				Value: uint64(msgNodes[start+hopi+1]), Dep: cd,
				Hints: ptrHint(typeEventNode, 0)})
			e.Compute(3)
		}
		e.StoreSpec(&trace.MemSpec{PC: pc + 32, Addr: heapArr + memmodel.Addr((ev%4096)*16), Dep: -1})
		e.Compute(10)
		if ev == warm {
			e.EndWarmup()
		}
	}
	return e.Finish()
}

func genAstar(cfg GenConfig) *trace.Trace {
	const pc = 0x442000
	side := 256
	expansions := cfg.scaled(25000)
	rng := memmodel.NewRNG(cfg.seed())
	h := memmodel.NewHeap(memmodel.HeapConfig{Seed: cfg.seed()})
	grid := h.AllocArray(side*side, 16)
	openHeap := h.AllocArray(8192, 16)

	e := trace.NewEmitter("astar")
	warm := expansions / 8
	x, y := side/2, side/2
	for ex := 0; ex < expansions; ex++ {
		// Pop from the open list.
		dep := e.LoadSpec(&trace.MemSpec{PC: pc, Addr: openHeap + memmodel.Addr((ex%8192)*16), Dep: -1,
			Hints: trace.SWHints{Valid: true, TypeID: typeHeapNode, RefForm: trace.RefIndex}})
		e.Compute(3)
		// Wandering frontier: neighbours share spatial locality.
		x += rng.Intn(3) - 1
		y += rng.Intn(3) - 1
		x, y = (x+side)%side, (y+side)%side
		for d := 0; d < 4; d++ {
			nx, ny := x, y
			switch d {
			case 0:
				nx++
			case 1:
				nx--
			case 2:
				ny++
			case 3:
				ny--
			}
			nx, ny = (nx+side)%side, (ny+side)%side
			cell := memmodel.Addr((ny*side + nx) * 16)
			e.LoadSpec(&trace.MemSpec{PC: pc + 8, Addr: grid + cell, Dep: dep,
				Hints: trace.SWHints{Valid: true, TypeID: 1, RefForm: trace.RefIndex}})
			e.Compute(4)
			e.Branch(pc+16, d < 3)
		}
		e.StoreSpec(&trace.MemSpec{PC: pc + 24, Addr: openHeap + memmodel.Addr(((ex*7)%8192)*16), Dep: -1})
		if ex == warm {
			e.EndWarmup()
		}
	}
	return e.Finish()
}

func genLibquantum(cfg GenConfig) *trace.Trace {
	const pc = 0x443000
	n := cfg.scaled(120000)
	h := memmodel.NewHeap(memmodel.HeapConfig{Seed: cfg.seed()})
	reg := h.AllocArray(n, 16)
	e := trace.NewEmitter("libquantum")
	for gate := 0; gate < 4; gate++ {
		for i := 0; i < n; i++ {
			d := e.LoadSpec(&trace.MemSpec{PC: pc, Addr: reg + memmodel.Addr(i*16), Dep: -1,
				Hints: trace.SWHints{Valid: true, TypeID: 1, RefForm: trace.RefIndex}})
			e.Compute(2)
			e.StoreSpec(&trace.MemSpec{PC: pc + 8, Addr: reg + memmodel.Addr(i*16), Dep: d})
			e.Branch(pc+16, i+1 < n)
		}
		if gate == 0 {
			e.EndWarmup()
		}
	}
	return e.Finish()
}

func genLBM(cfg GenConfig) *trace.Trace {
	const pc = 0x444000
	cells := cfg.scaled(40000)
	h := memmodel.NewHeap(memmodel.HeapConfig{Seed: cfg.seed()})
	src := h.AllocArray(cells*8, 8)
	dst := h.AllocArray(cells*8, 8)
	e := trace.NewEmitter("lbm")
	// Streaming step: several distance vectors with fixed large strides.
	offsets := []int{0, 1, 40, 41, 1600, 1601, 1640}
	for sweep := 0; sweep < 3; sweep++ {
		for i := 0; i < cells; i++ {
			for k, off := range offsets {
				e.LoadSpec(&trace.MemSpec{PC: pc + uint64(k*8), Addr: src + memmodel.Addr(((i+off)%cells)*64), Dep: -1,
					Hints: trace.SWHints{Valid: true, TypeID: 1, RefForm: trace.RefIndex}})
			}
			e.Compute(12)
			e.StoreSpec(&trace.MemSpec{PC: pc + 0x80, Addr: dst + memmodel.Addr(i*64), Dep: -1})
			e.Branch(pc+0x88, i+1 < cells)
		}
		if sweep == 0 {
			e.EndWarmup()
		}
	}
	return e.Finish()
}

func genMILC(cfg GenConfig) *trace.Trace {
	const pc = 0x445000
	sites := cfg.scaled(30000)
	h := memmodel.NewHeap(memmodel.HeapConfig{Seed: cfg.seed()})
	field := h.AllocArray(sites, 128)
	e := trace.NewEmitter("milc")
	strides := []int{1, 16, 256, 4096}
	for dir := 0; dir < len(strides); dir++ {
		st := strides[dir]
		for i := 0; i < sites; i++ {
			e.LoadSpec(&trace.MemSpec{PC: pc + uint64(dir*16), Addr: field + memmodel.Addr((i*128)%(sites*128)), Dep: -1,
				Hints: trace.SWHints{Valid: true, TypeID: 1, RefForm: trace.RefIndex}})
			e.LoadSpec(&trace.MemSpec{PC: pc + uint64(dir*16) + 8, Addr: field + memmodel.Addr(((i+st)%sites)*128), Dep: -1,
				Hints: trace.SWHints{Valid: true, TypeID: 2, RefForm: trace.RefIndex}})
			e.Compute(20) // SU(3) matrix multiply
			e.Branch(pc+0x100, i+1 < sites)
		}
		if dir == 0 {
			e.EndWarmup()
		}
	}
	return e.Finish()
}

func genHmmer(cfg GenConfig) *trace.Trace {
	const pc = 0x446000
	cols := cfg.scaled(4000)
	rows := 60
	h := memmodel.NewHeap(memmodel.HeapConfig{Seed: cfg.seed()})
	dp := h.AllocArray(3*(cols+1), 8)
	model := h.AllocArray(rows*16, 8)
	e := trace.NewEmitter("hmmer")
	for r := 0; r < rows; r++ {
		for i := 0; i < cols; i++ {
			// DP recurrence: three sequential rows plus model coefficients.
			e.LoadSpec(&trace.MemSpec{PC: pc, Addr: dp + memmodel.Addr(i*8), Dep: -1,
				Hints: trace.SWHints{Valid: true, TypeID: 1, RefForm: trace.RefIndex}})
			e.LoadSpec(&trace.MemSpec{PC: pc + 8, Addr: dp + memmodel.Addr((cols+1+i)*8), Dep: -1})
			e.LoadSpec(&trace.MemSpec{PC: pc + 16, Addr: model + memmodel.Addr((r*16)*8), Dep: -1})
			e.Compute(6)
			e.StoreSpec(&trace.MemSpec{PC: pc + 24, Addr: dp + memmodel.Addr((2*(cols+1)+i)*8), Dep: -1})
			e.Branch(pc+32, i+1 < cols)
		}
		if r == 3 {
			e.EndWarmup()
		}
	}
	return e.Finish()
}

func genBzip2(cfg GenConfig) *trace.Trace {
	const pc = 0x447000
	block := cfg.scaled(90000)
	rng := memmodel.NewRNG(cfg.seed())
	h := memmodel.NewHeap(memmodel.HeapConfig{Seed: cfg.seed()})
	data := h.AllocArray(block, 1)
	ptrArr := h.AllocArray(block, 4)
	e := trace.NewEmitter("bzip2")
	passes := 3
	for p := 0; p < passes; p++ {
		for i := 0; i < block; i += 2 {
			// Sorting phase: pointer array sequential, data scattered
			// within the block window.
			pd := e.LoadSpec(&trace.MemSpec{PC: pc, Addr: ptrArr + memmodel.Addr(i*4), Dep: -1,
				Hints: trace.SWHints{Valid: true, TypeID: 1, RefForm: trace.RefIndex}})
			t := rng.Intn(block)
			e.LoadSpec(&trace.MemSpec{PC: pc + 8, Addr: data + memmodel.Addr(t), Dep: pd,
				Hints: trace.SWHints{Valid: true, TypeID: 2, RefForm: trace.RefIndex}})
			e.Compute(5)
			e.Branch(pc+16, rng.Intn(4) != 0)
		}
		if p == 0 {
			e.EndWarmup()
		}
	}
	return e.Finish()
}

func genH264(cfg GenConfig) *trace.Trace {
	const pc = 0x448000
	width := 320
	mbs := cfg.scaled(6000)
	rng := memmodel.NewRNG(cfg.seed())
	h := memmodel.NewHeap(memmodel.HeapConfig{Seed: cfg.seed()})
	frame := h.AllocArray(width*width, 1)
	e := trace.NewEmitter("h264ref")
	warm := mbs / 8
	for mb := 0; mb < mbs; mb++ {
		// Motion search: scan a 16x16 window at a jittered position —
		// dense spatial footprints that SMS captures well.
		bx, by := rng.Intn(width-48), rng.Intn(width-48)
		for row := 0; row < 16; row++ {
			base := frame + memmodel.Addr((by+row)*width+bx)
			e.LoadSpec(&trace.MemSpec{PC: pc, Addr: base, Dep: -1,
				Hints: trace.SWHints{Valid: true, TypeID: 1, RefForm: trace.RefIndex}})
			e.LoadSpec(&trace.MemSpec{PC: pc + 8, Addr: base + 8, Dep: -1})
			e.Compute(8) // SAD accumulation
			e.Branch(pc+16, row < 15)
		}
		e.Compute(20)
		if mb == warm {
			e.EndWarmup()
		}
	}
	return e.Finish()
}

func genSphinx3(cfg GenConfig) *trace.Trace {
	const pc = 0x449000
	gaussians := cfg.scaled(30000)
	states := 4096
	rng := memmodel.NewRNG(cfg.seed())
	h := memmodel.NewHeap(memmodel.HeapConfig{Seed: cfg.seed()})
	mixture := h.AllocArray(gaussians, 64)
	lattice := SparseShuffledLayout(h, rng, states, 64, 32, 0.45)
	e := trace.NewEmitter("sphinx3")
	frames := 4
	for f := 0; f < frames; f++ {
		// Gaussian scoring: streaming.
		for i := 0; i < gaussians; i++ {
			e.LoadSpec(&trace.MemSpec{PC: pc, Addr: mixture + memmodel.Addr(i*64), Dep: -1,
				Hints: trace.SWHints{Valid: true, TypeID: 1, RefForm: trace.RefIndex}})
			e.Compute(6)
			e.Branch(pc+8, i+1 < gaussians)
		}
		// HMM lattice update: irregular pointer hops among active states.
		dep := -1
		for i := 0; i < states; i++ {
			s := (i*769 + f*13) % states
			dep = e.LoadSpec(&trace.MemSpec{PC: pc + 16, Addr: lattice[s],
				Value: uint64(lattice[(s+769)%states]), Dep: dep,
				Hints: ptrHint(typeEventNode, 0)})
			e.Compute(4)
		}
		if f == 0 {
			e.EndWarmup()
		}
	}
	return e.Finish()
}

func genSoplex(cfg GenConfig) *trace.Trace {
	const pc = 0x44a000
	cols := cfg.scaled(3000)
	nnzPerCol := 20
	rng := memmodel.NewRNG(cfg.seed())
	h := memmodel.NewHeap(memmodel.HeapConfig{Seed: cfg.seed()})
	values := h.AllocArray(cols*nnzPerCol, 8)
	rowIdx := h.AllocArray(cols*nnzPerCol, 8)
	x := h.AllocArray(cols*8, 8)
	rows := make([]int, cols*nnzPerCol)
	for i := range rows {
		rows[i] = rng.Intn(cols * 8)
	}
	e := trace.NewEmitter("soplex")
	passes := 4
	for p := 0; p < passes; p++ {
		for c := 0; c < cols; c++ {
			for k := 0; k < nnzPerCol; k++ {
				i := c*nnzPerCol + k
				e.LoadSpec(&trace.MemSpec{PC: pc, Addr: values + memmodel.Addr(i*8), Dep: -1,
					Hints: trace.SWHints{Valid: true, TypeID: 1, RefForm: trace.RefIndex}})
				id := e.LoadSpec(&trace.MemSpec{PC: pc + 8, Addr: rowIdx + memmodel.Addr(i*8),
					Value: uint64(rows[i]), Dep: -1,
					Hints: trace.SWHints{Valid: true, TypeID: 2, RefForm: trace.RefIndex}})
				e.LoadSpec(&trace.MemSpec{PC: pc + 16, Addr: x + memmodel.Addr(rows[i]*8), Dep: id,
					Hints: trace.SWHints{Valid: true, TypeID: 3, RefForm: trace.RefIndex}})
				e.Compute(3)
				e.Branch(pc+24, k+1 < nnzPerCol)
			}
		}
		if p == 0 {
			e.EndWarmup()
		}
	}
	return e.Finish()
}

func genDealII(cfg GenConfig) *trace.Trace {
	const pc = 0x44b000
	rowsN := cfg.scaled(12000)
	nnz := 9 // FEM stencil-like sparsity: clustered columns
	h := memmodel.NewHeap(memmodel.HeapConfig{Seed: cfg.seed()})
	values := h.AllocArray(rowsN*nnz, 8)
	vec := h.AllocArray(rowsN, 8)
	e := trace.NewEmitter("dealII")
	passes := 4
	for p := 0; p < passes; p++ {
		for r := 0; r < rowsN; r++ {
			for k := 0; k < nnz; k++ {
				e.LoadSpec(&trace.MemSpec{PC: pc, Addr: values + memmodel.Addr((r*nnz+k)*8), Dep: -1,
					Hints: trace.SWHints{Valid: true, TypeID: 1, RefForm: trace.RefIndex}})
				// Clustered gather: column within ±32 of the row.
				cI := r + (k-nnz/2)*4
				if cI < 0 {
					cI = 0
				}
				if cI >= rowsN {
					cI = rowsN - 1
				}
				e.LoadSpec(&trace.MemSpec{PC: pc + 8, Addr: vec + memmodel.Addr(cI*8), Dep: -1,
					Hints: trace.SWHints{Valid: true, TypeID: 2, RefForm: trace.RefIndex}})
				e.Compute(4)
			}
			e.StoreSpec(&trace.MemSpec{PC: pc + 16, Addr: vec + memmodel.Addr(r*8), Dep: -1})
			e.Branch(pc+24, r+1 < rowsN)
		}
		if p == 0 {
			e.EndWarmup()
		}
	}
	return e.Finish()
}

func genNamd(cfg GenConfig) *trace.Trace {
	const pc = 0x44c000
	atoms := cfg.scaled(20000)
	neighbors := 12
	rng := memmodel.NewRNG(cfg.seed())
	h := memmodel.NewHeap(memmodel.HeapConfig{Seed: cfg.seed()})
	coords := h.AllocArray(atoms, 32)
	nbrIdx := h.AllocArray(atoms*neighbors, 8)
	nbrs := make([]int, atoms*neighbors)
	for a := 0; a < atoms; a++ {
		for k := 0; k < neighbors; k++ {
			// Spatially clustered neighbours.
			t := a + rng.Intn(65) - 32
			if t < 0 {
				t = 0
			}
			if t >= atoms {
				t = atoms - 1
			}
			nbrs[a*neighbors+k] = t
		}
	}
	e := trace.NewEmitter("namd")
	steps := 3
	for s := 0; s < steps; s++ {
		for a := 0; a < atoms; a++ {
			for k := 0; k < neighbors; k++ {
				i := a*neighbors + k
				id := e.LoadSpec(&trace.MemSpec{PC: pc, Addr: nbrIdx + memmodel.Addr(i*8),
					Value: uint64(nbrs[i]), Dep: -1,
					Hints: trace.SWHints{Valid: true, TypeID: 1, RefForm: trace.RefIndex}})
				e.LoadSpec(&trace.MemSpec{PC: pc + 8, Addr: coords + memmodel.Addr(nbrs[i]*32), Dep: id,
					Hints: trace.SWHints{Valid: true, TypeID: 2, RefForm: trace.RefIndex}})
				e.Compute(10) // force computation
			}
			e.StoreSpec(&trace.MemSpec{PC: pc + 16, Addr: coords + memmodel.Addr(a*32), Dep: -1})
			e.Branch(pc+24, a+1 < atoms)
		}
		if s == 0 {
			e.EndWarmup()
		}
	}
	return e.Finish()
}

func genGobmk(cfg GenConfig) *trace.Trace {
	const pc = 0x44d000
	evals := cfg.scaled(20000)
	rng := memmodel.NewRNG(cfg.seed())
	h := memmodel.NewHeap(memmodel.HeapConfig{Seed: cfg.seed()})
	board := h.AllocArray(512, 8) // tiny, cache-resident
	e := trace.NewEmitter("gobmk")
	warm := evals / 8
	for ev := 0; ev < evals; ev++ {
		for i := 0; i < 12; i++ {
			e.LoadSpec(&trace.MemSpec{PC: pc, Addr: board + memmodel.Addr(rng.Intn(512)*8), Dep: -1,
				Hints: trace.SWHints{Valid: true, TypeID: 1, RefForm: trace.RefIndex}})
			e.Compute(8)
			e.Branch(pc+8, rng.Intn(3) != 0)
		}
		e.Compute(40)
		if ev == warm {
			e.EndWarmup()
		}
	}
	return e.Finish()
}

func genSjeng(cfg GenConfig) *trace.Trace {
	const pc = 0x44e000
	probes := cfg.scaled(40000)
	ttSize := 1 << 20 // 1M-entry transposition table: random probes
	rng := memmodel.NewRNG(cfg.seed())
	h := memmodel.NewHeap(memmodel.HeapConfig{Seed: cfg.seed()})
	tt := h.AllocArray(ttSize, 16)
	e := trace.NewEmitter("sjeng")
	warm := probes / 8
	for p := 0; p < probes; p++ {
		slot := rng.Intn(ttSize)
		e.LoadSpec(&trace.MemSpec{PC: pc, Addr: tt + memmodel.Addr(slot*16), Reg: uint64(slot), Dep: -1,
			Hints: trace.SWHints{Valid: true, TypeID: 1, RefForm: trace.RefIndex}})
		e.Compute(15) // move generation / evaluation between probes
		for b := 0; b < 5; b++ {
			e.Branch(pc+8+uint64(b*4), rng.Intn(2) == 0)
		}
		if p == warm {
			e.EndWarmup()
		}
	}
	return e.Finish()
}

func genPovray(cfg GenConfig) *trace.Trace {
	const pc = 0x44f000
	raysN := cfg.scaled(12000)
	rng := memmodel.NewRNG(cfg.seed())
	h := memmodel.NewHeap(memmodel.HeapConfig{Seed: cfg.seed()})
	bvh := SparseShuffledLayout(h, rng, 4096, 64, 64, 0.45) // shallow, mostly cached
	objects := h.AllocArray(2048, 128)
	e := trace.NewEmitter("povray")
	warm := raysN / 8
	for ray := 0; ray < raysN; ray++ {
		dep := -1
		// Shallow BVH descent (log2(4096) = 12, mostly cache hits).
		idx := 0
		for lvl := 0; lvl < 12; lvl++ {
			dep = e.LoadSpec(&trace.MemSpec{PC: pc, Addr: bvh[idx%4096], Dep: dep,
				Hints: ptrHint(typeTreeNode, 0)})
			e.Compute(12) // box intersection math
			left := rng.Intn(2) == 0
			if left {
				idx = 2*idx + 1
			} else {
				idx = 2*idx + 2
			}
			e.Branch(pc+8, left)
		}
		e.LoadSpec(&trace.MemSpec{PC: pc + 16, Addr: objects + memmodel.Addr(rng.Intn(2048)*128), Dep: dep})
		e.Compute(60) // shading
		if ray == warm {
			e.EndWarmup()
		}
	}
	return e.Finish()
}
