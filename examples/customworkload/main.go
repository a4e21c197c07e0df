// Customworkload shows how to drive the simulator with your own program
// behaviour: build a trace through the instrumentation API (the stand-in
// for the paper's LLVM hint pass), then compare prefetchers on it.
//
// The workload modelled here is a tiny in-memory key-value store: a hash
// index into version-chained records — a mix of indexed lookups and short
// pointer chases, annotated with the semantic hints the context prefetcher
// consumes.
//
//	go run ./examples/customworkload
package main

import (
	"fmt"
	"log"
	"os"

	"semloc/internal/exp"
	"semloc/internal/memmodel"
	"semloc/internal/sim"
	"semloc/internal/stats"
	"semloc/internal/trace"
)

// Object type enumeration for the compiler hints (each program defines its
// own, as the paper's LLVM pass does).
const (
	typeBucket  uint16 = 1
	typeVersion uint16 = 2
)

// seed drives the workload's heap and key choices, and is the base seed
// the context prefetcher's learner seed derives from.
const seed = 99

func buildTrace() *trace.Trace {
	const (
		pcBucket  = 0x501000 // bucket array load site
		pcVersion = 0x501010 // version-chain load site
		pcValue   = 0x501020 // record payload load site
	)
	rng := memmodel.NewRNG(seed)
	heap := memmodel.NewHeap(memmodel.HeapConfig{Seed: seed})

	const buckets = 1 << 14
	const records = buckets * 2
	const versionsPerRecord = 3

	bucketArr := heap.AllocArray(buckets, 8)
	// A record's versions are created close together in time, so the
	// allocator places them near one another even though records are
	// scattered across the heap — the structural relation the context
	// prefetcher can learn (version chains at small, recurring deltas).
	versions := make([]memmodel.Addr, records*versionsPerRecord)
	for rec := 0; rec < records; rec++ {
		base := heap.Alloc(versionsPerRecord * 64)
		for v := 0; v < versionsPerRecord; v++ {
			versions[rec*versionsPerRecord+v] = base + memmodel.Addr(v*64)
		}
	}

	e := trace.NewEmitter("kvstore")
	const lookups = 60000
	for q := 0; q < lookups; q++ {
		key := rng.Intn(records)
		b := key % buckets
		// Hash-index probe: an array-indexed load. LoadSpec and StoreSpec
		// take a *trace.MemSpec and keep no pointer to it, so the literal
		// stays on this stack, built once where the emitter reads it.
		head := versions[key*versionsPerRecord]
		dep := e.LoadSpec(&trace.MemSpec{
			PC: pcBucket, Addr: bucketArr + memmodel.Addr(b*8),
			Value: uint64(head), Reg: uint64(key), Dep: -1,
			Hints: trace.SWHints{Valid: true, TypeID: typeBucket, RefForm: trace.RefIndex},
		})
		e.Compute(2)
		// Walk the version chain to the visible version (MVCC-style).
		for v := 0; v < versionsPerRecord; v++ {
			node := versions[key*versionsPerRecord+v]
			var next memmodel.Addr
			if v+1 < versionsPerRecord {
				next = versions[key*versionsPerRecord+v+1]
			}
			dep = e.LoadSpec(&trace.MemSpec{
				PC: pcVersion, Addr: node, Value: uint64(next), Reg: uint64(key),
				Dep: dep, Hints: trace.SWHints{Valid: true, TypeID: typeVersion, LinkOffset: 0, RefForm: trace.RefArrow},
			})
			e.Branch(pcVersion+8, v+1 < versionsPerRecord)
		}
		// Read the payload of the chosen version.
		e.LoadSpec(&trace.MemSpec{PC: pcValue, Addr: versions[key*versionsPerRecord+versionsPerRecord-1] + 16, Dep: dep})
		e.Compute(6)
		if q == lookups/8 {
			e.EndWarmup()
		}
	}
	return e.Finish()
}

func main() {
	tr := buildTrace()
	if err := tr.Validate(); err != nil {
		log.Fatal(err)
	}
	st := tr.ComputeStats()
	fmt.Printf("custom workload %q: %d instructions, %d loads, %.0f%% hinted\n\n",
		tr.Name, st.Instructions, st.Loads, 100*float64(st.Hinted)/float64(st.Loads+st.Stores))

	machine := sim.DefaultConfig()
	tb := stats.NewTable("key-value store lookups", "prefetcher", "IPC", "speedup", "L1 MPKI")
	var base float64
	for _, pn := range []string{"none", "stride", "ghb-pcdc", "sms", "context"} {
		pf, err := exp.NewCellPrefetcher(tr, exp.Job{Workload: tr.Name, Prefetcher: pn}, seed)
		if err != nil {
			log.Fatal(err)
		}
		res, err := sim.Run(tr, pf, machine)
		if err != nil {
			log.Fatal(err)
		}
		if pn == "none" {
			base = res.IPC()
		}
		tb.AddRow(pn, res.IPC(), res.IPC()/base, res.L1MPKI())
	}
	tb.Render(os.Stdout)
}
