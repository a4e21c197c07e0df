// Graphlayouts reproduces the Figure 14 scenario: the same graph algorithm
// (Graph500 BFS) implemented both naively (pointer-linked vertices and
// edges) and in the spatially optimized CSR form, under several
// prefetchers.
//
// The paper's claim (§7.5): with the context prefetcher, the naive linked
// implementation approaches the performance of the hand-optimized layout —
// programmers can skip the spatial-optimization burden.
//
//	go run ./examples/graphlayouts
package main

import (
	"fmt"
	"log"
	"os"

	"semloc/internal/exp"
	"semloc/internal/sim"
	"semloc/internal/stats"
	"semloc/internal/workloads"
)

func main() {
	machine := sim.DefaultConfig()
	gen := workloads.GenConfig{Scale: 0.3, Seed: 7}

	run := func(name, pf string) *sim.Result {
		w, err := workloads.ByName(name)
		if err != nil {
			log.Fatal(err)
		}
		tr := w.Generate(gen)
		p, err := exp.NewCellPrefetcher(tr, exp.Job{Workload: name, Prefetcher: pf}, gen.Seed)
		if err != nil {
			log.Fatal(err)
		}
		res, err := sim.Run(tr, p, machine)
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	tb := stats.NewTable("Graph500 BFS: naive (linked) vs optimized (CSR) layouts",
		"prefetcher", "CSR CPI", "linked CPI", "linked penalty")
	for _, pf := range []string{"none", "ghb-gdc", "sms", "context"} {
		csr := run("graph500", pf)
		lst := run("graph500-list", pf)
		tb.AddRow(pf, csr.CPU.CPI(), lst.CPU.CPI(),
			fmt.Sprintf("%.2fx", lst.CPU.CPI()/csr.CPU.CPI()))
	}
	tb.Render(os.Stdout)
	fmt.Println("\nthe context prefetcher should bring the linked layout closest to the CSR layout")
}
