package exp

import (
	"fmt"
	"io"

	"semloc/internal/core"
	"semloc/internal/stats"
	"semloc/internal/workloads"
)

// renderTable2 prints the simulated machine and prefetcher parameters
// (Table 2 of the paper) as configured in this reproduction.
func renderTable2(_ []JobResult, opts Options, w io.Writer) {
	cfg := opts.Sim
	ctx := core.DefaultConfig()

	tb := stats.NewTable("Table 2: simulator parameters", "parameter", "value")
	tb.AddRow("Core type", fmt.Sprintf("OoO, %d-wide fetch", cfg.CPU.Width))
	tb.AddRow("Queue sizes", fmt.Sprintf("%d ROB, %d LQ/SQ", cfg.CPU.ROB, cfg.CPU.LQ))
	tb.AddRow("MSHRs", fmt.Sprintf("L1: %d, L2: %d", cfg.Cache.L1.MSHRs, cfg.Cache.L2.MSHRs))
	tb.AddRow("L1 cache", fmt.Sprintf("%dkB Data, %d ways, %d cycles access", cfg.Cache.L1.Size>>10, cfg.Cache.L1.Ways, cfg.Cache.L1.Latency))
	tb.AddRow("L2 cache", fmt.Sprintf("%dMB, %d ways, %d cycles access", cfg.Cache.L2.Size>>20, cfg.Cache.L2.Ways, cfg.Cache.L2.Latency))
	tb.AddRow("Main memory", fmt.Sprintf("%d cycles access", cfg.Cache.DRAMLatency))
	tb.AddRow("CST", fmt.Sprintf("%d entries x %d links, direct-mapped", ctx.CSTEntries, ctx.CSTLinks))
	tb.AddRow("Reducer", fmt.Sprintf("%d entries, direct-mapped", ctx.ReducerEntries))
	tb.AddRow("History queue", fmt.Sprintf("%d entries", ctx.HistoryDepth))
	tb.AddRow("Prefetch queue", fmt.Sprintf("%d entries", ctx.QueueDepth))
	tb.AddRow("Context prefetcher size", fmt.Sprintf("~%dkB", ctx.StorageBytes()>>10))
	tb.Render(w)
}

// renderTable3 prints the workload inventory (Table 3 of the paper).
func renderTable3(_ []JobResult, _ Options, w io.Writer) {
	tb := stats.NewTable("Table 3: workloads and benchmarks", "suite", "workload", "irregular", "modelled behaviour")
	for _, wl := range workloads.All() {
		tb.AddRow(wl.Suite, wl.Name, wl.Irregular, wl.Description)
	}
	tb.Render(w)
}
