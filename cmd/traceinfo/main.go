// Command traceinfo summarizes a binary trace file produced by tracegen:
// record counts, instruction mix, dependency density, hint coverage, the
// bytes its records take in memory, and optionally a per-record dump of a
// window.
//
// Usage:
//
//	traceinfo file.trace
//	traceinfo -reuse file.trace           # stack-distance profile
//	traceinfo -dump 100 -at 5000 file.trace
//
// Exit codes: 0 ok, 1 unreadable or invalid trace, 2 usage error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"semloc/internal/cache"
	"semloc/internal/memmodel"
	"semloc/internal/reuse"
	"semloc/internal/stats"
	"semloc/internal/trace"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("traceinfo", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		dump = fs.Int("dump", 0, "dump this many records")
		at   = fs.Int("at", 0, "start dumping at this record index")
		doRe = fs.Bool("reuse", false, "print the LRU stack-distance profile and implied miss ratios")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: traceinfo [-dump N -at I] file.trace")
		return 2
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "traceinfo:", err)
		return 1
	}
	defer f.Close()
	tr, err := trace.Read(f)
	if err != nil {
		fmt.Fprintln(stderr, "traceinfo:", err)
		return 1
	}
	st := tr.ComputeStats()
	tb := stats.NewTable("trace "+tr.Name, "metric", "value")
	tb.AddRow("records", st.Records)
	tb.AddRow("instructions", st.Instructions)
	tb.AddRow("loads", st.Loads)
	tb.AddRow("stores", st.Stores)
	tb.AddRow("branches", st.Branches)
	tb.AddRow("dependent loads", fmt.Sprintf("%d (%.1f%% of loads)", st.Dependent, pct(st.Dependent, st.Loads)))
	tb.AddRow("dependency reach", fmt.Sprintf("%d records", st.DepReach))
	tb.AddRow("hinted accesses", fmt.Sprintf("%d (%.1f%% of memory ops)", st.Hinted, pct(st.Hinted, st.Loads+st.Stores)))
	tb.AddRow("warmup marker at", st.WarmupIndex)
	bytes, whole := tr.Footprint()
	tb.AddRow("record storage", fmt.Sprintf("%d bytes (%.1f per record)", bytes, float64(bytes)/float64(max(st.Records, 1))))
	tb.AddRow("records kept whole", whole)
	tb.Render(stdout)

	if *doRe {
		prof := reuse.Analyze(tr, 1<<20)
		fmt.Fprintln(stdout)
		rt := stats.NewTable("reuse profile", "metric", "value")
		rt.AddRow("profiled accesses", prof.Accesses)
		rt.AddRow("cold (first-touch)", prof.Cold)
		rt.AddRow("median reuse distance", prof.Distances.Percentile(0.5))
		rt.AddRow("p90 reuse distance", prof.Distances.Percentile(0.9))
		rt.AddRow("working set (99% of reuses)", fmt.Sprintf("%d lines (%d kB)",
			prof.WorkingSetLines(0.99), prof.WorkingSetLines(0.99)*memmodel.LineSize>>10))
		cfg := cache.DefaultConfig()
		rt.AddRow("implied fully-assoc L1 miss ratio", fmt.Sprintf("%.4f", prof.MissRatio(cfg.L1.Size/memmodel.LineSize)))
		rt.AddRow("implied fully-assoc L2 miss ratio", fmt.Sprintf("%.4f", prof.MissRatio(cfg.L2.Size/memmodel.LineSize)))
		rt.Render(stdout)
	}

	if *dump > 0 {
		fmt.Fprintln(stdout)
		end := *at + *dump
		c := tr.Cursor()
		for c.Next() && c.Index() < end {
			i, r := c.Index(), c.Record()
			if i < *at {
				continue
			}
			switch r.Kind {
			case trace.KindCompute:
				fmt.Fprintf(stdout, "%8d  compute x%d\n", i, r.Count)
			case trace.KindBranch:
				fmt.Fprintf(stdout, "%8d  branch pc=%#x taken=%v\n", i, r.PC, r.Taken)
			case trace.KindLoad, trace.KindStore:
				dep := ""
				if r.Dep != trace.NoDep {
					dep = fmt.Sprintf(" dep=%d", r.Dep)
				}
				hint := ""
				if r.Hints.Valid {
					hint = fmt.Sprintf(" [type=%d linkoff=%d %s]", r.Hints.TypeID, r.Hints.LinkOffset, r.Hints.RefForm)
				}
				fmt.Fprintf(stdout, "%8d  %-5s pc=%#x addr=%v size=%d%s%s\n", i, r.Kind, r.PC, r.Addr, r.Size, dep, hint)
			case trace.KindWarmupEnd:
				fmt.Fprintf(stdout, "%8d  warmup-end\n", i)
			}
		}
	}
	return 0
}

func pct(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}
