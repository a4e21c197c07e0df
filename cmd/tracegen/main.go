// Command tracegen generates a workload trace and writes it to a file, the
// trace's compact store section by section (trace.Write), so experiments
// can replay identical traces and traces can be shared between machines.
// traceinfo, prefetchsim -trace and loadgen -trace read it back.
//
// Usage:
//
//	tracegen -workload list -o list.trace [-scale 1] [-seed 1] [-gzip]
//
// Exit codes: 0 ok, 1 generation or write failed, 2 usage error.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"semloc/internal/trace"
	"semloc/internal/workloads"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload name (see prefetchsim -list)")
		out      = fs.String("o", "", "output file (default <workload>.trace)")
		scale    = fs.Float64("scale", 1, "workload scale factor")
		seed     = fs.Uint64("seed", 1, "workload seed")
		gz       = fs.Bool("gzip", false, "gzip-compress the output")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *workload == "" {
		fmt.Fprintln(stderr, "tracegen: -workload required")
		return 2
	}
	w, err := workloads.ByName(*workload)
	if err != nil {
		fmt.Fprintln(stderr, "tracegen:", err)
		return 2
	}
	path := *out
	if path == "" {
		path = *workload + ".trace"
		if *gz {
			path += ".gz"
		}
	}
	tr := w.Generate(workloads.GenConfig{Scale: *scale, Seed: *seed})
	if err := tr.Validate(); err != nil {
		fmt.Fprintln(stderr, "tracegen: generated invalid trace:", err)
		return 1
	}
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(stderr, "tracegen:", err)
		return 1
	}
	write := trace.Write
	if *gz {
		write = trace.WriteGzip
	}
	if err := write(f, tr); err != nil {
		f.Close()
		fmt.Fprintln(stderr, "tracegen: writing trace:", err)
		return 1
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(stderr, "tracegen:", err)
		return 1
	}
	st := tr.ComputeStats()
	info, _ := os.Stat(path)
	fmt.Fprintf(stdout, "wrote %s: %d records (%d instructions, %d loads, %d stores), %d bytes\n",
		path, st.Records, st.Instructions, st.Loads, st.Stores, info.Size())
	return 0
}
