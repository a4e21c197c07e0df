package exp

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden_scale0.1.txt from this run")

// goldenPath holds the committed simulated results TestGoldenResults
// compares against.
const goldenPath = "testdata/golden_scale0.1.txt"

// TestGoldenResults pins simulated results across commits: every workload
// with every prefetcher in PrefetcherNames, at scale 0.1 and seed 1, must
// reproduce the committed line for its cell — the CPU, L1, L2 and
// category counters and the hit-depth total. A change that is meant to
// move results reruns it with -update and commits the diff. Scale 0.1 is
// the smallest at which all but two workloads see L1 misses after
// warm-up. The race detector makes the matrix over ten times slower, so
// race builds skip it; `make golden` runs it without.
func TestGoldenResults(t *testing.T) {
	if raceEnabled {
		t.Skip("the golden matrix runs without the race detector (make golden)")
	}
	opts := DefaultOptions()
	opts.Scale = 0.1
	r := NewRunner(opts)
	var jobs []Job
	for _, wl := range AllWorkloads() {
		for _, pf := range PrefetcherNames {
			jobs = append(jobs, Job{Workload: wl, Prefetcher: pf})
		}
	}
	res, err := r.RunJobs(jobs)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, jr := range res {
		if jr.Err != nil {
			t.Fatalf("%s/%s: %v", jr.Job.Workload, jr.Job.Prefetcher, jr.Err)
		}
		s := jr.Result
		got = append(got, fmt.Sprintf("%s/%s cpu=%+v l1=%+v l2=%+v cats=%+v hd=%d",
			jr.Job.Workload, jr.Job.Prefetcher, s.CPU, s.L1, s.L2, s.Categories, s.HitDepths.Total()))
	}
	if *update {
		if err := os.WriteFile(goldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[string]string)
	for _, line := range strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n") {
		cell, _, _ := strings.Cut(line, " ")
		want[cell] = line
	}
	for _, line := range got {
		cell, _, _ := strings.Cut(line, " ")
		if w, ok := want[cell]; !ok {
			t.Errorf("%s: no golden line; new:\n  %s", cell, line)
		} else if w != line {
			t.Errorf("%s changed:\n  old: %s\n  new: %s", cell, w, line)
		}
		delete(want, cell)
	}
	for cell, line := range want {
		t.Errorf("%s: golden line has no cell; old:\n  %s", cell, line)
	}
}
