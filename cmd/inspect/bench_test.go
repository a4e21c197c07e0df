package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"semloc/internal/harness"
)

// reportOf builds a minimal report for compare tests.
func reportOf(cells map[string][2]float64) *benchReport {
	rep := &benchReport{Schema: 1, TimedParallelism: 1}
	for key, v := range cells {
		wl, pf, _ := strings.Cut(key, "|")
		rep.Entries = append(rep.Entries, benchEntry{
			Workload: wl, Prefetcher: pf, Accesses: 1000, WallNS: int64(v[0] * 1000),
			NSPerAccess: v[0], AllocsPerAccess: v[1], IPC: 1,
		})
	}
	return rep
}

// TestCompareRegressionGate pins the compare thresholds: >10% ns/access
// or any real allocs/access growth regresses; anything within tolerance
// passes, including improvements.
func TestCompareRegressionGate(t *testing.T) {
	oldRep := reportOf(map[string][2]float64{
		"list|none":    {100, 0.001},
		"list|context": {400, 0.001},
		"mcf|context":  {500, 0.001},
	})
	cases := []struct {
		name      string
		cells     map[string][2]float64
		regressed int
	}{
		{"identical", map[string][2]float64{
			"list|none": {100, 0.001}, "list|context": {400, 0.001}, "mcf|context": {500, 0.001}}, 0},
		{"within-tolerance", map[string][2]float64{
			"list|none": {109, 0.001}, "list|context": {430, 0.002}, "mcf|context": {450, 0.001}}, 0},
		{"ns-regression", map[string][2]float64{
			"list|none": {100, 0.001}, "list|context": {450, 0.001}, "mcf|context": {500, 0.001}}, 1},
		{"alloc-regression", map[string][2]float64{
			"list|none": {100, 1.5}, "list|context": {400, 0.001}, "mcf|context": {500, 0.001}}, 1},
		{"both-cells", map[string][2]float64{
			"list|none": {120, 0.001}, "list|context": {400, 2.0}, "mcf|context": {500, 0.001}}, 2},
		{"matrix-evolved", map[string][2]float64{
			"list|none": {100, 0.001}, "new|cell": {999, 9}}, 0},
	}
	for _, tc := range cases {
		deltas, err := compareBench(oldRep, reportOf(tc.cells))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := 0
		for _, d := range deltas {
			if d.Regressed {
				got++
			}
		}
		if got != tc.regressed {
			t.Errorf("%s: %d regressions, want %d (%+v)", tc.name, got, tc.regressed, deltas)
		}
	}
	// No shared cells: must be an error, not a silent pass.
	if _, err := compareBench(oldRep, reportOf(map[string][2]float64{"x|y": {1, 0}})); err == nil {
		t.Error("disjoint reports compared without error")
	}
}

// TestBenchReportValidate accepts reports without the fields older ones
// lack and rejects every malformed shape; TestInspectBench loads the
// frozen reports themselves.
func TestBenchReportValidate(t *testing.T) {
	good := benchReport{
		Schema:           1,
		TimedParallelism: 1,
		TimedPasses:      1,
		Entries:          []benchEntry{{Workload: "list", Prefetcher: "none", Accesses: 10, WallNS: 5, NSPerAccess: 0.5, IPC: 1}},
	}
	cases := []struct {
		name   string
		mutate func(r *benchReport)
		ok     bool
	}{
		{"good", func(r *benchReport) {}, true},
		{"no timed_parallelism (BENCH_2)", func(r *benchReport) { r.TimedParallelism = 0 }, true},
		{"no timed_passes (BENCH_2, BENCH_3)", func(r *benchReport) { r.TimedPasses = 0 }, true},
		{"many timed passes", func(r *benchReport) { r.TimedPasses = 12 }, true},
		{"schema 2", func(r *benchReport) { r.Schema = 2 }, false},
		{"schema 0", func(r *benchReport) { r.Schema = 0 }, false},
		{"no entries", func(r *benchReport) { r.Entries = nil }, false},
		{"zero-work entry", func(r *benchReport) { r.Entries = []benchEntry{{Workload: "list", Prefetcher: "none"}} }, false},
		{"empty workload", func(r *benchReport) { r.Entries[0].Workload = "" }, false},
		{"empty prefetcher", func(r *benchReport) { r.Entries[0].Prefetcher = "" }, false},
		{"zero accesses", func(r *benchReport) { r.Entries[0].Accesses = 0 }, false},
		{"zero wall time", func(r *benchReport) { r.Entries[0].WallNS = 0 }, false},
		{"zero ns/access", func(r *benchReport) { r.Entries[0].NSPerAccess = 0 }, false},
		{"zero IPC", func(r *benchReport) { r.Entries[0].IPC = 0 }, false},
		{"parallel timed pass", func(r *benchReport) { r.TimedParallelism = 4 }, false},
		{"negative timed_parallelism", func(r *benchReport) { r.TimedParallelism = -1 }, false},
		{"negative timed_passes", func(r *benchReport) { r.TimedPasses = -1 }, false},
	}
	for _, tc := range cases {
		r := good
		r.Entries = append([]benchEntry(nil), good.Entries...)
		tc.mutate(&r)
		if err := r.validate(); (err == nil) != tc.ok {
			t.Errorf("%s: validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// doctorBench writes a copy of BENCH_4.json with mutate applied to its
// decoded JSON, so every field the checker does not read survives.
func doctorBench(t *testing.T, mutate func(rep map[string]any)) string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCH_4.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rep map[string]any
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	mutate(rep)
	if data, err = json.Marshal(rep); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_doctored.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestInspectBench drives the subcommand on the frozen reports and on
// doctored copies of BENCH_4: a regressed cell and each invalid report
// exit 1, a wrong argument count exits 2.
func TestInspectBench(t *testing.T) {
	root := func(name string) string { return filepath.Join("..", "..", name) }
	for _, pair := range [][2]string{{"BENCH_2.json", "BENCH_3.json"}, {"BENCH_3.json", "BENCH_4.json"}} {
		var out bytes.Buffer
		if code := run([]string{"bench", root(pair[0]), root(pair[1])}, &out); code != harness.ExitOK {
			t.Fatalf("inspect bench %s %s exited %d:\n%s", pair[0], pair[1], code, out.String())
		}
		if !strings.Contains(out.String(), "bench compare: no regressions across 16 cells") {
			t.Errorf("%s -> %s: no clean verdict:\n%s", pair[0], pair[1], out.String())
		}
	}

	entry := func(rep map[string]any, i int) map[string]any {
		return rep["entries"].([]any)[i].(map[string]any)
	}
	slower := doctorBench(t, func(rep map[string]any) {
		e := entry(rep, 3)
		e["ns_per_access"] = e["ns_per_access"].(float64) * 1.2
	})
	var out bytes.Buffer
	if code := run([]string{"bench", root("BENCH_4.json"), slower}, &out); code != harness.ExitRunFailed {
		t.Errorf("a cell 20%% slower exited %d, want run-failed:\n%s", code, out.String())
	}
	if got := out.String(); strings.Count(got, "REGRESSION") != 1 || !strings.Contains(got, "1/16 cells regressed") {
		t.Errorf("a cell 20%% slower: want exactly one REGRESSION row:\n%s", got)
	}

	for name, mutate := range map[string]func(rep map[string]any){
		"ipc 0":               func(rep map[string]any) { entry(rep, 5)["ipc"] = 0 },
		"empty workload":      func(rep map[string]any) { entry(rep, 0)["workload"] = "" },
		"timed_parallelism 2": func(rep map[string]any) { rep["timed_parallelism"] = 2 },
	} {
		bad := doctorBench(t, mutate)
		for _, args := range [][]string{{"bench", root("BENCH_4.json"), bad}, {"bench", bad, root("BENCH_4.json")}} {
			out.Reset()
			if code := run(args, &out); code != harness.ExitRunFailed {
				t.Errorf("%s: %v exited %d, want run-failed", name, args[1:], code)
			}
			if out.Len() != 0 {
				t.Errorf("%s: an invalid report printed a table:\n%s", name, out.String())
			}
		}
	}

	if code := run([]string{"bench", root("BENCH_4.json"), filepath.Join(t.TempDir(), "nope.json")}, new(bytes.Buffer)); code != harness.ExitRunFailed {
		t.Errorf("missing report exited %d, want run-failed", code)
	}
	if code := run([]string{"bench", root("BENCH_4.json")}, new(bytes.Buffer)); code != harness.ExitUsage {
		t.Errorf("one report exited %d, want usage", code)
	}
	if code := run([]string{"bench", root("BENCH_2.json"), root("BENCH_3.json"), root("BENCH_4.json")}, new(bytes.Buffer)); code != harness.ExitUsage {
		t.Errorf("three reports exited %d, want usage", code)
	}
}
