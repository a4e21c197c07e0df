package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"semloc/internal/cache"
)

// tinyConfig shrinks every workload to a fraction of a second while still
// running each phase and each check once.
func tinyConfig(t *testing.T, workload string) config {
	cfg := defaultConfig()
	cfg.workload = workload
	cfg.trace = true
	cfg.outDir = t.TempDir()
	cfg.measure = 300 * time.Millisecond
	cfg.simScale = 0.02
	cfg.serveScale = 0.02
	cfg.minPasses = 1
	cfg.tracedReps = 1
	cfg.replayK = 1
	cfg.setupReps = 1
	cfg.warmup = 100 * time.Millisecond
	cfg.tracedFor = 300 * time.Millisecond
	cfg.rate = 2000
	return cfg
}

var quiet = slog.New(slog.NewTextHandler(io.Discard, nil))

// daemonBin is prefetchd built from the parent module by TestMain.
var daemonBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	daemonBin = filepath.Join(dir, "prefetchd")
	out, err := exec.Command("go", "build", "-o", daemonBin, "semloc/cmd/prefetchd").CombinedOutput()
	code := 1
	if err != nil {
		fmt.Fprintf(os.Stderr, "building prefetchd: %v\n%s", err, out)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

func TestWorkloadsPassEveryCheck(t *testing.T) {
	for name := range workloadRuns {
		t.Run(name, func(t *testing.T) {
			cfg := tinyConfig(t, name)
			if strings.HasPrefix(name, "serve") {
				cfg.daemon = daemonBin
			}
			for _, traced := range []bool{false, true} {
				cfg.trace = traced
				_, err := measure(context.Background(), cfg, quiet)
				if err != nil && raceEnabled && strings.HasPrefix(err.Error(), "closure:") {
					// Race instrumentation slows this process's offline
					// replays but not the daemon's frames they add up to.
					t.Logf("trace=%v: %v (expected under -race)", traced, err)
					continue
				}
				if err != nil {
					t.Fatalf("trace=%v: %v", traced, err)
				}
			}
		})
	}
}

// Each doctored intermediate must fail the run.
func TestDoctoredInputsFailTheRun(t *testing.T) {
	cases := []struct {
		name, workload string
		doctor         doctor
		want           string
	}{
		{"cache response", "sim-context", doctor{recording: func(r *recording) {
			for i := range r.calls {
				if r.calls[i].kind == callPrefetch {
					r.calls[i].ret ^= 1
					return
				}
			}
			t.Error("recording holds no prefetch to doctor")
		}}, "cache replay"},
		{"done cycle", "sim-baseline", doctor{done: func(d []cache.Cycle) { d[len(d)/2] += 5000 }}, "cpu replay"},
		{"scrape", "serve-batch", doctor{scrape: func(s *scrape) { s.decisions++ }}, "count-match"},
		{"decision", "serve-single", doctor{decisions: func(h *uint64) { *h ^= 1 }}, "offline serve.Learner replay"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := tinyConfig(t, c.workload)
			if strings.HasPrefix(c.workload, "serve") {
				cfg.daemon = daemonBin
			}
			cfg.doctor = c.doctor
			_, err := measure(context.Background(), cfg, quiet)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("got error %v, want one mentioning %q", err, c.want)
			}
		})
	}
}

func TestQuantileIsExact(t *testing.T) {
	s := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := quantile(s, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

// The metrics the program reports are the ones BENCHMARK.json declares, in
// the same units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		declared []struct{ Name, Unit string }
		defs     []metricDef
	}{{bench.EndToEnd, endToEnd}, {bench.PerLayer, perLayer}} {
		want := map[string]string{}
		for _, m := range c.declared {
			want[m.Name] = m.Unit
		}
		got := map[string]string{}
		for _, d := range c.defs {
			got[d.name] = d.unit
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("program reports %v, BENCHMARK.json declares %v", got, want)
		}
	}
}

func TestReportNeedsEveryDeclaredMetric(t *testing.T) {
	out := &outcome{attempted: 1, metrics: map[string]float64{"host_ns_per_op": 1}}
	if _, err := report(out, endToEnd); err == nil || !strings.Contains(err.Error(), "setup_s") {
		t.Fatalf("report with missing metrics: %v", err)
	}
}
