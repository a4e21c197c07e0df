package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"semloc/internal/serve"
)

// daemon is one prefetchd process started by the benchmark.
type daemon struct {
	cmd     *exec.Cmd
	dir     string
	addr    string // serving socket
	obsAddr string // /metrics, /debug/vars
	started time.Time
	waited  chan error
	stopped bool
}

// startDaemon execs prefetchd with loopback sockets and its files in a
// fresh directory under outDir, and returns once the serving socket
// listens, with the time that took from exec.
func startDaemon(bin, outDir string, extra ...string) (*daemon, time.Duration, error) {
	dir, err := os.MkdirTemp(outDir, "daemon-")
	if err != nil {
		return nil, 0, err
	}
	stderr, err := os.Create(filepath.Join(dir, "stderr.log"))
	if err != nil {
		return nil, 0, err
	}
	defer stderr.Close()
	addrFile := filepath.Join(dir, "addr")
	args := append([]string{
		"-listen", "127.0.0.1:0", "-addr-file", addrFile,
		"-obs-listen", "127.0.0.1:0", "-obs-addr-file", filepath.Join(dir, "obs-addr"),
		"-q",
	}, extra...)
	d := &daemon{cmd: exec.Command(bin, args...), dir: dir, waited: make(chan error, 1)}
	d.cmd.Stderr = stderr
	start := time.Now()
	d.started = start
	if err := d.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("starting prefetchd: %w", err)
	}
	go func() { d.waited <- d.cmd.Wait() }()
	deadline := start.Add(10 * time.Second)
	for {
		b, err := os.ReadFile(addrFile)
		if err == nil && bytes.HasSuffix(b, []byte("\n")) {
			d.addr = strings.TrimSpace(string(b))
			break
		}
		select {
		case err := <-d.waited:
			d.stopped = true
			return nil, 0, fmt.Errorf("prefetchd exited before listening: %v%s", err, d.logTail())
		default:
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, 0, fmt.Errorf("prefetchd not listening after 10s%s", d.logTail())
		}
		time.Sleep(100 * time.Microsecond)
	}
	ready := time.Since(start)
	// The observability address is written before the serving socket opens.
	b, err := os.ReadFile(filepath.Join(dir, "obs-addr"))
	if err != nil {
		d.stop()
		return nil, 0, err
	}
	d.obsAddr = strings.TrimSpace(string(b))
	return d, ready, nil
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// stop drains the daemon with SIGTERM and waits for it to exit; a daemon
// that does not exit within 10 s is killed. Only a clean drain (exit 0) is
// a success. Safe to call more than once.
func (d *daemon) stop() error {
	if d.stopped {
		return nil
	}
	d.stopped = true
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return fmt.Errorf("signalling prefetchd: %w", err)
	}
	select {
	case err := <-d.waited:
		if err != nil {
			return fmt.Errorf("prefetchd drain: %v%s", err, d.logTail())
		}
		return nil
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-d.waited
		return fmt.Errorf("prefetchd did not drain within 10s; killed")
	}
}

func (d *daemon) logTail() string {
	b, _ := os.ReadFile(filepath.Join(d.dir, "stderr.log")) // best effort, for the error message
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	if len(b) == 0 {
		return ""
	}
	return "; stderr: " + string(b)
}

// histSum is one expvar histogram's count and sum (seconds, or items for
// serve_batch_size).
type histSum struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
}

// scrape is the part of the daemon's /debug/vars the benchmark checks and
// reports.
type scrape struct {
	decisions, degraded, busy, replayed, coalesced uint64
	stages                                         map[string]histSum // serve_*_latency
	batchSize                                      histSum
}

var stageMetrics = []string{
	serve.MetricDecodeLatency, serve.MetricQueueWaitLatency,
	serve.MetricDecideLatency, serve.MetricWriteLatency, serve.MetricFrameLatency,
}

// scrapeDaemon reads /debug/vars until the count-match invariant settles
// (the workers observe a reply's latency just after writing it, so the last
// decisions can trail the counter briefly) or 5 s pass, and returns the
// last reading.
func scrapeDaemon(obsAddr string) (*scrape, error) {
	hc := &http.Client{Transport: &http.Transport{}, Timeout: 5 * time.Second}
	defer hc.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s, err := scrapeOnce(hc, obsAddr)
		if err != nil {
			return nil, err
		}
		if s.countMatch() == nil || time.Now().After(deadline) {
			return s, nil
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func scrapeOnce(hc *http.Client, obsAddr string) (*scrape, error) {
	resp, err := hc.Get("http://" + obsAddr + "/debug/vars")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var vars struct {
		Semloc map[string]json.RawMessage `json:"semloc"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		return nil, fmt.Errorf("parsing /debug/vars: %w", err)
	}
	counter := func(name string) (uint64, error) {
		var v uint64
		raw, ok := vars.Semloc[name]
		if !ok {
			return 0, fmt.Errorf("/debug/vars has no %s", name)
		}
		return v, json.Unmarshal(raw, &v)
	}
	hist := func(name string) (histSum, error) {
		var h histSum
		raw, ok := vars.Semloc[name]
		if !ok {
			return h, fmt.Errorf("/debug/vars has no %s", name)
		}
		return h, json.Unmarshal(raw, &h)
	}
	s := &scrape{stages: map[string]histSum{}}
	for name, dst := range map[string]*uint64{
		"serve_decisions_total":        &s.decisions,
		"serve_degraded_total":         &s.degraded,
		"serve_busy_total":             &s.busy,
		"serve_replayed_total":         &s.replayed,
		"serve_coalesced_writes_total": &s.coalesced,
	} {
		if *dst, err = counter(name); err != nil {
			return nil, err
		}
	}
	for _, name := range stageMetrics {
		if s.stages[name], err = hist(name); err != nil {
			return nil, err
		}
	}
	if s.batchSize, err = hist(serve.MetricBatchSize); err != nil {
		return nil, err
	}
	return s, nil
}

// countMatch checks the serving count-match invariant: every stage
// histogram observed each fresh decision once, and the batch-size sum adds
// up to them too.
func (s *scrape) countMatch() error {
	for _, name := range stageMetrics {
		if c := s.stages[name].Count; c != s.decisions {
			return fmt.Errorf("count-match: %s count %d != serve_decisions_total %d", name, c, s.decisions)
		}
	}
	if sum := uint64(s.batchSize.Sum + 0.5); sum != s.decisions {
		return fmt.Errorf("count-match: serve_batch_size sum %d != serve_decisions_total %d", sum, s.decisions)
	}
	return nil
}

// check adds to countMatch that the daemon served exactly the decisions
// the client received, none of them shed, refused or replayed.
func (s *scrape) check(clientDecisions uint64) error {
	if err := s.countMatch(); err != nil {
		return err
	}
	if s.decisions != clientDecisions {
		return fmt.Errorf("count-match: serve_decisions_total %d != %d decisions received by the client", s.decisions, clientDecisions)
	}
	if s.degraded+s.busy+s.replayed != 0 {
		return fmt.Errorf("daemon shed load: degraded %d, busy %d, replayed %d", s.degraded, s.busy, s.replayed)
	}
	return nil
}

// perDecisionNS returns a stage histogram's sum in ns per decision.
func (s *scrape) perDecisionNS(name string) float64 {
	if s.decisions == 0 {
		return 0
	}
	return s.stages[name].Sum * 1e9 / float64(s.decisions)
}
