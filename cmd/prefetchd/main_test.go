package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"semloc/internal/core"
	"semloc/internal/obs"
	"semloc/internal/serve"
	"semloc/internal/serve/client"
)

func buildDaemon(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "prefetchd")
	// Race-instrumented so the daemon process itself is under the
	// detector during the SIGTERM drain, not just this test harness.
	cmd := exec.Command("go", "build", "-race", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building prefetchd: %v\n%s", err, out)
	}
	return bin
}

// daemon is one running prefetchd child process.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	exited chan struct{} // closed once the child's only Wait has returned
	err    error         // Wait's result, set before exited closes
}

// startDaemon launches the binary and waits for its -addr-file. A cleanup
// kills and reaps the child if the test ends with it still running, so a
// failing assertion never leaves a daemon behind.
func startDaemon(t *testing.T, bin string, extra ...string) *daemon {
	t.Helper()
	addrFile := filepath.Join(t.TempDir(), "addr")
	args := append([]string{"-listen", "127.0.0.1:0", "-addr-file", addrFile, "-q"}, extra...)
	d := &daemon{cmd: exec.Command(bin, args...), exited: make(chan struct{})}
	d.cmd.Stderr = os.Stderr
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		d.err = d.cmd.Wait()
		close(d.exited)
	}()
	t.Cleanup(func() {
		select {
		case <-d.exited:
		default:
			d.cmd.Process.Kill()
			<-d.exited
		}
	})
	deadline := time.Now().Add(10 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			d.addr = strings.TrimSpace(string(b))
			return d
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon never wrote its addr file")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// waitExit waits for the daemon to exit 0 after a SIGTERM.
func waitExit(t *testing.T, d *daemon) {
	t.Helper()
	select {
	case <-d.exited:
		if d.err != nil {
			t.Fatalf("daemon exited non-zero after SIGTERM: %v", d.err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("daemon did not drain within 15s of SIGTERM")
	}
}

func sigtermAndWait(t *testing.T, d *daemon) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitExit(t, d)
}

// TestSigtermDrainWarmStart is the process-level durability contract:
// SIGTERM mid-stream exits 0 after writing the final snapshot, and the
// restarted process resumes the session bit-identically to a never-killed
// in-process learner.
func TestSigtermDrainWarmStart(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon binary")
	}
	bin := buildDaemon(t)
	snap := filepath.Join(t.TempDir(), "prefetchd.snap")

	ref, err := serve.NewLearner(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	frame := func(i uint64) *serve.Frame {
		return &serve.Frame{Type: serve.FrameAccess, Seq: i, PC: 0x400000,
			Addr: 0x200000 + (i%256)*64}
	}
	// reference is the in-process learner's decision for access i.
	reference := func(i uint64) *serve.Frame {
		a := frame(i).Access()
		pf, sh := ref.DecideAccess(&a)
		return &serve.Frame{Prefetch: pf, Shadow: sh}
	}
	const split, total = 500, 1000

	d1 := startDaemon(t, bin, "-snapshot", snap)
	c1, err := client.Dial(client.Config{Addr: client.FixedAddr(d1.addr), Session: "smoke"})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= split; i++ {
		want := reference(i)
		got, err := c1.Decide(frame(i))
		if err != nil {
			t.Fatalf("seq %d: %v", i, err)
		}
		if !serve.SameDecision(got, want) {
			t.Fatalf("seq %d: daemon diverged from in-process reference", i)
		}
	}
	c1.Close()
	sigtermAndWait(t, d1)
	if _, err := os.Stat(snap); err != nil {
		t.Fatalf("no snapshot after drain: %v", err)
	}

	d2 := startDaemon(t, bin, "-snapshot", snap)
	defer func() { sigtermAndWait(t, d2) }()
	c2, err := client.Dial(client.Config{Addr: client.FixedAddr(d2.addr), Session: "smoke"})
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if !c2.Resumed() || c2.ServerSeq() != split {
		t.Fatalf("warm start: resumed=%v serverSeq=%d, want true/%d", c2.Resumed(), c2.ServerSeq(), split)
	}
	for i := uint64(split + 1); i <= total; i++ {
		want := reference(i)
		got, err := c2.Decide(frame(i))
		if err != nil {
			t.Fatalf("seq %d: %v", i, err)
		}
		if !serve.SameDecision(got, want) {
			t.Fatalf("post-restart seq %d diverged from uninterrupted reference", i)
		}
	}
}

// TestObservabilityAndDrainReadiness exercises the daemon's observability
// surface end to end at the process level: the serve_*_latency histograms
// on /metrics (whose counts must equal serve_decisions_total), the
// /debug/serve per-session stats endpoint, the sampled-span file written
// on drain — and the readiness contract: /readyz serves 200 while up,
// then 503 during the -drain-grace window after SIGTERM, before the
// process exits 0.
func TestObservabilityAndDrainReadiness(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon binary")
	}
	bin := buildDaemon(t)
	dir := t.TempDir()
	obsAddrFile := filepath.Join(dir, "obs-addr")
	spansFile := filepath.Join(dir, "spans.json")

	d := startDaemon(t, bin,
		"-obs-listen", "127.0.0.1:0", "-obs-addr-file", obsAddrFile,
		"-spans", spansFile, "-trace-sample", "1",
		"-drain-grace", "2s")

	var obsAddr string
	deadline := time.Now().Add(10 * time.Second)
	for obsAddr == "" {
		if b, err := os.ReadFile(obsAddrFile); err == nil && len(b) > 0 {
			obsAddr = strings.TrimSpace(string(b))
		} else if time.Now().After(deadline) {
			t.Fatal("daemon never wrote its obs addr file")
		} else {
			time.Sleep(20 * time.Millisecond)
		}
	}
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get("http://" + obsAddr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: reading body: %v", path, err)
		}
		return resp.StatusCode, string(b)
	}

	if code, _ := get("/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz while serving: %d, want 200", code)
	}

	const n = 64
	c, err := client.Dial(client.Config{Addr: client.FixedAddr(d.addr), Session: "obs"})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= n; i++ {
		if _, err := c.Decide(&serve.Frame{Type: serve.FrameAccess, Seq: i,
			PC: 0x400000, Addr: 0x300000 + (i%128)*64}); err != nil {
			t.Fatalf("seq %d: %v", i, err)
		}
	}

	// /metrics: every stage histogram's count equals serve_decisions_total.
	// The worker observes after writing the reply, so the final frame's
	// observation can trail the client's receive by a moment — poll.
	names := []string{
		serve.MetricDecodeLatency, serve.MetricQueueWaitLatency,
		serve.MetricDecideLatency, serve.MetricWriteLatency, serve.MetricFrameLatency,
	}
	var metrics string
	deadline = time.Now().Add(5 * time.Second)
	for {
		_, metrics = get("/metrics")
		settled := strings.Contains(metrics, fmt.Sprintf("serve_decisions_total %d", n))
		for _, name := range names {
			settled = settled && strings.Contains(metrics, fmt.Sprintf("%s_count %d", name, n))
		}
		if settled {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/metrics never settled at %d decisions with matching histogram counts:\n%s", n, metrics)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// /debug/serve: our session's stats as JSON.
	_, body := get("/debug/serve")
	var stats []serve.SessionStats
	if err := json.Unmarshal([]byte(body), &stats); err != nil {
		t.Fatalf("/debug/serve not JSON: %v\n%s", err, body)
	}
	if len(stats) != 1 || stats[0].ID != "obs" || stats[0].Decisions != n || stats[0].LastSeq != n {
		t.Fatalf("/debug/serve stats: %+v", stats)
	}
	c.Close()

	// SIGTERM: readiness must flip to 503 during the drain-grace window,
	// while the process is still alive.
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	sawDraining := false
	deadline = time.Now().Add(5 * time.Second)
	for !sawDraining && time.Now().Before(deadline) {
		resp, err := http.Get("http://" + obsAddr + "/readyz")
		if err != nil {
			break // obs endpoint already down: drain finished too fast
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			sawDraining = true
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !sawDraining {
		t.Fatal("never observed /readyz 503 during the drain-grace window")
	}

	waitExit(t, d)

	// The span file written on drain holds serve-category request spans
	// with the four-stage breakdown — the format `inspect spans` renders.
	f, err := os.Open(spansFile)
	if err != nil {
		t.Fatalf("no span file after drain: %v", err)
	}
	defer f.Close()
	spans, err := obs.ReadChromeTrace(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != n { // -trace-sample 1: every decision sampled
		t.Fatalf("%d spans in file, want %d", len(spans), n)
	}
	for _, sp := range spans {
		if sp.Cat != obs.CatServe || sp.Workload != "obs" || len(sp.Phases) != 4 {
			t.Fatalf("bad serve span in file: %+v", sp)
		}
	}
}

// TestBootRefusesUnverifiableSnapshot boots the daemon on a snapshot with
// one payload digit changed and on a schema-1 snapshot (SHA-256): each
// must exit 1 before serving, naming what it refused, and leave the file
// for the operator to delete.
func TestBootRefusesUnverifiableSnapshot(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon binary")
	}
	bin := buildDaemon(t)
	dir := t.TempDir()
	l, err := serve.NewLearner(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	snap := &serve.Snapshot{Sessions: []serve.SessionSnapshot{{ID: "s", Learner: l.Save()}}}
	good := filepath.Join(dir, "good.snap")
	if err := serve.SaveSnapshot(good, snap); err != nil {
		t.Fatal(err)
	}
	if _, err := serve.LoadSnapshot(good); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), raw...)
	for i := strings.Index(string(flipped), `"payload":`); i < len(flipped); i++ {
		if flipped[i] >= '1' && flipped[i] <= '8' {
			flipped[i]++
			break
		}
	}
	if string(flipped) == string(raw) {
		t.Fatal("snapshot payload has no digit to flip")
	}
	payload, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(payload)
	schema1 := fmt.Appendf(nil, `{"schema":1,"sha256":%q,"payload":%s}`, hex.EncodeToString(sum[:]), payload)

	for _, tc := range []struct {
		name, want string
		file       []byte
	}{
		{"flipped.snap", "snapshot checksum mismatch", flipped},
		{"schema1.snap", "snapshot schema 1, want 2: this daemon cannot verify it; delete the file to cold-start", schema1},
	} {
		p := filepath.Join(dir, tc.name)
		if err := os.WriteFile(p, tc.file, 0o644); err != nil {
			t.Fatal(err)
		}
		// A daemon that boots serves until killed: the deadline ends it.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		out, err := exec.CommandContext(ctx, bin, "-listen", "127.0.0.1:0", "-snapshot", p).CombinedOutput()
		cancel()
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
			t.Errorf("%s: want exit 1, got %v\n%s", tc.name, err, out)
		}
		if !strings.Contains(string(out), tc.want) {
			t.Errorf("%s: output does not say %q:\n%s", tc.name, tc.want, out)
		}
		if b, err := os.ReadFile(p); err != nil || string(b) != string(tc.file) {
			t.Errorf("%s: the refused snapshot changed or went: %v", tc.name, err)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon binary")
	}
	bin := buildDaemon(t)
	for _, args := range [][]string{
		{"-bogus-flag"},
		{"stray-positional"},
	} {
		err := exec.Command(bin, args...).Run()
		ee, ok := err.(*exec.ExitError)
		if !ok || ee.ExitCode() != 2 {
			t.Fatalf("args %v: want exit 2, got %v", args, err)
		}
	}
}
