package endpoint

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"semloc/internal/obs"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading %s: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

func TestServerEndpoints(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter(obs.MetricCellsDone, "done").Add(4)
	reg.Counter(obs.MetricCellsTotal, "total").Add(9)
	reg.Histogram(obs.MetricQueueWait, "queue wait", nil).Observe(0.02)
	srv, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	if code, body := get(t, base+"/healthz"); code != 200 || !strings.Contains(body, "ok") {
		t.Errorf("/healthz = %d %q", code, body)
	}
	if code, _ := get(t, base+"/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("/readyz before SetReady = %d, want 503", code)
	}
	srv.SetReady(true)
	if code, _ := get(t, base+"/readyz"); code != 200 {
		t.Errorf("/readyz after SetReady = %d, want 200", code)
	}

	code, body := get(t, base+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d", code)
	}
	for _, want := range []string{"cells_done 4", "cells_total 9", "queue_wait_seconds_count 1"} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}

	code, body = get(t, base+"/debug/vars")
	if code != 200 {
		t.Fatalf("/debug/vars = %d", code)
	}
	var vars map[string]any
	if err := json.Unmarshal([]byte(body), &vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v\n%s", err, body)
	}
	sl, ok := vars["semloc"].(map[string]any)
	if !ok {
		t.Fatalf("/debug/vars missing semloc section: %v", vars)
	}
	if sl["cells_done"] != float64(4) {
		t.Errorf("expvar cells_done = %v", sl["cells_done"])
	}

	if code, body := get(t, base+"/debug/pprof/cmdline"); code != 200 || body == "" {
		t.Errorf("/debug/pprof/cmdline = %d (len %d)", code, len(body))
	}
}

func TestServerLocalhostDefault(t *testing.T) {
	if got := localhostDefault(":1234"); got != "127.0.0.1:1234" {
		t.Errorf("localhostDefault(:1234) = %q", got)
	}
	if got := localhostDefault("0.0.0.0:1234"); got != "0.0.0.0:1234" {
		t.Errorf("explicit wildcard must be honoured, got %q", got)
	}
	if got := localhostDefault("example.com:80"); got != "example.com:80" {
		t.Errorf("explicit host must be honoured, got %q", got)
	}
	srv, err := Serve(":0", obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	host, _, err := net.SplitHostPort(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if host != "127.0.0.1" {
		t.Errorf("empty host bound %s, want loopback", host)
	}
}

// TestServerCloseUnderInflightScrapes shuts the server down while a pack
// of scrapers is mid-flight on every endpoint. Close must not panic, must
// come back, and must leave no serving goroutines behind — a prefetchd
// drain races its obs endpoint teardown against whatever Prometheus is
// doing at that instant. Run under -race (make race / obs-smoke).
func TestServerCloseUnderInflightScrapes(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter(obs.MetricCellsDone, "done").Add(1)
	baseline := runtime.NumGoroutine()

	srv, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	srv.SetReady(true)
	base := "http://" + srv.Addr()

	client := &http.Client{Timeout: 2 * time.Second}
	defer client.CloseIdleConnections()
	paths := []string{"/metrics", "/debug/vars", "/healthz", "/readyz"}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(path string) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := client.Get(base + path)
				if err != nil {
					return // server gone mid-request: expected after Close
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(paths[i%len(paths)])
	}

	// Let the scrapers get some requests genuinely in flight, then yank
	// the server out from under them.
	time.Sleep(20 * time.Millisecond)
	if err := srv.Close(); err != nil {
		t.Errorf("close under load: %v", err)
	}
	close(stop)
	wg.Wait()

	if _, err := client.Get(base + "/metrics"); err == nil {
		t.Error("server still answering after Close")
	}
	client.CloseIdleConnections()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d > baseline %d", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestServerCloseReleasesListener(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	if code, _ := get(t, fmt.Sprintf("http://%s/healthz", addr)); code != 200 {
		t.Fatalf("/healthz = %d", code)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// After Close the port must be refusing connections (no listener leak),
	// and rebinding the same port must succeed.
	if conn, err := net.DialTimeout("tcp", addr, 200*time.Millisecond); err == nil {
		conn.Close()
		t.Error("listener still accepting after Close")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("port not released after Close: %v", err)
	}
	ln.Close()
}
