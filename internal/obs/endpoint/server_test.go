package endpoint

import (
	"bytes"
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
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

	// The layout expvar's own handler writes, with its cmdline verbatim
	// (expvar is a test-only import here).
	if want := "{\n\"cmdline\": " + expvar.Get("cmdline").String() + ",\n\"memstats\": {"; !strings.HasPrefix(body, want) {
		t.Errorf("/debug/vars starts %.80q, want %.80q", body, want)
	}
	var mem struct{ Memstats runtime.MemStats }
	if err := json.Unmarshal([]byte(body), &mem); err != nil {
		t.Fatalf("/debug/vars memstats: %v", err)
	}
	if mem.Memstats.TotalAlloc == 0 {
		t.Errorf("/debug/vars memstats.TotalAlloc = 0")
	}
	if _, ok := vars["cmdline"].([]any); !ok {
		t.Errorf("/debug/vars cmdline = %v, want the argument list", vars["cmdline"])
	}

	if code, body := get(t, base+"/debug/pprof/cmdline"); code != 200 || body == "" {
		t.Errorf("/debug/pprof/cmdline = %d (len %d)", code, len(body))
	}
	if code, body := get(t, base+"/debug/pprof/"); code != 200 || !strings.Contains(body, "heap?debug=1") ||
		!strings.Contains(body, "goroutine?debug=1") {
		t.Errorf("/debug/pprof/ = %d, want an index listing heap and goroutine:\n%s", code, body)
	}
	if code, body := get(t, base+"/debug/pprof/heap?debug=1&gc=1"); code != 200 || !strings.HasPrefix(body, "heap profile:") {
		t.Errorf("/debug/pprof/heap?debug=1 = %d %.40q", code, body)
	}
	if code, body := get(t, base+"/debug/pprof/profile?seconds=1"); code != 200 || !strings.HasPrefix(body, "\x1f\x8b") {
		t.Errorf("/debug/pprof/profile?seconds=1 = %d %.40q, want gzip data", code, body)
	}
	if code, body := get(t, base+"/debug/pprof/trace?seconds=1"); code != 200 || body == "" {
		t.Errorf("/debug/pprof/trace?seconds=1 = %d (len %d)", code, len(body))
	}
	// The delta form of a named profile and the symbol lookup are not
	// served.
	if code, _ := get(t, base+"/debug/pprof/heap?seconds=5"); code != http.StatusBadRequest {
		t.Errorf("/debug/pprof/heap?seconds=5 = %d, want 400", code)
	}
	for _, path := range []string{"/nope", "/debug/pprof/nope", "/debug/pprof/symbol"} {
		if code, _ := get(t, base+path); code != http.StatusNotFound {
			t.Errorf("%s = %d, want 404", path, code)
		}
	}

	resp, err := http.Post(base+"/metrics", "text/plain", strings.NewReader("x"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed || resp.Header.Get("Allow") != "GET, HEAD" {
		t.Errorf("POST /metrics = %d, Allow %q; want 405, GET, HEAD", resp.StatusCode, resp.Header.Get("Allow"))
	}
	if got := exchange(t, srv.Addr(), "HEAD /healthz HTTP/1.1\r\nHost: x\r\n\r\n"); !strings.HasPrefix(got, "HTTP/1.1 200 OK\r\n") ||
		!strings.Contains(got, "Content-Length: 3\r\n") || !strings.HasSuffix(got, "\r\n\r\n") {
		t.Errorf("HEAD /healthz answered %q, want the headers of GET's 3-byte body and no body", got)
	}

	// A route that panics answers 500, and the server keeps serving.
	srv.Handle("/panics", func(*bytes.Buffer, url.Values) (string, error) { panic("boom") })
	if code, body := get(t, base+"/panics"); code != http.StatusInternalServerError || !strings.Contains(body, "boom") {
		t.Errorf("/panics = %d %q, want 500", code, body)
	}
	if code, _ := get(t, base+"/healthz"); code != 200 {
		t.Errorf("/healthz after a panicking route = %d", code)
	}
}

// exchange writes req to a fresh connection and returns everything the
// server sends before it ends the connection.
func exchange(t *testing.T, addr, req string) string {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.WriteString(c, req); err != nil {
		t.Fatalf("writing %.40q: %v", req, err)
	}
	got, err := io.ReadAll(c)
	if err != nil {
		t.Fatalf("reading the answer to %.40q: %v", req, err)
	}
	return string(got)
}

func TestServerRefusesBadHeads(t *testing.T) {
	srv, err := Serve("127.0.0.1:0", obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	long := "GET /metrics HTTP/1.1\r\nX-Long: " + strings.Repeat("a", 2*maxHeadBytes) + "\r\n\r\n"
	if got := exchange(t, srv.Addr(), long); !strings.HasPrefix(got, "HTTP/1.1 431 ") {
		t.Errorf("a %d-byte head answered %.60q, want 431", len(long), got)
	}
	if got := exchange(t, srv.Addr(), "GET /metrics\r\n\r\n"); !strings.HasPrefix(got, "HTTP/1.1 400 ") {
		t.Errorf("a request line without a version answered %.60q, want 400", got)
	}
}

func TestServerDropsSilentClient(t *testing.T) {
	if testing.Short() {
		t.Skip("waits out the read deadline")
	}
	srv, err := Serve("127.0.0.1:0", obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	start := time.Now()
	if got := exchange(t, srv.Addr(), ""); got != "" {
		t.Errorf("a client that sent nothing got %.60q", got)
	}
	if waited := time.Since(start); waited < readTimeout-100*time.Millisecond {
		t.Errorf("disconnected after %v, before the %v read deadline", waited, readTimeout)
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

	// A 30 s CPU profile is in flight too: Close ends it, and its client
	// gets what was recorded.
	profiling := make(chan struct{})
	srv.Handle("/debug/pprof/profile", func(buf *bytes.Buffer, q url.Values) (string, error) {
		close(profiling)
		return srv.cpuProfile(buf, q)
	})
	profile := make(chan error, 1)
	go func() {
		resp, err := http.Get(base + "/debug/pprof/profile?seconds=30")
		if err != nil {
			profile <- err
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err == nil && (resp.StatusCode != 200 || !bytes.HasPrefix(body, []byte("\x1f\x8b"))) {
			err = fmt.Errorf("%d %.40q, want 200 and gzip data", resp.StatusCode, body)
		}
		profile <- err
	}()
	<-profiling
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
	start := time.Now()
	if err := srv.Close(); err != nil {
		t.Errorf("close under load: %v", err)
	}
	if took := time.Since(start); took > closeGrace {
		t.Errorf("Close took %v, more than its %v grace", took, closeGrace)
	}
	close(stop)
	wg.Wait()
	if err := <-profile; err != nil {
		t.Errorf("the profile in flight at Close: %v", err)
	}

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
