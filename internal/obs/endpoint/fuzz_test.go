package endpoint

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net/http"
	"reflect"
	"testing"
)

// countingReader counts the bytes read through it.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// endless is a header line that never ends.
type endless struct{}

func (endless) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = 'x'
	}
	return len(p), nil
}

// FuzzRequestHead feeds arbitrary bytes to readRequestHead, the endpoint's
// one decoder of untrusted bytes. No input may panic. Followed by a line
// that never ends, no input may make it read past maxHeadBytes, and one
// that holds no blank line must be refused as too large. Every head that
// net/http's ReadRequest accepts as an HTTP/1.0 or 1.1 GET or HEAD must
// parse to the same method, path and query. The seeds are heads like those
// Go's client, curl, a Prometheus scraper and go tool pprof send, and a
// few that net/http refuses or that bend the syntax.
func FuzzRequestHead(f *testing.F) {
	for _, seed := range []string{
		"GET /debug/vars HTTP/1.1\r\nHost: 127.0.0.1:9090\r\nUser-Agent: Go-http-client/1.1\r\nAccept-Encoding: gzip\r\n\r\n",
		"HEAD /metrics HTTP/1.1\r\nHost: localhost:9090\r\nUser-Agent: curl/8.5.0\r\nAccept: */*\r\n\r\n",
		"GET /metrics HTTP/1.1\r\nHost: 10.0.0.5:9090\r\nUser-Agent: Prometheus/2.53.0\r\n" +
			"Accept: application/openmetrics-text;version=1.0.0;q=0.5,text/plain;version=0.0.4;q=0.2,*/*;q=0.1\r\n" +
			"Accept-Encoding: gzip\r\nX-Prometheus-Scrape-Timeout-Seconds: 10\r\n\r\n",
		"GET /debug/pprof/profile?seconds=1 HTTP/1.1\r\nHost: 127.0.0.1:9090\r\nUser-Agent: Go-http-client/1.1\r\n" +
			"Accept-Encoding: gzip\r\n\r\n",
		"GET /debug/pprof/heap?debug=1&gc=1 HTTP/1.0\r\n\r\n",
		"GET http://127.0.0.1:9090/healthz?a=%20b&a=c HTTP/1.1\r\nHost: x\r\n\r\n",
		"GET /readyz HTTP/1.1\nHost: x\n\n",
		"GET /x%2Fy HTTP/1.1\r\nFolded: a\r\n b\r\n\r\n",
		"POST /metrics HTTP/1.1\r\nHost: x\r\nContent-Length: 3\r\n\r\nabc",
		"GET * HTTP/1.1\r\n\r\n",
		"GET /metrics HTTP/2.0\r\n\r\n",
		"GET  /metrics HTTP/1.1\r\n\r\n",
		"\r\nGET /metrics HTTP/1.1\r\n\r\n",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		src := &countingReader{r: io.MultiReader(bytes.NewReader(data), endless{})}
		req, err := readRequestHead(src)
		if src.n > maxHeadBytes {
			t.Fatalf("read %d bytes, past the %d-byte bound", src.n, maxHeadBytes)
		}
		blank := bytes.HasPrefix(data, []byte("\n")) || bytes.HasPrefix(data, []byte("\r\n")) ||
			bytes.Contains(data, []byte("\n\n")) || bytes.Contains(data, []byte("\n\r\n"))
		if !blank && !errors.Is(err, errHeadTooLarge) {
			t.Fatalf("a head that never ends gave %v, want errHeadTooLarge", err)
		}

		hr, herr := http.ReadRequest(bufio.NewReader(bytes.NewReader(data)))
		if herr != nil || (hr.Method != "GET" && hr.Method != "HEAD") ||
			hr.ProtoMajor != 1 || hr.ProtoMinor > 1 || len(data) > maxHeadBytes {
			return
		}
		if err != nil {
			t.Fatalf("net/http reads %q as %s %s; readRequestHead refuses it: %v", data, hr.Method, hr.URL, err)
		}
		if req.method != hr.Method || req.path != hr.URL.Path || !reflect.DeepEqual(req.query, hr.URL.Query()) {
			t.Fatalf("%q: readRequestHead reads %s %s %v, net/http %s %s %v",
				data, req.method, req.path, req.query, hr.Method, hr.URL.Path, hr.URL.Query())
		}
	})
}
