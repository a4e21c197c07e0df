// Package endpoint holds the parts of the observability layer that need a
// listener or the runtime profiler: the metrics endpoint (Serve), the live
// bundle the run commands share (StartLive) and the pprof file hooks
// (StartProfiles). They live apart from obs so that core, sim and exp,
// which import obs for its collector and registry, link no net or
// runtime/pprof: a program that only simulates carries neither. The
// endpoint speaks the part of HTTP/1.1 its routes need on net itself, so a
// program that serves it links no net/http, crypto/tls or expvar either
// (TestInternalImportRule keeps both so).
package endpoint

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/textproto"
	"net/url"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"semloc/internal/obs"
)

const (
	// maxHeadBytes bounds a request head, the request line and every
	// header together. Go's client, curl and a Prometheus scraper send a
	// few hundred bytes.
	maxHeadBytes = 8 << 10
	// readTimeout bounds the wait for a whole request head.
	readTimeout = 5 * time.Second
	// closeGrace is how long Close lets in-flight requests finish before
	// it closes their connections.
	closeGrace = 2 * time.Second
	// lingerTimeout bounds how long an error reply to a request that was
	// not read through waits for the client to stop sending.
	lingerTimeout = 500 * time.Millisecond

	textPlain = "text/plain; charset=utf-8"
)

// Render writes the body of one route's response into buf and returns its
// Content-Type; query is the request's parsed query string. An error
// answers 500 with its text (the endpoint's own routes answer other
// statuses through statusError). A panic answers 500 too.
type Render func(buf *bytes.Buffer, query url.Values) (contentType string, err error)

// statusError is a route's answer other than 200: its status and text.
type statusError struct {
	code int
	msg  string
}

func (e *statusError) Error() string { return e.msg }

var statusText = map[int]string{
	200: "OK",
	400: "Bad Request",
	404: "Not Found",
	405: "Method Not Allowed",
	431: "Request Header Fields Too Large",
	500: "Internal Server Error",
	503: "Service Unavailable",
}

// Server exposes a registry over HTTP/1.1 for the duration of one command
// invocation:
//
//	/metrics       Prometheus text exposition of the registry
//	/debug/vars    expvar-style JSON: cmdline, memstats, then the registry
//	/healthz       liveness: 200 once the listener is up
//	/readyz        readiness: 503 until SetReady(true), 200 after
//	/debug/pprof/  the runtime profiles (profile.go)
//
// It serves one request per connection: it reads a head of at most
// maxHeadBytes within readTimeout, answers GET and HEAD by rendering the
// body into a buffer, writes it with Content-Length and Connection: close,
// and closes the connection. Other methods get 405.
//
// Security note: an empty host in the listen address (":9090") is
// rewritten to 127.0.0.1 — the endpoint exposes pprof and internal
// counters, so it must be opted onto the network explicitly by naming a
// non-loopback bind address (e.g. 0.0.0.0:9090).
type Server struct {
	ln    net.Listener
	reg   *obs.Registry
	ready atomic.Bool
	stop  chan struct{} // closed by Close: ends running profiles and traces
	wg    sync.WaitGroup

	mu     sync.Mutex // guards routes, conns and closed
	routes map[string]Render
	conns  map[net.Conn]struct{}
	closed bool
}

// localhostDefault rewrites a listen address with an empty host
// (":9090") to bind loopback only.
func localhostDefault(listen string) string {
	host, port, err := net.SplitHostPort(listen)
	if err != nil {
		return listen // let net.Listen produce the real error
	}
	if host == "" {
		return net.JoinHostPort("127.0.0.1", port)
	}
	return listen
}

// Serve binds the listen address (":0" picks an ephemeral port; an empty
// host means loopback) and starts serving the registry. The caller owns
// the returned server and must Close it; Close is what guarantees the
// listener and the serving goroutines are gone.
func Serve(listen string, reg *obs.Registry) (*Server, error) {
	ln, err := net.Listen("tcp", localhostDefault(listen))
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", listen, err)
	}
	s := &Server{ln: ln, reg: reg, stop: make(chan struct{}), conns: map[net.Conn]struct{}{}}
	s.routes = map[string]Render{
		"/metrics": func(buf *bytes.Buffer, _ url.Values) (string, error) {
			return "text/plain; version=0.0.4; charset=utf-8", reg.WritePrometheus(buf)
		},
		"/debug/vars": s.vars,
		"/healthz": func(buf *bytes.Buffer, _ url.Values) (string, error) {
			buf.WriteString("ok\n")
			return textPlain, nil
		},
		"/readyz": func(buf *bytes.Buffer, _ url.Values) (string, error) {
			if !s.ready.Load() {
				return "", &statusError{503, "not ready"}
			}
			buf.WriteString("ok\n")
			return textPlain, nil
		},
		"/debug/pprof/":        pprofIndex,
		"/debug/pprof/cmdline": pprofCmdline,
		"/debug/pprof/profile": s.cpuProfile,
		"/debug/pprof/trace":   s.execTrace,
	}
	s.wg.Add(1)
	go s.accept()
	return s, nil
}

// vars renders /debug/vars as expvar renders its two standard vars,
// cmdline and memstats, followed by the registry under "semloc".
// Rendering by hand links no expvar and keeps several servers in one
// process (tests) off expvar's global namespace.
func (s *Server) vars(buf *bytes.Buffer, _ url.Values) (string, error) {
	cmdline, _ := json.Marshal(os.Args) // a []string always marshals
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	memstats, err := json.Marshal(ms)
	if err != nil {
		return "", err
	}
	regJSON, err := json.Marshal(s.reg.ExpvarMap())
	if err != nil {
		regJSON = []byte("{}")
	}
	fmt.Fprintf(buf, "{\n\"cmdline\": %s,\n\"memstats\": %s,\n\"semloc\": %s\n}\n", cmdline, memstats, regJSON)
	return "application/json; charset=utf-8", nil
}

// Addr returns the bound address (host:port), useful with ":0".
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Handle adds a route (e.g. prefetchd's /debug/serve session stats) that
// answers GET and HEAD of path with render's output. It is safe to call
// while the server runs; the usual pattern is to call it between Serve
// and the first request.
func (s *Server) Handle(path string, render Render) {
	s.mu.Lock()
	s.routes[path] = render
	s.mu.Unlock()
}

// SetReady flips the /readyz state (the commands mark ready once their
// runner is constructed and jobs are submitted).
func (s *Server) SetReady(ready bool) { s.ready.Store(ready) }

// Close stops accepting and ends any running profile or trace, whose
// clients then get what was recorded so far. It gives in-flight requests
// closeGrace to finish, closes the connections still open after it, and
// returns once every goroutine of the server has exited, with an error if
// the grace ran out. A second Close does nothing.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	err := s.ln.Close()
	close(s.stop)

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	grace := time.NewTimer(closeGrace)
	defer grace.Stop()
	select {
	case <-done:
		return err
	case <-grace.C:
	}
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	<-done
	return errors.Join(err, fmt.Errorf("obs: endpoint requests still in flight after %v; their connections were closed", closeGrace))
}

// accept runs the accept loop until Close closes the listener.
func (s *Server) accept() {
	defer s.wg.Done()
	for {
		c, err := s.ln.Accept()
		if errors.Is(err, net.ErrClosed) {
			return
		}
		if err != nil {
			// Out of file descriptors, say: back off and retry, as
			// net/http does, rather than stop serving.
			time.Sleep(10 * time.Millisecond)
			continue
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return
		}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(c)
	}
}

// serveConn answers the one request c carries and closes c.
func (s *Server) serveConn(c net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		c.Close()
	}()
	c.SetReadDeadline(time.Now().Add(readTimeout))
	req, err := readRequestHead(c)
	var (
		code  int
		ctype string
		body  []byte
	)
	switch {
	case errors.Is(err, errHeadTooLarge):
		code, ctype, body = plain(431, err.Error())
	case errors.Is(err, errMalformedHead):
		code, ctype, body = plain(400, err.Error())
	case err != nil:
		return // the client went away, or sent no head in time
	case req.method != "GET" && req.method != "HEAD":
		code, ctype, body = plain(405, "method not allowed")
	default:
		code, ctype, body = s.respond(req)
	}
	if writeResponse(c, code, ctype, body, req.method != "HEAD") != nil {
		return
	}
	if err != nil || code == 405 {
		linger(c)
	}
}

// respond renders the route the request names.
func (s *Server) respond(req request) (code int, contentType string, body []byte) {
	s.mu.Lock()
	render, ok := s.routes[req.path]
	s.mu.Unlock()
	if !ok {
		name, isProfile := strings.CutPrefix(req.path, "/debug/pprof/")
		if !isProfile {
			return plain(404, "404 page not found")
		}
		render = namedProfile(name)
	}
	var buf bytes.Buffer
	ctype, err := safeRender(render, &buf, req.query)
	if err != nil {
		var se *statusError
		if errors.As(err, &se) {
			return plain(se.code, se.msg)
		}
		return plain(500, err.Error())
	}
	return 200, ctype, buf.Bytes()
}

// safeRender runs render, answering a panic as an error: one failing
// route must not end the program it observes.
func safeRender(render Render, buf *bytes.Buffer, query url.Values) (ctype string, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("obs: endpoint route panicked: %v", p)
		}
	}()
	return render(buf, query)
}

func plain(code int, msg string) (int, string, []byte) {
	return code, textPlain, []byte(msg + "\n")
}

// writeResponse writes the status line, the headers and, unless withBody
// is false (HEAD), the body in one vectored write.
func writeResponse(c net.Conn, code int, contentType string, body []byte, withBody bool) error {
	var head bytes.Buffer
	fmt.Fprintf(&head, "HTTP/1.1 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: close\r\n",
		code, statusText[code], contentType, len(body))
	if code == 405 {
		head.WriteString("Allow: GET, HEAD\r\n")
	}
	head.WriteString("\r\n")
	bufs := net.Buffers{head.Bytes()}
	if withBody {
		bufs = append(bufs, body)
	}
	_, err := bufs.WriteTo(c)
	return err
}

// linger half-closes c and discards what the client still sends, until it
// closes or lingerTimeout passes: closing a connection with unread bytes
// resets it, and the reset can discard the reply before the client reads
// it.
func linger(c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok {
		tc.CloseWrite()
	}
	c.SetReadDeadline(time.Now().Add(lingerTimeout))
	io.Copy(io.Discard, c)
}

// request is what the endpoint reads of a request head: the method, and
// the path and query of the target.
type request struct {
	method, path string
	query        url.Values
}

var (
	errHeadTooLarge  = errors.New("request head too large")
	errMalformedHead = errors.New("malformed request head")
)

// readRequestHead reads one request head from r: the request line and the
// header lines up to the blank line. It reads no more than maxHeadBytes
// from r, so a longer head is refused (errHeadTooLarge) without being
// buffered whole. The request line is split as net/http splits it and the
// target parsed with url.ParseRequestURI; the headers are skipped, since
// no route reads one. A head that is not HTTP/1.0 or 1.1 is
// errMalformedHead; any other error is r's.
func readRequestHead(r io.Reader) (request, error) {
	lr := &io.LimitedReader{R: r, N: maxHeadBytes}
	tp := textproto.NewReader(bufio.NewReader(lr))
	line, err := tp.ReadLine()
	for h := line; err == nil && h != ""; {
		h, err = tp.ReadLine()
	}
	if err != nil {
		if lr.N == 0 {
			return request{}, errHeadTooLarge
		}
		return request{}, err
	}
	method, rest, ok1 := strings.Cut(line, " ")
	target, proto, ok2 := strings.Cut(rest, " ")
	if !ok1 || !ok2 || (proto != "HTTP/1.1" && proto != "HTTP/1.0") {
		return request{}, errMalformedHead
	}
	u, err := url.ParseRequestURI(target)
	if err != nil {
		return request{}, errMalformedHead
	}
	return request{method: method, path: u.Path, query: u.Query()}, nil
}
