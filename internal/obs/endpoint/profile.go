package endpoint

import (
	"bytes"
	"errors"
	"fmt"
	"net/url"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"strconv"
	"strings"
	"time"
)

// StartProfiles enables cmd/experiments' pprof hooks: a CPU profile
// written for the whole invocation and a heap profile captured at stop
// time. Either path may be empty. The returned stop function must be
// called exactly once (defer it); it finishes both profiles
// unconditionally — the CPU profile is always stopped and its file closed
// even when the heap path turns out to be unwritable — and reports every
// failure, joined with errors.Join so a bad heap path cannot mask a
// CPU-profile write error (or vice versa).
//
// Together with the telemetry series these close the observability loop:
// the overhead guard and perfbench detect a hot-path regression, the
// profiles say where it lives.
func StartProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("obs: cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("obs: cpu profile: %w", err)
		}
	}
	return func() error {
		var errs []error
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				errs = append(errs, fmt.Errorf("obs: cpu profile: %w", err))
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				errs = append(errs, fmt.Errorf("obs: mem profile: %w", err))
			} else {
				runtime.GC() // settle live objects before the heap snapshot
				if err := pprof.WriteHeapProfile(f); err != nil {
					errs = append(errs, fmt.Errorf("obs: mem profile: %w", err))
				}
				if err := f.Close(); err != nil {
					errs = append(errs, fmt.Errorf("obs: mem profile: %w", err))
				}
			}
		}
		return errors.Join(errs...)
	}, nil
}

// The endpoint's pprof routes, built on runtime/pprof and runtime/trace:
// the index, the command line, a CPU profile and an execution trace over
// ?seconds=, and every runtime/pprof profile by name with ?debug= and
// ?gc=. They answer as net/http/pprof does, except that neither the delta
// form of a named profile (?seconds= on heap, allocs, ...) nor the symbol
// lookup is served: both are built on net/http internals.

func pprofIndex(buf *bytes.Buffer, _ url.Values) (string, error) {
	buf.WriteString("<html><head><title>/debug/pprof/</title></head><body>\n<p>Profiles (count, name):</p>\n<table>\n")
	for _, p := range pprof.Profiles() {
		fmt.Fprintf(buf, "<tr><td align=right>%d</td><td><a href=\"%s?debug=1\">%s</a></td></tr>\n", p.Count(), p.Name(), p.Name())
	}
	buf.WriteString("</table>\n<p><a href=\"cmdline\">cmdline</a>, " +
		"<a href=\"profile\">profile</a> (CPU, ?seconds=30), " +
		"<a href=\"trace?seconds=1\">trace</a> (?seconds=1), " +
		"<a href=\"goroutine?debug=2\">full goroutine stack dump</a></p>\n</body></html>\n")
	return "text/html; charset=utf-8", nil
}

func pprofCmdline(buf *bytes.Buffer, _ url.Values) (string, error) {
	buf.WriteString(strings.Join(os.Args, "\x00"))
	return textPlain, nil
}

// cpuProfile records a CPU profile for ?seconds= (default 30), or until
// Close.
func (s *Server) cpuProfile(buf *bytes.Buffer, q url.Values) (string, error) {
	sec, err := strconv.ParseInt(q.Get("seconds"), 10, 64)
	if sec <= 0 || err != nil {
		sec = 30
	}
	if err := pprof.StartCPUProfile(buf); err != nil {
		return "", fmt.Errorf("could not enable CPU profiling: %w", err)
	}
	s.sleep(time.Duration(sec) * time.Second)
	pprof.StopCPUProfile()
	return "application/octet-stream", nil
}

// execTrace records an execution trace for ?seconds= (default 1), or until
// Close.
func (s *Server) execTrace(buf *bytes.Buffer, q url.Values) (string, error) {
	sec, err := strconv.ParseFloat(q.Get("seconds"), 64)
	if sec <= 0 || err != nil {
		sec = 1
	}
	if err := trace.Start(buf); err != nil {
		return "", fmt.Errorf("could not enable tracing: %w", err)
	}
	s.sleep(time.Duration(sec * float64(time.Second)))
	trace.Stop()
	return "application/octet-stream", nil
}

// sleep waits d, or until Close ends it.
func (s *Server) sleep(d time.Duration) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-s.stop:
	}
}

// namedProfile renders /debug/pprof/<name>: a runtime/pprof profile, in
// the gzipped protobuf format, or as text with ?debug=1 or 2. ?gc=1 runs a
// collection before a heap profile.
func namedProfile(name string) Render {
	return func(buf *bytes.Buffer, q url.Values) (string, error) {
		p := pprof.Lookup(name)
		if p == nil {
			return "", &statusError{404, "unknown profile"}
		}
		if q.Get("seconds") != "" {
			return "", &statusError{400, "delta profiles are not served: fetch two profiles and compare them with go tool pprof -base"}
		}
		// A value that does not parse counts as 0, as in net/http/pprof.
		if gc, _ := strconv.Atoi(q.Get("gc")); name == "heap" && gc > 0 {
			runtime.GC()
		}
		debug, _ := strconv.Atoi(q.Get("debug"))
		if err := p.WriteTo(buf, debug); err != nil {
			return "", err
		}
		if debug != 0 {
			return textPlain, nil
		}
		return "application/octet-stream", nil
	}
}
