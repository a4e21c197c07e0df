package endpoint

import (
	"os/exec"
	"slices"
	"strings"
	"testing"
)

const self = "semloc/internal/obs/endpoint"

// httpStack is what a program links when it speaks HTTP through the
// standard library's client or server rather than on net itself. No
// package of the module reaches it, or any crypto/ package, but loadgen,
// whose HTTP client scrapes a daemon's endpoint and needs crypto/tls; the
// endpoint answers HTTP/1.1 on net, and the trace cache and the daemon's
// snapshot guard their bytes with hash/crc64.
var httpStack = []string{"net/http", "expvar", "net/http/pprof"}

const httpClient = "semloc/cmd/loadgen"

// isCrypto reports whether a standard package is crypto or under it.
func isCrypto(dep string) bool { return dep == "crypto" || strings.HasPrefix(dep, "crypto/") }

// internalRule names, for each guarded standard package, the internal
// packages that may reach it. The runtime profiler stays in this package,
// so that a program that only simulates (core, sim, exp) links none of
// it; net is reached only here and by prefetchd's wire protocol (serve and
// its client).
var internalRule = []struct {
	dep     string
	allowed []string
}{
	{"net", []string{self, "semloc/internal/serve", "semloc/internal/serve/client"}},
	{"runtime/pprof", []string{self}},
}

// TestInternalImportRule reads the import graph of every non-test package
// of the module with `go list -deps` (what the linker would pull in) and
// fails for each package that reaches a guarded package it may not,
// naming the import that leads there.
func TestInternalImportRule(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", "-f",
		`{{.ImportPath}}|{{join .Imports " "}}|{{join .Deps " "}}`, "semloc/...").Output()
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			t.Fatalf("go list: %v\n%s", err, ee.Stderr)
		}
		t.Fatalf("go list: %v", err)
	}
	type node struct{ imports, deps []string }
	graph := map[string]node{}
	var module []string
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Split(line, "|")
		if len(f) != 3 {
			t.Fatalf("go list line %q: want path|imports|deps", line)
		}
		graph[f[0]] = node{strings.Fields(f[1]), strings.Fields(f[2])}
		if strings.HasPrefix(f[0], "semloc/") {
			module = append(module, f[0])
		}
	}
	reaches := func(pkg, dep string) bool { return pkg == dep || slices.Contains(graph[pkg].deps, dep) }
	for _, dep := range []string{"runtime/pprof", "net/textproto"} {
		if !reaches(self, dep) {
			t.Fatalf("go list shows %s not reaching %s: the graph was not read, so the rule would check nothing", self, dep)
		}
	}
	if !slices.ContainsFunc(graph[httpClient].deps, isCrypto) {
		t.Fatalf("go list shows %s reaching no crypto package: the crypto rule would check nothing", httpClient)
	}
	fail := func(pkg, dep, allowed string) {
		via := dep
		for _, imp := range graph[pkg].imports {
			if reaches(imp, dep) {
				via = imp
				break
			}
		}
		t.Errorf("%s reaches %s (through its import of %s); only %s may", pkg, dep, via, allowed)
	}
	for _, pkg := range module {
		if pkg != httpClient {
			for _, dep := range httpStack {
				if reaches(pkg, dep) {
					fail(pkg, dep, httpClient)
				}
			}
			// One line per package: the first crypto package it reaches.
			if i := slices.IndexFunc(graph[pkg].deps, isCrypto); i >= 0 {
				fail(pkg, graph[pkg].deps[i], httpClient)
			}
		}
		if !strings.HasPrefix(pkg, "semloc/internal/") {
			continue
		}
		for _, r := range internalRule {
			if !slices.Contains(r.allowed, pkg) && reaches(pkg, r.dep) {
				fail(pkg, r.dep, strings.Join(r.allowed, ", "))
			}
		}
	}
}
