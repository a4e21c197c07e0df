package endpoint

import (
	"os/exec"
	"slices"
	"strings"
	"testing"
)

const self = "semloc/internal/obs/endpoint"

// importRule names, for each guarded standard package, the internal
// packages that may reach it. The HTTP server, expvar and the runtime
// profiler stay in this package, so that a program that only simulates
// (core, sim, exp) links none of them; net is reached only here and by
// prefetchd's wire protocol (serve and its client).
var importRule = []struct {
	dep     string
	allowed []string
}{
	{"net", []string{self, "semloc/internal/serve", "semloc/internal/serve/client"}},
	{"net/http", []string{self}},
	{"net/http/pprof", []string{self}},
	{"expvar", []string{self}},
	{"runtime/pprof", []string{self}},
}

// TestInternalImportRule reads the import graph of every non-test package
// under internal/ with `go list -deps` (what the linker would pull in) and
// fails for each package that reaches a guarded package it may not,
// naming the import that leads there.
func TestInternalImportRule(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", "-f",
		`{{.ImportPath}}|{{join .Imports " "}}|{{join .Deps " "}}`, "semloc/internal/...").Output()
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			t.Fatalf("go list: %v\n%s", err, ee.Stderr)
		}
		t.Fatalf("go list: %v", err)
	}
	type node struct{ imports, deps []string }
	graph := map[string]node{}
	var internal []string
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Split(line, "|")
		if len(f) != 3 {
			t.Fatalf("go list line %q: want path|imports|deps", line)
		}
		graph[f[0]] = node{strings.Fields(f[1]), strings.Fields(f[2])}
		if strings.HasPrefix(f[0], "semloc/internal/") {
			internal = append(internal, f[0])
		}
	}
	reaches := func(pkg, dep string) bool { return pkg == dep || slices.Contains(graph[pkg].deps, dep) }
	if !reaches(self, "net/http") {
		t.Fatalf("go list shows %s not reaching net/http: the graph was not read, so the rule would check nothing", self)
	}
	for _, pkg := range internal {
		for _, r := range importRule {
			if slices.Contains(r.allowed, pkg) || !reaches(pkg, r.dep) {
				continue
			}
			via := r.dep
			for _, imp := range graph[pkg].imports {
				if reaches(imp, r.dep) {
					via = imp
					break
				}
			}
			t.Errorf("%s reaches %s (through its import of %s); only %s may",
				pkg, r.dep, via, strings.Join(r.allowed, ", "))
		}
	}
}
