// Command sdlint runs SenseDroid's project-invariant static-analysis
// suite (internal/lint) over the module.
//
// Usage:
//
//	go run ./cmd/sdlint ./...
//	go run ./cmd/sdlint ./internal/cs ./internal/bus
//
// Diagnostics print one per line as path:line:col: message (check) and
// are sorted by position. Exit status: 0 clean, 1 findings (or no
// packages matched — a silent no-op gate is worse than a loud one),
// 2 load/usage errors. scripts/check.sh and CI gate on the exit status
// alone; the "sdlint: analyzed N packages" summary on stderr is for
// people.
//
// With -json the stdout report is instead one deterministic JSON
// document (version, packages, sorted analyzer names, per-analyzer
// timings, position-sorted findings, suppressed count); exit codes and
// the stderr summary are unchanged, so machine consumers get both the
// artifact and the gate.
//
// Debug dumps (both deterministic, sorted, to stdout, exit 0):
//
//	sdlint -lockgraph ./...        inferred lock-acquisition hierarchy
//	sdlint -callgraph <pkg> ./...  call graph of one package (import
//	                               path or suffix, e.g. internal/bus)
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

func main() {
	root := flag.String("root", "", "module root (default: nearest go.mod at or above the working directory)")
	lockgraph := flag.Bool("lockgraph", false, "dump the inferred lock-acquisition hierarchy instead of linting")
	callgraph := flag.String("callgraph", "", "dump the call graph of the named package (import path or suffix) instead of linting")
	jsonOut := flag.Bool("json", false, "emit the run result as one deterministic JSON document on stdout")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: sdlint [-root dir] [-json] [-lockgraph] [-callgraph pkg] <packages>\n  e.g.: sdlint ./...\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() == 0 {
		flag.Usage()
		os.Exit(2)
	}
	os.Exit(run(*root, flag.Args(), *lockgraph, *callgraph, *jsonOut))
}

func run(root string, patterns []string, lockgraph bool, callgraph string, jsonOut bool) int {
	if root == "" {
		var err error
		root, err = findModuleRoot()
		if err != nil {
			fmt.Fprintln(os.Stderr, "sdlint:", err)
			return 2
		}
	}
	loader, err := lint.NewLoader(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sdlint:", err)
		return 2
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sdlint:", err)
		return 2
	}
	if lockgraph || callgraph != "" {
		return dump(pkgs, lockgraph, callgraph)
	}
	analyzers := lint.ProjectAnalyzers()
	res := lint.Run(pkgs, analyzers)
	relativize(res)
	if jsonOut {
		err = lint.WriteJSON(os.Stdout, res, analyzers)
	} else {
		err = lint.WriteDiagnostics(os.Stdout, res.Diagnostics)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sdlint:", err)
		return 2
	}
	fmt.Fprintf(os.Stderr, "sdlint: analyzed %d packages with %d analyzers, %d findings, %d suppressed\n",
		res.Packages, len(analyzers), len(res.Diagnostics), res.Suppressed)
	if res.Packages == 0 {
		fmt.Fprintln(os.Stderr, "sdlint: no packages matched the given patterns")
		return 1
	}
	if len(res.Diagnostics) > 0 {
		return 1
	}
	return 0
}

// dump prints the requested debug view. Both views are deterministic:
// sorted nodes/edges, byte-identical run to run.
func dump(pkgs []*lint.Package, lockgraph bool, callgraph string) int {
	prog := &lint.Program{Pkgs: pkgs}
	if lockgraph {
		fmt.Print(lint.FormatLockGraph(prog))
	}
	if callgraph != "" {
		match := func(p string) bool {
			return p == callgraph || strings.HasSuffix(p, "/"+callgraph)
		}
		found := false
		for _, p := range pkgs {
			if match(p.Path) {
				found = true
				break
			}
		}
		if !found {
			fmt.Fprintf(os.Stderr, "sdlint: -callgraph %s matches none of the loaded packages\n", callgraph)
			return 2
		}
		fmt.Print(lint.FormatCallGraph(prog.CallGraph(), pkgs[0].Fset, match))
	}
	return 0
}

// relativize rewrites absolute file names relative to the working
// directory when possible, for clickable compiler-style output.
func relativize(res *lint.Result) {
	wd, err := os.Getwd()
	if err != nil {
		return
	}
	for i := range res.Diagnostics {
		if rel, err := filepath.Rel(wd, res.Diagnostics[i].Pos.Filename); err == nil && len(rel) < len(res.Diagnostics[i].Pos.Filename) {
			res.Diagnostics[i].Pos.Filename = rel
		}
	}
}

func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found at or above the working directory")
		}
		dir = parent
	}
}
